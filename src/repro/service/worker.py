"""Process-worker entry point: one durable device session per worker.

Each worker owns a full :class:`~repro.core.router.JRouter` with its own
simulated device and a private WAL shard (``worker<N>.wal``).  On start
it *recovers* that shard if one exists — so a SIGKILL'd worker's respawn
resumes the same device state and re-executing its in-flight jobs is
idempotent (an already-routed sink is a 0-PIP no-op).

The control protocol is deliberately dumb — picklable tuples over the
worker's own duplex :func:`multiprocessing.Pipe` (the pipe names the
worker, so no message carries its id):

supervisor → worker
    ``("batch", [job_wire, ...])`` — route the jobs, one
    :meth:`~repro.core.router.JRouter.route_p2p_batch` call.
    ``("chaos", {"stall_s": .., "fault_rate": ..})`` — test hooks.
    ``("stop",)`` — checkpoint and exit 0.

worker → supervisor
    ``("ready", pid, recovered)`` once at boot (after recovery),
    ``("hb",)`` heartbeats while the pipe is idle,
    ``("done", [(job_id, ok, pips, method, error), ...])`` results.

Liveness is judged by the *supervisor's* clock, never by comparing
timestamps across processes: its window restarts at every message from
the worker and at every batch sent to it.  No heartbeat flows during a
batch, so a stalled batch is indistinguishable from a dead process and
the monitor treats both the same way.  EOF on the pipe means the
supervisor is gone, and the worker exits.
"""

from __future__ import annotations

import os
import time

from ..core.router import JRouter
from ..core.wal import DurableSession, recover
from ..device.faults import FaultModel

__all__ = ["worker_main", "execute_batch"]


def _pin(triple) -> "object":
    from ..core.endpoints import Pin

    row, col, wire = triple
    return Pin(int(row), int(col), int(wire))


#: jobs whose remaining budgets differ by more than this factor never
#: share a sub-batch: the group deadline is the group *minimum*, and
#: letting one nearly-expired job clamp batchmates with generous budgets
#: would fail them as timeouts their own deadlines never justified
BUDGET_SPREAD = 4.0


def _budget_groups(jobs: list[dict]) -> list[list[int]]:
    """Partition batch indices into deadline-compatible groups.

    Bounded jobs are bucketed so every member's remaining budget is
    within ``BUDGET_SPREAD``x of its group's minimum (a member can lose
    at most ``1 - 1/BUDGET_SPREAD`` of its budget to the shared clamp);
    unbounded jobs form their own group and keep the router's default.
    """
    bounded = sorted(
        (i for i, j in enumerate(jobs) if j.get("remaining_ms") is not None),
        key=lambda i: jobs[i]["remaining_ms"],
    )
    groups: list[list[int]] = []
    for i in bounded:
        if (
            groups
            and jobs[i]["remaining_ms"]
            <= jobs[groups[-1][0]]["remaining_ms"] * BUDGET_SPREAD
        ):
            groups[-1].append(i)
        else:
            groups.append([i])
    unbounded = [
        i for i, j in enumerate(jobs) if j.get("remaining_ms") is None
    ]
    if unbounded:
        groups.append(unbounded)
    return groups


def execute_batch(router: JRouter, jobs: list[dict]) -> list[tuple]:
    """Route one coalesced batch of job descriptions on ``router``.

    The per-job deadline budget that survived queueing bounds each
    *budget-compatible sub-batch* (see :func:`_budget_groups`): within a
    group the deadline is the minimum remaining budget, so no job can
    overstay its own promise, and a job on the edge of its deadline
    cannot starve batchmates whose deadlines are far away.  Returns one
    ``(job_id, ok, pips, method, error)`` tuple per job, request order.
    """
    saved = router.deadline_ms
    outcomes: list = [None] * len(jobs)
    try:
        for group in _budget_groups(jobs):
            remaining = [
                jobs[i]["remaining_ms"]
                for i in group
                if jobs[i].get("remaining_ms") is not None
            ]
            router.deadline_ms = (
                max(1.0, min(remaining)) if remaining else saved
            )
            pairs = [
                (_pin(jobs[i]["source"]), _pin(jobs[i]["sink"]))
                for i in group
            ]
            for i, out in zip(group, router.route_p2p_batch(pairs)):
                outcomes[i] = out
    finally:
        router.deadline_ms = saved
    results = []
    for j, out in zip(jobs, outcomes):
        err = None if out.error is None else str(out.error)
        results.append(
            (j["job_id"], out.success, out.pips_added, out.method, err)
        )
    return results


def build_worker_router(
    wal_path: str,
    *,
    part: str,
    deadline_ms: float | None,
    max_nodes: int = 50_000,
) -> tuple[JRouter, bool]:
    """Recover the shard's router if a WAL exists, else build it fresh."""
    kwargs = dict(
        part=part,
        deadline_ms=deadline_ms,
        max_nodes=max_nodes,
    )
    if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
        router, _report = recover(wal_path, router_kwargs=kwargs)
        return router, True
    return JRouter(**kwargs), False


def worker_main(
    wid: int,
    conn,
    *,
    part: str = "XCV50",
    wal_path: str,
    heartbeat_s: float = 0.25,
    deadline_ms: float | None = 2000.0,
    checkpoint_every: int | None = 256,
) -> None:
    """Top of the worker process (``multiprocessing.Process`` target)."""
    router, recovered = build_worker_router(
        wal_path, part=part, deadline_ms=deadline_ms
    )
    stall_s = 0.0
    with conn, DurableSession(
        router, wal_path, checkpoint_every=checkpoint_every
    ):
        conn.send(("ready", os.getpid(), recovered))
        while True:
            if not conn.poll(heartbeat_s):
                conn.send(("hb",))
                continue
            try:
                msg = conn.recv()
            except EOFError:  # the supervisor is gone
                return
            kind = msg[0]
            if kind == "stop":
                return
            if kind == "chaos":
                knobs = msg[1]
                stall_s = float(knobs.get("stall_s", stall_s))
                rate = knobs.get("fault_rate")
                if rate is not None:
                    # flip the device's fault model mid-flight: searches
                    # must re-mask and routes must keep succeeding
                    router.device.set_fault_model(
                        FaultModel.random(
                            router.device.arch,
                            seed=int(knobs.get("fault_seed", wid)),
                            stuck_open_rate=float(rate),
                        )
                    )
                continue
            if kind != "batch":  # pragma: no cover - protocol guard
                continue
            if stall_s > 0.0:
                # injected hang: no heartbeats while sleeping, so the
                # monitor's miss window fires and SIGKILLs this process
                time.sleep(stall_s)
            conn.send(("done", execute_batch(router, msg[1])))
