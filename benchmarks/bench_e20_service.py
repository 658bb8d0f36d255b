"""E20: the routing daemon under concurrent load, overload and chaos.

Boots a real ``repro serve`` stack — asyncio HTTP front door, bounded
admission queue, spawned process workers with per-shard WALs — and
measures it from the client side:

* **load** — concurrent blocking clients submit-and-wait p2p jobs;
  requests/s and p50/p99 submit→terminal latency;
* **idle** — one client sends sequential submit-and-wait jobs to the
  warmed, otherwise idle service: the round trip of a single request,
  which no queueing hides;
* **overload** — with the workers stalled, a burst past the queue bound
  must come back ``429 Retry-After`` (shed), never buffer unboundedly;
* **chaos** — one scripted worker ``SIGKILL`` whose WAL shard is then
  cut inside its last record, then a fixed count of
  seeded kills, hung-worker stalls, WAL tail truncations and fault
  flips, one each time a fixed number of further jobs is accepted, so
  every injection lands in live traffic however fast the service
  drains;
* **drain** — graceful shutdown, then the journal audit: every accepted
  job terminal **exactly once** (zero lost, zero duplicates).

``--check`` is the CI service-smoke gate::

    PYTHONPATH=src python benchmarks/bench_e20_service.py --smoke --check

It enforces a requests/s floor, a p99 latency bound, an idle p50
round-trip bound, at least one scripted worker-kill recovery, shed > 0,
and the zero-lost-jobs invariant.  A full run (neither ``--smoke`` nor
``--check``) records the measured numbers in the ``service`` section of
``BENCH_routing.json``; a plain ``--smoke`` run prints them and leaves
the file alone, so the recorded section always holds full-run numbers.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.workloads import random_p2p_nets
from repro.arch.virtex import VirtexArch
from repro.service import ChaosMonkey, ServiceConfig
from repro.service.chaos import truncate_tail
from repro.service.loadgen import (
    audit_journal,
    await_terminal,
    burst,
    drive_load,
    running_service,
)

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_routing.json"

#: --check floors, deliberately conservative: the CI box is 1 CPU and
#: the gate exists to catch hangs, unbounded queueing and lost jobs —
#: not to benchmark the hardware.
RPS_FLOOR = 8.0
#: p99 submit→terminal bound; covers one kill + respawn + re-dispatch
P99_BOUND_S = 12.0
#: idle-phase p50 round trip.  A request that meets an idle worker is
#: dispatched at once (~4 ms on a 2-CPU host); a dispatcher that waits
#: for a second job before sending the first fails this bound
IDLE_P50_BOUND_MS = 12.0
#: sequential jobs in the idle phase
N_IDLE = 30
#: bytes the scripted kill cuts off the dead worker's WAL shard: inside
#: its last record line (about 90 bytes), or inside the header of a
#: shard that holds no record yet
SCRIPTED_CUT = 16


def _pairs(n: int, seed: int) -> list[tuple[tuple, tuple]]:
    arch = VirtexArch("XCV50")
    nets = random_p2p_nets(arch, n, seed=seed, min_span=2, max_span=8)
    return [
        (
            (net.source.row, net.source.col, net.source.wire),
            (net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire),
        )
        for net in nets
    ]


def inject_by_progress(supervisor, monkey, count: int, stride: int,
                       stop: threading.Event) -> None:
    """Inject ``count`` times, once each time ``stride`` more jobs are
    accepted; returns early when ``stop`` is set."""
    base = supervisor.stats()["accepted"]
    for k in range(1, count + 1):
        while supervisor.stats()["accepted"] < base + k * stride:
            if stop.wait(0.01):
                return
        monkey.inject()


def run_phases(smoke: bool, seed: int = 20) -> dict:
    """All four phases against one service instance; returns the numbers."""
    n_load = 48 if smoke else 300
    n_chaos = 32 if smoke else 96
    # seeded chaos injections after the scripted kill, spread evenly
    # over the chaos phase's accepted jobs
    n_inject = 4 if smoke else 10
    config = ServiceConfig(
        workers=2,
        queue_depth=32,
        tenant_quota=24,
        heartbeat_s=0.2,
        heartbeat_misses=8,
        default_deadline_ms=60_000.0,
        job_max_attempts=5,
        # the post-run audit needs the full accepted/terminal trail
        journal_max_bytes=None,
    )
    n_burst = config.queue_depth * 2
    # the idle phase's pairs come last, so the other phases keep theirs
    pairs = _pairs(n_load + n_burst + n_chaos + N_IDLE, seed)
    results: dict = {
        "mode": "smoke" if smoke else "full",
        "cpus": os.cpu_count(),
        "workers": config.workers,
        "queue_depth": config.queue_depth,
    }

    with tempfile.TemporaryDirectory(prefix="e20-bench-") as data_dir:
        with running_service(config, data_dir) as svc:
            host, port = svc.host, svc.port

            load = drive_load(host, port, pairs[:n_load], threads=4)
            results["load"] = {
                "jobs": n_load,
                "rps": round(load.rps, 2),
                "p50_ms": round(load.p(50) * 1e3, 1),
                "p99_ms": round(load.p(99) * 1e3, 1),
                "succeeded": load.succeeded,
                "failed": load.failed,
            }
            print(f"load     {load.row()}")

            idle = drive_load(host, port, pairs[-N_IDLE:], threads=1)
            results["idle"] = {
                "jobs": N_IDLE,
                "p50_ms": round(idle.p(50) * 1e3, 1),
                "p99_ms": round(idle.p(99) * 1e3, 1),
                "succeeded": idle.succeeded,
                "failed": idle.failed,
            }
            print(f"idle     {idle.row()}")

            for wid in range(config.workers):
                svc.supervisor.send_chaos(wid, {"stall_s": 1.0})
            accepted, rejected = burst(
                host, port, pairs[n_load:n_load + n_burst]
            )
            await_terminal(host, port, accepted)
            results["overload"] = {
                "burst": n_burst,
                "shed": rejected,
                "accepted": len(accepted),
            }
            print(f"overload {rejected} shed / {len(accepted)} accepted "
                  f"(bound {config.queue_depth})")

            monkey = ChaosMonkey(
                svc.supervisor, seed=seed,
                kill=True, stall_s=2.5, truncate_bytes=256, fault_rate=0.02,
            )
            # scripted worker-kill recovery (the CI gate requires ≥1
            # restart): a deterministic SIGKILL whose WAL shard then loses
            # a fixed cut inside its last record, so every run respawns a
            # worker on a torn shard; the seeded kills below may truncate
            # too
            svc.supervisor.kill_worker(
                0,
                reason="chaos-kill",
                mutate=lambda wal_path: truncate_tail(wal_path, SCRIPTED_CUT),
            )
            monkey.events.append(
                {"action": "kill", "t": time.monotonic(), "wid": 0,
                 "truncated": True}
            )
            stride = n_chaos // (n_inject + 1)
            stop = threading.Event()
            injector = threading.Thread(
                target=inject_by_progress,
                args=(svc.supervisor, monkey, n_inject, stride, stop),
                name="e20-chaos", daemon=True,
            )
            injector.start()
            t0 = time.monotonic()
            chaos = drive_load(
                host, port,
                pairs[n_load + n_burst:][:n_chaos],
                threads=4,
            )
            stop.set()
            injector.join()
            results["chaos"] = {
                "jobs": n_chaos,
                "wall_s": round(time.monotonic() - t0, 2),
                "rps": round(chaos.rps, 2),
                "p99_ms": round(chaos.p(99) * 1e3, 1),
                "succeeded": chaos.succeeded,
                "failed": chaos.failed,
                "injections": len(monkey.events),
                "jobs_per_injection": stride,
                "kills": sum(
                    1 for e in monkey.events if e["action"] == "kill"
                ),
                "truncated_kills": sum(
                    1 for e in monkey.events
                    if e["action"] == "kill" and e["truncated"]
                ),
            }
            print(f"chaos    {chaos.row()} "
                  f"[{results['chaos']['injections']} injection(s), "
                  f"{results['chaos']['kills']} kill(s), "
                  f"{results['chaos']['truncated_kills']} truncating]")

        # audit the drained journal before the directory goes
        audit = audit_journal(os.path.join(data_dir, "jobs.journal"))
    stats = svc.supervisor.stats()
    results["restarts"] = sum(w["restarts"] for w in stats["workers"])
    results["audit"] = {
        "accepted": audit["accepted"],
        "lost": len(audit["lost"]),
        "duplicates": len(audit["duplicates"]),
        "drained": audit["drained"],
    }
    print(f"audit    accepted={audit['accepted']} "
          f"lost={len(audit['lost'])} dup={len(audit['duplicates'])} "
          f"drained={audit['drained']} restarts={results['restarts']}")
    return results


def check(results: dict) -> int:
    """The gate: throughput floor, p99 and idle p50 bounds, recovery,
    zero lost jobs."""
    failures: list[str] = []
    rps = results["load"]["rps"]
    if rps < RPS_FLOOR:
        failures.append(f"load rps {rps:.1f} < floor {RPS_FLOOR}")
    p99 = max(results["load"]["p99_ms"], results["chaos"]["p99_ms"]) / 1e3
    if p99 > P99_BOUND_S:
        failures.append(f"p99 {p99:.1f}s > bound {P99_BOUND_S}s")
    idle_p50 = results["idle"]["p50_ms"]
    if idle_p50 >= IDLE_P50_BOUND_MS:
        failures.append(
            f"idle p50 {idle_p50:.1f} ms >= bound {IDLE_P50_BOUND_MS} ms"
        )
    if results["overload"]["shed"] <= 0:
        failures.append("overload burst was not shed (unbounded queuing?)")
    if results["restarts"] < 1:
        failures.append("no worker restart recorded (kill recovery untested)")
    if results["audit"]["lost"]:
        failures.append(f"{results['audit']['lost']} accepted job(s) LOST")
    if results["audit"]["duplicates"]:
        failures.append(
            f"{results['audit']['duplicates']} duplicate terminal state(s)"
        )
    if not results["audit"]["drained"]:
        failures.append("drain did not complete cleanly")
    for f in failures:
        print(f"SERVICE GATE FAILURE: {f}")
    if not failures:
        print("service check ok")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    results = run_phases(smoke)
    if "--check" in argv:
        return check(results)
    if smoke:
        print(json.dumps(results, indent=2))
        print(f"smoke run: {BASELINE.name} left alone (a full run records it)")
        return 0
    data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    results["floors"] = {
        "rps": RPS_FLOOR, "p99_s": P99_BOUND_S,
        "idle_p50_ms": IDLE_P50_BOUND_MS,
    }
    data["service"] = results
    BASELINE.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {BASELINE} (service section)")
    return 0


# ---------------------------------------------------------------- shape tests
# Timing-free service invariants, cheap enough for pytest collection.


def test_shape_queue_sheds_past_depth_bound():
    from repro.service.jobs import Job
    from repro.service.queue import AdmissionQueue

    q = AdmissionQueue(max_depth=4, tenant_quota=10)
    jobs = [
        Job(tenant="t", source=(0, 0, 0), sink=(1, 1, 1)) for _ in range(6)
    ]
    verdicts = [q.offer(j) for j in jobs]
    assert [v.accepted for v in verdicts] == [True] * 4 + [False] * 2
    assert all(v.reason == "shed" and v.retry_after > 0
               for v in verdicts[4:])


def test_shape_requeue_bypasses_depth_bound():
    from repro.service.jobs import Job
    from repro.service.queue import AdmissionQueue

    q = AdmissionQueue(max_depth=1, tenant_quota=10)
    first = Job(tenant="t", source=(0, 0, 0), sink=(1, 1, 1))
    assert q.offer(first).accepted
    extra = Job(tenant="t", source=(0, 0, 0), sink=(1, 1, 1))
    assert not q.offer(extra).accepted
    q.requeue(extra)  # already-accepted jobs are never refused
    assert q.depth() == 2


def test_shape_audit_flags_lost_and_duplicate_jobs(tmp_path):
    from repro.service.jobs import Job, JobState
    from repro.service.journal import JobJournal

    path = str(tmp_path / "jobs.journal")
    j = JobJournal(path)
    a = Job(tenant="t", source=(0, 0, 0), sink=(1, 1, 1))
    b = Job(tenant="t", source=(0, 0, 0), sink=(1, 1, 1))
    j.accepted(a)
    j.accepted(b)
    a.state = JobState.SUCCEEDED
    j.terminal(a)
    j.terminal(a)  # duplicate terminal must be caught by the audit
    j.close()
    audit = audit_journal(path)
    assert audit["lost"] == [b.job_id]
    assert audit["duplicates"] == [a.job_id]


def test_shape_only_a_full_run_records_the_service_section(
    tmp_path, monkeypatch
):
    module = sys.modules[__name__]
    baseline = tmp_path / "BENCH_routing.json"
    recorded = {"smoke": {"rows": 1}, "service": {"mode": "full", "rps": 1.0}}
    baseline.write_text(json.dumps(recorded, indent=2) + "\n")
    monkeypatch.setattr(module, "BASELINE", baseline)
    monkeypatch.setattr(
        module, "run_phases",
        lambda smoke: {"mode": "smoke" if smoke else "full", "rps": 2.0},
    )
    before = baseline.read_bytes()
    assert main(["--smoke"]) == 0
    assert baseline.read_bytes() == before
    assert main([]) == 0
    data = json.loads(baseline.read_text())
    assert data["smoke"] == recorded["smoke"]
    assert data["service"] == {
        "mode": "full",
        "rps": 2.0,
        "floors": {
            "rps": RPS_FLOOR, "p99_s": P99_BOUND_S,
            "idle_p50_ms": IDLE_P50_BOUND_MS,
        },
    }


def test_job_journal_append_throughput(benchmark, tmp_path):
    """Cost of the durable accepted+terminal round-trip per job."""
    from repro.service.jobs import Job, JobState
    from repro.service.journal import JobJournal

    journal = JobJournal(str(tmp_path / "bench.journal"))

    def one_job() -> bool:
        job = Job(tenant="bench", source=(1, 1, 1), sink=(2, 2, 2))
        journal.accepted(job)
        job.state = JobState.SUCCEEDED
        journal.terminal(job)
        return True

    assert benchmark(one_job)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
