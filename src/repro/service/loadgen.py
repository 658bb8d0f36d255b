"""Load generation and invariant auditing for the routing daemon.

Used by E20 (``benchmarks/bench_e20_service.py``, the experiment's
table and its CI gate) and by the end-to-end ``service`` workload:
concurrent clients driving the
HTTP front door, and an after-the-fact audit of the job journal proving
the service's one hard invariant — **every accepted job reached a
terminal state exactly once** — held through whatever the run threw at
it (overload, worker kills, stalls, WAL truncation).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import threading
import time
from dataclasses import dataclass, field

from .client import ServiceClient
from .journal import iter_journal
from .server import RoutingService
from .supervisor import ServiceConfig

__all__ = ["LoadReport", "drive_load", "burst", "await_terminal",
           "audit_journal", "percentile", "running_service"]


@contextlib.contextmanager
def running_service(config: ServiceConfig, data_dir: str, *,
                    drain_timeout: float = 60.0):
    """Boot a :class:`RoutingService` on its own event-loop thread.

    Yields the service (``svc.port`` is the ephemeral listen port);
    drains it gracefully on exit — after which the journal audit must
    show every accepted job terminal.
    """
    svc = RoutingService(config, data_dir)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def _boot() -> None:
        await svc.start()
        started.set()
        await svc.serve_forever()

    def _run() -> None:
        try:
            loop.run_until_complete(_boot())
        finally:
            with contextlib.suppress(Exception):
                loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="svc-loop", daemon=True)
    thread.start()
    if not started.wait(60.0):
        raise RuntimeError("service failed to start listening")
    try:
        yield svc
    finally:
        fut = asyncio.run_coroutine_threadsafe(
            svc.drain(drain_timeout), loop
        )
        with contextlib.suppress(Exception):
            fut.result(drain_timeout + 15.0)
        thread.join(timeout=10.0)


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    k = min(len(ordered) - 1, max(0, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[k]


@dataclass
class LoadReport:
    """What one load phase saw from the client side."""

    submitted: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0
    errors: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.succeeded + self.failed

    @property
    def rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def p(self, q: float) -> float:
        return percentile(self.latencies_s, q)

    def row(self) -> str:
        return (
            f"{self.completed}/{self.submitted} done "
            f"({self.succeeded} ok, {self.failed} failed, "
            f"{self.rejected} shed), {self.rps:.1f} req/s, "
            f"p50 {self.p(50) * 1e3:.0f} ms, p99 {self.p(99) * 1e3:.0f} ms"
        )


def drive_load(
    host: str,
    port: int,
    pairs: list[tuple[tuple, tuple]],
    *,
    threads: int = 4,
    tenants: int = 3,
    deadline_ms: float | None = None,
    use_retry: bool = True,
) -> LoadReport:
    """Drive ``pairs`` through concurrent blocking clients, waiting each
    job to its terminal state; per-job latency is submit→terminal."""
    report = LoadReport()
    lock = threading.Lock()
    it = iter(list(enumerate(pairs)))

    def one_client() -> None:
        client = ServiceClient(host, port)
        try:
            while True:
                with lock:
                    nxt = next(it, None)
                if nxt is None:
                    return
                i, (src, sink) = nxt
                t0 = time.monotonic()
                try:
                    submit = (
                        client.submit_with_retry if use_retry
                        else client.submit
                    )
                    status, doc = submit(
                        src, sink, tenant=f"tenant-{i % tenants}",
                        deadline_ms=deadline_ms, wait=True,
                    )
                except Exception:  # repro: noqa RPR006  (chaos load: any client error is a counted outcome, never a crash)
                    with lock:
                        report.errors += 1
                    continue
                dt = time.monotonic() - t0
                with lock:
                    report.submitted += 1
                    if status in (200, 202):
                        report.latencies_s.append(dt)
                        if doc.get("state") == "succeeded":
                            report.succeeded += 1
                        else:
                            report.failed += 1
                    else:
                        report.rejected += 1
        finally:
            client.close()

    t0 = time.monotonic()
    pool = [
        threading.Thread(target=one_client, daemon=True)
        for _ in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    report.wall_s = time.monotonic() - t0
    return report


def burst(
    host: str,
    port: int,
    pairs: list[tuple[tuple, tuple]],
    *,
    tenant: str = "burst",
) -> tuple[list[str], int]:
    """Fire-and-forget submissions as fast as one connection can go.

    Returns ``(accepted_job_ids, rejected_count)`` — the overload phase
    expects rejections: a burst larger than the queue bound must come
    back 429, not queue unboundedly.
    """
    client = ServiceClient(host, port)
    accepted: list[str] = []
    rejected = 0
    try:
        for src, sink in pairs:
            status, doc = client.submit(src, sink, tenant=tenant)
            if status == 202:
                accepted.append(doc["job_id"])
            else:
                rejected += 1
    finally:
        client.close()
    return accepted, rejected


def await_terminal(
    host: str,
    port: int,
    job_ids: list[str],
    *,
    timeout: float = 120.0,
) -> dict[str, str]:
    """Poll every job to a terminal state; returns job_id → state."""
    client = ServiceClient(host, port)
    states: dict[str, str] = {}
    try:
        for jid in job_ids:
            doc = client.wait_job(jid, timeout=timeout)
            states[jid] = doc["state"]
    finally:
        client.close()
    return states


def audit_journal(path: str) -> dict:
    """The zero-lost-jobs audit over a (possibly live) job journal.

    * ``lost`` — accepted jobs with no terminal record;
    * ``duplicates`` — jobs with more than one terminal record (an
      exactly-once violation);
    * ``drained`` — the clean-shutdown marker was written.
    """
    events, torn = iter_journal(path)
    accepted: set[str] = set()
    terminal = collections.Counter()
    drained = False
    for ev in events:
        kind = ev.get("ev")
        if kind == "accepted":
            accepted.add(ev["job"]["job_id"])
        elif kind == "terminal":
            terminal[ev["job_id"]] += 1
        elif kind == "drain":
            drained = True
    lost = sorted(accepted - set(terminal))
    duplicates = sorted(j for j, n in terminal.items() if n > 1)
    return {
        "accepted": len(accepted),
        "terminal": len(terminal),
        "lost": lost,
        "duplicates": duplicates,
        "torn": torn,
        "drained": drained,
    }
