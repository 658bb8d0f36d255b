"""The worker-pool supervisor: scheduling, liveness, exactly-once results.

Three daemon threads around a pool of spawned worker processes, each
worker reached through its own duplex :func:`multiprocessing.Pipe`:

* **dispatcher** — work-conserving.  It reserves an idle worker, then
  takes every job already queued (highest priority first, at most
  ``batch_max``) and sends them as one ``route_p2p_batch`` message.  It
  never waits for more jobs while a worker is idle, so jobs coalesce
  only while every worker is busy — the only time batching saves
  anything.  Jobs whose deadline expired while queued are failed here;
  if that leaves nothing to send, the worker goes back to idle.
* **collector** — the only reader of the workers' pipes, woken by
  :func:`multiprocessing.connection.wait`.  Every message refreshes the
  sender's liveness stamp, as does every batch the dispatcher sends
  (judged by *this* process's monotonic clock — cross-process clock
  comparison is exactly the kind of hazard ``RPR002`` exists for);
  ``done`` results walk each job through its
  exactly-once :meth:`~repro.service.jobs.Job.finish`.  A pipe at EOF
  (its worker died) is set aside until a respawn replaces it.
* **monitor** — kills (SIGKILL) any worker that died or whose liveness
  stamp is older than the miss window, re-enqueues its in-flight jobs
  (idempotent: the respawned worker recovers its WAL shard, so a
  re-executed job's already-routed sink is a 0-PIP no-op), and
  respawns it.  Jobs that exhaust ``job_max_attempts`` worker losses go
  terminal ``failed`` rather than cycling forever.

A pipe has no feeder thread and shares no lock with the other workers'
pipes: a message costs one write, and a worker SIGKILLed mid-write can
stall only its own pipe, never the other workers' results and
heartbeats.

Failure classes seen by clients:

* ``timeout`` — the job's deadline expired (queued or mid-search).
  Counts against the tenant's circuit breaker.
* ``retryable`` — the worker died mid-route; re-enqueued with seeded
  jittered backoff (:meth:`~repro.core.recovery.RetryPolicy.backoff_for`)
  until attempts run out.
* ``permanent`` — unroutable / contention / fault; retrying cannot help.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from threading import Condition, Event, Lock, Thread
from typing import Callable

from ..core.recovery import CircuitBreaker, RetryPolicy
from .jobs import Job, JobState
from .journal import JobJournal, recover_jobs
from .queue import Admission, AdmissionQueue
from .worker import worker_main

__all__ = ["ServiceConfig", "RoutingSupervisor"]


@dataclass(frozen=True)
class ServiceConfig:
    """Every service knob in one frozen, test-friendly bag."""

    part: str = "XCV50"
    workers: int = 2
    queue_depth: int = 256
    tenant_quota: int = 64
    retry_after_s: float = 0.5
    batch_max: int = 16
    heartbeat_s: float = 0.25
    #: liveness miss window, in heartbeat periods
    heartbeat_misses: float = 8.0
    job_max_attempts: int = 3
    #: liveness grace after a (re)spawn: recovery of a large WAL shard
    #: emits no heartbeats, and killing a booting worker would loop
    boot_grace_s: float = 20.0
    #: backoff for worker-loss re-enqueues (seeded jitter desynchronizes
    #: the re-dispatch herd after a crash takes out a full batch)
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            backoff_base=0.05, backoff_cap=1.0, jitter_seed=0x5E41CE
        )
    )
    breaker_trips: int = 5
    breaker_cooldown_s: float = 2.0
    #: deadline applied to jobs that do not bring their own
    default_deadline_ms: float | None = 5000.0
    worker_max_nodes: int = 50_000
    checkpoint_every: int | None = 256
    #: terminal jobs stay queryable (GET /jobs/ID) this long, then are
    #: evicted from the in-memory table; None retains them forever
    job_ttl_s: float | None = 300.0
    #: compact the job journal when it outgrows this; None disables
    #: (e.g. for audits that need the full accepted/terminal history)
    journal_max_bytes: int | None = 16 << 20

    @property
    def liveness_timeout_s(self) -> float:
        return self.heartbeat_s * self.heartbeat_misses


class _Worker:
    """Supervisor-side view of one worker process."""

    __slots__ = (
        "wid", "proc", "conn", "ready", "busy", "last_seen",
        "in_flight", "restarts", "restarting", "wal_path",
    )

    def __init__(self, wid: int, wal_path: str) -> None:
        self.wid = wid
        self.wal_path = wal_path
        self.proc = None
        #: supervisor end of the worker's duplex pipe; replaced (under
        #: the supervisor's send lock) by every respawn
        self.conn = None
        self.ready = False
        self.busy = False
        self.last_seen = 0.0
        self.in_flight: dict[str, Job] = {}
        self.restarts = 0
        #: a kill/respawn cycle is in progress; concurrent kill_worker
        #: calls for this wid become no-ops instead of double-respawning
        self.restarting = False


class RoutingSupervisor:
    """Owns the queue, the journal, the breaker, and the worker pool."""

    def __init__(self, config: ServiceConfig, data_dir: str) -> None:
        self.config = config
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.queue = AdmissionQueue(
            max_depth=config.queue_depth,
            tenant_quota=config.tenant_quota,
            retry_after=config.retry_after_s,
        )
        self.journal = JobJournal(os.path.join(data_dir, "jobs.journal"))
        self.breaker = CircuitBreaker(
            config.breaker_trips, cooldown_s=config.breaker_cooldown_s
        )
        self.jobs: dict[str, Job] = {}
        self._mp = multiprocessing.get_context("spawn")
        self._workers = [
            _Worker(i, os.path.join(data_dir, f"worker{i}.wal"))
            for i in range(config.workers)
        ]
        self._wlock = Lock()
        self._idle = Condition(self._wlock)
        #: serializes writes to the workers' pipes and pipe replacement
        self._send_lock = Lock()
        self._stop = Event()
        self._draining = False
        self._threads: list[Thread] = []
        self._open_jobs = 0
        self._done = Condition(Lock())
        self.counters = {
            "accepted": 0, "succeeded": 0, "failed": 0, "rejected": 0,
            "requeued": 0, "worker_restarts": 0, "recovered_orphans": 0,
            "timeouts": 0, "batches": 0, "evicted": 0, "compactions": 0,
            "compaction_errors": 0,
        }
        self._clock = Lock()  # counters guard

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> dict:
        """Recover orphaned jobs, spawn the pool, start the threads."""
        orphans, jstats = recover_jobs(self.journal.path)
        for job in orphans:
            self._adopt(job)
            self.queue.requeue(job)
        if orphans:
            self._bump("recovered_orphans", len(orphans))
        for w in self._workers:
            self._spawn(w)
        for name, fn in (
            ("dispatcher", self._dispatch_loop),
            ("collector", self._collect_loop),
            ("monitor", self._monitor_loop),
        ):
            t = Thread(target=fn, name=f"svc-{name}", daemon=True)
            t.start()
            self._threads.append(t)
        return jstats

    def _spawn(self, w: _Worker) -> None:
        cfg = self.config
        conn, child_conn = self._mp.Pipe()
        with self._send_lock:
            w.conn = conn
        w.ready = False
        w.busy = False
        w.proc = self._mp.Process(
            target=worker_main,
            args=(w.wid, child_conn),
            kwargs=dict(
                part=cfg.part,
                wal_path=w.wal_path,
                heartbeat_s=cfg.heartbeat_s,
                deadline_ms=cfg.default_deadline_ms,
                checkpoint_every=cfg.checkpoint_every,
            ),
            daemon=True,
        )
        w.proc.start()
        # the worker holds its own copy now; ours would keep the pipe
        # open after the worker dies, hiding the EOF the collector sees
        child_conn.close()
        w.last_seen = time.monotonic() + self.config.boot_grace_s

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        tenant: str,
        source: tuple[int, int, int],
        sink: tuple[int, int, int],
        *,
        priority: int = 0,
        deadline_ms: float | None = None,
    ) -> tuple[Admission, Job]:
        """Admit one job, or reject it fast with a retry-after hint.

        An accepted job is journaled *before* the dispatcher can see
        it, and so before this returns: once the client sees the job
        id, a ``kill -9`` cannot lose the job, and no worker runs a job
        the journal does not know.
        """
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        job = Job(
            tenant=tenant,
            source=source,
            sink=sink,
            priority=priority,
            deadline_ms=deadline_ms,
        )
        if self._draining:
            adm = Admission(False, "draining", self.config.retry_after_s)
        elif self.breaker.is_open(tenant):
            adm = Admission(False, "breaker", self.breaker.retry_after(tenant))
        else:
            adm = self.queue.offer(job)
        if not adm.accepted:
            if adm.reason != "breaker":
                # if this job was the tenant's half-open probe, admission
                # refused it before it could prove anything — return the
                # probe or the breaker stays half-open forever (no-op
                # when no probe is out)
                self.breaker.probe_abort(tenant)
            self._bump("rejected")
            job.finish(
                JobState.REJECTED, reason=adm.reason,
                retry_after=adm.retry_after,
            )
            return adm, job
        try:
            self.journal.accepted(job)
        except BaseException:
            self.queue.withdraw(job)  # never promised: free its slots
            raise
        self._adopt(job)
        self._bump("accepted")
        self.queue.publish(job)
        return adm, job

    def _adopt(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        with self._done:
            self._open_jobs += 1
        job.add_done_callback(self._on_terminal)

    def _on_terminal(self, job: Job) -> None:
        self.journal.terminal(job)
        self.queue.release(job.tenant)
        if (
            job.state is JobState.FAILED
            and job.result.get("error_class") != "timeout"
        ):
            # permanent / retry-exhausted failures say nothing about the
            # congestion that opened the breaker, but they must still
            # resolve an outstanding half-open probe (timeouts resolve
            # theirs via record_trip, successes via record_success)
            self.breaker.probe_abort(job.tenant)
        self._bump(
            "succeeded" if job.state is JobState.SUCCEEDED else "failed"
        )
        with self._done:
            self._open_jobs -= 1
            self._done.notify_all()

    def _bump(self, key: str, n: int = 1) -> None:
        with self._clock:
            self.counters[key] += n

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        cfg = self.config
        while True:
            w = self._acquire_idle()
            if w is None:  # stopping
                return
            jobs: list[Job] = []
            while not jobs and not self._stop.is_set():
                jobs = self.queue.take(cfg.batch_max, timeout=0.05)
            live: list[Job] = []
            for job in jobs:
                if job.expired():
                    self._fail_timeout(job, "deadline expired in queue")
                elif job.mark_dispatched():
                    live.append(job)
            self._send_batch(w, live)

    def _acquire_idle(self) -> _Worker | None:
        with self._idle:
            while not self._stop.is_set():
                for w in self._workers:
                    if w.ready and not w.busy:
                        w.busy = True
                        return w
                self._idle.wait(0.1)
        return None

    def _send_batch(self, w: _Worker, live: list[Job]) -> None:
        """Send ``live`` to the reserved worker ``w``, or hand ``w`` back
        idle when there is nothing to send."""
        with self._idle:
            # only this thread reserves workers, so ready-and-busy means
            # no kill or respawn has ended the reservation meanwhile
            reserved = w.ready and w.busy and not w.restarting
            if reserved and live:
                w.in_flight = {j.job_id: j for j in live}
            elif reserved:
                w.busy = False
                self._idle.notify_all()
        if not reserved:
            for job in live:
                if job.mark_requeued():
                    self.queue.requeue(job)
        elif live:
            # the worker sends nothing until the batch is done: the
            # liveness window restarts here
            w.last_seen = time.monotonic()
            if self._send(w, ("batch", [j.to_wire() for j in live])):
                self._bump("batches")
            # a failed send leaves the jobs in w.in_flight: the worker is
            # dead, and the monitor's kill_worker re-enqueues them

    def _send(self, w: _Worker, msg: tuple) -> bool:
        """Write one message down ``w``'s pipe; False if the worker is
        gone (its death is the monitor's to handle)."""
        with self._send_lock:
            try:
                w.conn.send(msg)
            except OSError:
                return False
        return True

    def _fail_timeout(self, job: Job, why: str) -> None:
        if job.finish(JobState.FAILED, error=why, error_class="timeout"):
            self._bump("timeouts")
            self.breaker.record_trip(job.tenant)

    # -- collector -----------------------------------------------------------

    def _collect_loop(self) -> None:
        watched: dict = {}  # pipe -> worker, as of the previous pass
        at_eof: set = set()
        while not self._stop.is_set():
            current = {w.conn: w for w in self._workers if w.conn is not None}
            for conn in watched.keys() - current.keys():
                # replaced by a respawn, under the send lock: no writer
                # can reach this pipe any more, and this thread is its
                # only reader
                conn.close()
            watched = current
            at_eof &= current.keys()
            for conn in wait(
                [c for c in current if c not in at_eof], timeout=0.1
            ):
                w = current[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # the worker died.  EOF stays readable, so watching
                    # the pipe would spin this loop; the monitor
                    # respawns the worker with a new one
                    at_eof.add(conn)
                    with self._idle:
                        if w.conn is conn:
                            w.ready = False
                    continue
                w.last_seen = time.monotonic()
                if msg[0] == "ready":
                    with self._idle:
                        w.ready = True
                        w.busy = False
                        self._idle.notify_all()
                elif msg[0] == "done":
                    self._absorb_results(w, msg[1])

    def _absorb_results(self, w: _Worker, results: list[tuple]) -> None:
        with self._wlock:
            in_flight, w.in_flight = w.in_flight, {}
        for job_id, ok, pips, method, err in results:
            job = in_flight.pop(job_id, None) or self.jobs.get(job_id)
            if job is None:  # pragma: no cover - unknown id, late duplicate
                continue
            if ok:
                if job.finish(
                    JobState.SUCCEEDED, pips_added=pips, method=method
                ):
                    self.breaker.record_success(job.tenant)
            elif err is not None and "abandoned" in err:
                if job.expired():
                    self._fail_timeout(job, err)
                else:
                    # the shared (grouped) batch clamp ran out, not this
                    # job's own deadline — the promise still stands:
                    # re-enqueue with backoff instead of charging the
                    # tenant's breaker for a timeout it never earned
                    self._requeue_lost(job)
            else:
                job.finish(
                    JobState.FAILED, error=err or "routing failed",
                    error_class="permanent",
                )
        with self._idle:
            w.busy = False
            self._idle.notify_all()

    # -- monitor -------------------------------------------------------------

    def _monitor_loop(self) -> None:
        cfg = self.config
        while not self._stop.wait(cfg.heartbeat_s):
            now = time.monotonic()
            for w in self._workers:
                if w.proc is None or w.restarting:
                    continue
                dead = w.proc.exitcode is not None
                stale = now - w.last_seen > cfg.liveness_timeout_s
                if dead or stale:
                    self.kill_worker(w.wid, reason="dead" if dead else "hung")
            self._enforce_bounds(now)

    def _enforce_bounds(self, now: float) -> None:
        """Keep the job table and the journal from growing forever."""
        cfg = self.config
        if cfg.job_ttl_s is not None:
            cutoff = now - cfg.job_ttl_s
            evicted = 0
            for jid, job in list(self.jobs.items()):
                if (
                    job.state.terminal
                    and job.finished_at is not None
                    and job.finished_at <= cutoff
                ):
                    self.jobs.pop(jid, None)
                    evicted += 1
            if evicted:
                self._bump("evicted", evicted)
        if (
            cfg.journal_max_bytes is not None
            and self.journal.size() > cfg.journal_max_bytes
        ):
            try:
                self.journal.compact()
            except (OSError, ValueError):
                # a damaged or unwritable journal: appends still work (or
                # fail loudly in submit); surface via the stats counter
                # and retry on the next monitor tick
                self._bump("compaction_errors")
            else:
                self._bump("compactions")

    def kill_worker(
        self,
        wid: int,
        *,
        reason: str = "chaos",
        mutate: Callable[[str], None] | None = None,
    ) -> None:
        """SIGKILL a worker, re-enqueue its jobs, respawn it.

        ``mutate`` runs between the kill and the respawn with the
        worker's WAL shard path — the chaos harness uses it to truncate
        the WAL tail and prove recovery shrugs off torn writes.

        Reentrancy-safe: the monitor (which sees ``exitcode`` flip the
        instant anyone SIGKILLs the process) can race a chaos or drain
        caller on the same wid.  Only the first caller kills and
        respawns; a concurrent second call is a no-op — two respawns
        would leave two live processes appending to one WAL shard, and
        the recovery scanner rejects their interleaved frames as
        tampering.
        """
        w = self._workers[wid]
        with self._wlock:
            if w.restarting:
                return
            w.restarting = True
            proc, w.ready, w.busy = w.proc, False, True
            in_flight, w.in_flight = w.in_flight, {}
        try:
            if proc is not None and proc.exitcode is None:
                os.kill(proc.pid, signal.SIGKILL)
            if proc is not None:
                proc.join(timeout=10.0)
            for job in in_flight.values():
                self._requeue_lost(job)
            if mutate is not None:
                mutate(w.wal_path)
            if not self._stop.is_set():
                w.restarts += 1
                self._bump("worker_restarts")
                self._spawn(w)
        finally:
            with self._wlock:
                w.restarting = False

    def _requeue_lost(self, job: Job) -> None:
        """Idempotent re-enqueue of a job whose attempt went nowhere
        (worker lost, or abandoned by a shared clamp before its own
        deadline)."""
        if job.expired():
            self._fail_timeout(job, "deadline expired during worker loss")
            return
        if job.attempts >= self.config.job_max_attempts:
            job.finish(
                JobState.FAILED,
                error=f"worker lost {job.attempts}x, giving up",
                error_class="retryable",
            )
            return
        if job.mark_requeued():
            delay = self.config.retry.backoff_for(
                job.attempts + 1, token=hash(job.job_id)
            )
            self.queue.requeue(job, delay=delay)
            self._bump("requeued")

    def send_chaos(self, wid: int, knobs: dict) -> bool:
        """Forward a chaos knob dict to a live worker (test hook)."""
        w = self._workers[wid]
        if w.proc is None or w.proc.exitcode is not None:
            return False
        return self._send(w, ("chaos", dict(knobs)))

    # -- drain / stop --------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """SIGTERM semantics: stop admitting, finish everything, stop.

        Returns True when every accepted job reached a terminal state
        before the timeout (and journals the clean-drain marker); False
        leaves the journal un-marked so the next start re-enqueues the
        stragglers — either way nothing is lost.
        """
        self._draining = True
        self.queue.start_draining()
        deadline = time.monotonic() + timeout
        with self._done:
            while self._open_jobs > 0:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._done.wait(min(left, 0.2))
            clean = self._open_jobs == 0
        if clean:
            self.journal.drained()
        self.stop()
        return clean

    def stop(self) -> None:
        """Stop threads and workers; accepted jobs stay journaled."""
        self._stop.set()
        with self._idle:
            self._idle.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)
        for w in self._workers:
            if w.proc is not None and w.proc.exitcode is None:
                try:
                    self._send(w, ("stop",))
                    w.proc.join(timeout=5.0)
                finally:
                    if w.proc.exitcode is None:
                        w.proc.kill()
                        w.proc.join(timeout=5.0)
            with self._send_lock:
                if w.conn is not None:
                    w.conn.close()
        self.journal.close()

    # -- views ---------------------------------------------------------------

    def stats(self) -> dict:
        with self._clock:
            counters = dict(self.counters)
        counters["queue_depth"] = self.queue.depth()
        counters["queue_shed"] = self.queue.shed
        counters["quota_refused"] = self.queue.quota_refused
        counters["open_jobs"] = self._open_jobs
        counters["jobs_tracked"] = len(self.jobs)
        counters["journal_bytes"] = self.journal.size()
        counters["workers"] = [
            {
                "wid": w.wid,
                "alive": w.proc is not None and w.proc.exitcode is None,
                "ready": w.ready,
                # w.busy also marks the idle worker the dispatcher holds
                # while it waits for a job
                "busy": bool(w.in_flight),
                "restarts": w.restarts,
            }
            for w in self._workers
        ]
        counters["open_breakers"] = self.breaker.open_nets()
        return counters

    def get_job(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)
