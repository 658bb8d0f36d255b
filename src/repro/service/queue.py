"""Bounded priority admission: shed load fast, never buffer unboundedly.

The queue is the service's overload policy made concrete.  Admission can
fail three ways, each with a distinct reason and a ``retry_after`` hint
the HTTP layer turns into a 429 + ``Retry-After`` header:

* ``shed`` — total queued depth hit ``max_depth``.  The alternative,
  unbounded buffering, converts overload into unbounded latency and an
  OOM kill; a fast rejection lets a well-behaved client back off
  (see :meth:`~repro.core.recovery.RetryPolicy.backoff_for`).
* ``quota`` — one tenant holds ``tenant_quota`` outstanding (queued +
  in-flight) jobs; refusing the hog protects everyone else's latency.
* ``draining`` — the service is shutting down gracefully.

Admission is two-phase.  :meth:`AdmissionQueue.offer` decides and, on
acceptance, holds the job's depth and quota slots without queueing it;
:meth:`AdmissionQueue.publish` then makes it visible to :meth:`take`.
The caller journals the job in between, so no job reaches a worker
before its acceptance is journaled (:meth:`AdmissionQueue.withdraw`
returns the slots of a job whose journaling failed).

Re-admission after a worker loss (:meth:`AdmissionQueue.requeue`)
deliberately bypasses the depth check: those jobs were *already
accepted* — journaled, promised — and dropping them would violate the
zero-lost-jobs invariant.  The bound still holds in expectation because
requeues only recycle depth that admission already granted.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from threading import Condition, Lock

from .jobs import Job

__all__ = ["Admission", "AdmissionQueue"]


@dataclass(frozen=True, slots=True)
class Admission:
    """Outcome of one admission attempt."""

    accepted: bool
    reason: str | None = None       #: "shed" | "quota" | "draining"
    retry_after: float = 0.0        #: seconds; client backoff hint


class AdmissionQueue:
    """Thread-safe bounded priority queue with per-tenant quotas.

    Higher ``priority`` dequeues first; FIFO within a priority class
    (heap ties broken by a monotone sequence).  Delayed re-enqueues
    (retry backoff) sit in a side heap keyed by ready-time and migrate
    into the main heap as they mature.
    """

    def __init__(
        self,
        *,
        max_depth: int = 256,
        tenant_quota: int = 64,
        retry_after: float = 0.5,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.tenant_quota = tenant_quota
        self.retry_after = retry_after
        self._lock = Lock()
        self._ready = Condition(self._lock)
        self._heap: list[tuple[int, int, Job]] = []
        self._delayed: list[tuple[float, int, Job]] = []
        self._seq = itertools.count()
        self._outstanding: dict[str, int] = {}
        #: accepted by offer() but not yet published: counted in depth
        self._held = 0
        self._draining = False
        self.shed = 0
        self.quota_refused = 0

    # -- admission -----------------------------------------------------------

    def offer(self, job: Job) -> Admission:
        """Admit a *new* job, or refuse it with a reason and a hint.

        An admitted job holds its depth and quota slots but is not yet
        queued: :meth:`take` sees it only after :meth:`publish`.
        """
        with self._lock:
            if self._draining:
                return Admission(False, "draining", self.retry_after)
            if self._depth() >= self.max_depth:
                self.shed += 1
                return Admission(False, "shed", self.retry_after)
            if self._outstanding.get(job.tenant, 0) >= self.tenant_quota:
                self.quota_refused += 1
                return Admission(False, "quota", self.retry_after)
            self._outstanding[job.tenant] = (
                self._outstanding.get(job.tenant, 0) + 1
            )
            self._held += 1
            return Admission(True)

    def publish(self, job: Job) -> None:
        """Queue a job :meth:`offer` admitted."""
        with self._lock:
            self._held -= 1
            self._push(job)

    def withdraw(self, job: Job) -> None:
        """Give back the slots of an admitted job that was never
        published."""
        with self._lock:
            self._held -= 1
        self.release(job.tenant)

    def requeue(self, job: Job, *, delay: float = 0.0) -> None:
        """Re-admit an already-accepted job (worker loss / restart).

        Never refused: the job's acceptance was journaled and its quota
        slot is still held.  A positive ``delay`` parks it in the
        retry heap so backoff jitter desynchronizes the herd.
        """
        with self._lock:
            if job.tenant not in self._outstanding:
                # restart recovery path: quota slot was lost with the process
                self._outstanding[job.tenant] = 1
            if delay > 0.0:
                heapq.heappush(
                    self._delayed,
                    (time.monotonic() + delay, next(self._seq), job),
                )
                self._ready.notify()
            else:
                self._push(job)

    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
        self._ready.notify()

    # -- consumption ---------------------------------------------------------

    def take(self, max_n: int, timeout: float) -> list[Job]:
        """Up to ``max_n`` ready jobs; waits ``timeout`` for the first."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                self._mature()
                if self._heap:
                    out: list[Job] = []
                    while self._heap and len(out) < max_n:
                        out.append(heapq.heappop(self._heap)[2])
                    return out
                now = time.monotonic()
                wait = deadline - now
                if wait <= 0:
                    return []
                if self._delayed:
                    wait = min(wait, self._delayed[0][0] - now)
                self._ready.wait(max(wait, 0.001))

    def _mature(self) -> None:
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, _, job = heapq.heappop(self._delayed)
            self._push(job)

    # -- lifecycle accounting ------------------------------------------------

    def release(self, tenant: str) -> None:
        """A job of ``tenant`` went terminal: free its quota slot."""
        with self._lock:
            n = self._outstanding.get(tenant, 0)
            if n <= 1:
                self._outstanding.pop(tenant, None)
            else:
                self._outstanding[tenant] = n - 1

    def start_draining(self) -> None:
        with self._lock:
            self._draining = True
            self._ready.notify_all()

    def depth(self) -> int:
        with self._lock:
            return self._depth()

    def _depth(self) -> int:
        return len(self._heap) + len(self._delayed) + self._held

    def outstanding(self, tenant: str | None = None) -> int:
        with self._lock:
            if tenant is not None:
                return self._outstanding.get(tenant, 0)
            return sum(self._outstanding.values())
