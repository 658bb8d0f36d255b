"""Routing-as-a-service: a supervised, overload-safe routing daemon.

The paper's premise is *run-time* routing — hardware rerouted while the
system is live.  This package makes that premise literal at service
scale: ``repro serve`` runs an asyncio HTTP/JSON front door over a pool
of durable device sessions, scheduling point-to-point route jobs onto
process workers via the batched kernel (PR 7) while the robustness
machinery from earlier PRs (retry, WAL/recovery, deadlines, breakers)
holds the line under concurrent, hostile traffic.

Layering (each module is one layer, lower layers know nothing of upper):

* :mod:`~repro.service.jobs` — the job lifecycle state machine with
  exactly-once terminal accounting.
* :mod:`~repro.service.journal` — the accepted/terminal job journal
  (CRC-framed JSON lines, same torn-tail discipline as the PIP WAL).
* :mod:`~repro.service.queue` — bounded priority admission queue with
  per-tenant quotas and explicit overload shedding.
* :mod:`~repro.service.worker` — the process-worker entry point: one
  recovered :class:`~repro.core.router.JRouter` + WAL shard per worker,
  heartbeats, batch execution, all over the worker's own duplex pipe.
* :mod:`~repro.service.supervisor` — dispatcher/collector/monitor
  threads: work-conserving dispatch (an idle worker gets every queued
  job at once; jobs coalesce only while all workers are busy),
  dead-worker detection, kill+respawn, idempotent re-enqueue,
  per-tenant circuit breakers, graceful drain.
* :mod:`~repro.service.server` — the asyncio HTTP/1.1 front end
  (``repro serve``); SIGTERM drains.
* :mod:`~repro.service.client` — blocking client used by ``repro
  submit`` and the E20 bench.
* :mod:`~repro.service.chaos` — fault injection (worker kills, stalls,
  WAL truncation, fault-model flips) against a live service.
"""

from .chaos import ChaosMonkey
from .client import ServiceClient
from .jobs import Job, JobState
from .journal import JobJournal, recover_jobs
from .queue import Admission, AdmissionQueue
from .server import RoutingService
from .supervisor import RoutingSupervisor, ServiceConfig

__all__ = [
    "Job",
    "JobState",
    "JobJournal",
    "recover_jobs",
    "Admission",
    "AdmissionQueue",
    "RoutingSupervisor",
    "ServiceConfig",
    "RoutingService",
    "ServiceClient",
    "ChaosMonkey",
]
