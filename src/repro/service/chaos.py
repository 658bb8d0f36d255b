"""Chaos harness: hostile conditions against a *live* service.

Four injections, all drawn from one seeded RNG so a chaos run is
reproducible end to end:

* **kill** — ``SIGKILL`` a random worker mid-batch.  The monitor must
  detect it, respawn it (which recovers the worker's WAL shard), and
  re-enqueue its in-flight jobs; the E20 gate then checks that every
  accepted job still reached a terminal state exactly once.
* **truncate** — between a kill and its respawn, chop bytes off the
  dead worker's WAL tail, forging the torn write of a crash at an
  arbitrary byte offset; recovery must shrug (the WAL scanner tolerates
  exactly this and nothing else).
* **stall** — tell a worker to sleep through its next batch.  No
  heartbeats flow while it sleeps, so the supervisor's miss window must
  fire and treat it as dead — hung and killed are the same failure.
* **fault flip** — swap the worker's device fault model for a seeded
  random one mid-flight, forcing searches to re-mask and proving a
  changing fabric does not wedge the pipeline.

The monkey never touches supervisor internals beyond its public
``kill_worker`` / ``send_chaos`` hooks, so everything it can do, an
operator's fat finger or a real fault could do too.
"""

from __future__ import annotations

import os
import random
import time

from .supervisor import RoutingSupervisor

__all__ = ["ChaosMonkey", "truncate_tail"]


def truncate_tail(path: str, nbytes: int) -> int:
    """Chop up to ``nbytes`` off a file's tail; returns bytes removed."""
    if not os.path.exists(path):
        return 0
    size = os.path.getsize(path)
    cut = min(nbytes, max(0, size - 1))
    if cut > 0:
        with open(path, "rb+") as fh:
            fh.truncate(size - cut)
    return cut


class ChaosMonkey:
    """Injects seeded failures into a live service, one per call."""

    def __init__(
        self,
        supervisor: RoutingSupervisor,
        *,
        seed: int = 0,
        kill: bool = True,
        stall_s: float = 0.0,
        truncate_bytes: int = 0,
        fault_rate: float | None = None,
    ) -> None:
        self.supervisor = supervisor
        self.rng = random.Random(seed)
        self.kill = kill
        self.stall_s = stall_s
        self.truncate_bytes = truncate_bytes
        self.fault_rate = fault_rate
        self.events: list[dict] = []

    def inject_kill(self, wid: int | None = None) -> dict:
        wid = self._pick(wid)
        mutate = None
        cut = self.truncate_bytes
        if cut > 0 and self.rng.random() < 0.5:

            def mutate(wal_path: str, _cut=cut) -> None:
                truncate_tail(wal_path, self.rng.randrange(1, _cut + 1))

        self.supervisor.kill_worker(wid, reason="chaos-kill", mutate=mutate)
        return self._log("kill", wid=wid, truncated=mutate is not None)

    def inject_stall(self, wid: int | None = None) -> dict:
        wid = self._pick(wid)
        ok = self.supervisor.send_chaos(wid, {"stall_s": self.stall_s})
        return self._log("stall", wid=wid, delivered=ok, stall_s=self.stall_s)

    def inject_fault_flip(self, wid: int | None = None) -> dict:
        wid = self._pick(wid)
        ok = self.supervisor.send_chaos(
            wid,
            {
                "fault_rate": self.fault_rate,
                "fault_seed": self.rng.randrange(1 << 16),
            },
        )
        return self._log("fault_flip", wid=wid, delivered=ok)

    def _pick(self, wid: int | None) -> int:
        if wid is None:
            wid = self.rng.randrange(self.supervisor.config.workers)
        return wid

    def _log(self, action: str, **detail) -> dict:
        ev = {"action": action, "t": time.monotonic(), **detail}
        self.events.append(ev)
        return ev

    def inject(self) -> dict:
        """One injection of an enabled kind, picked by the seeded generator."""
        actions = []
        if self.kill:
            actions.append(self.inject_kill)
        if self.stall_s > 0.0:
            actions.append(self.inject_stall)
        if self.fault_rate is not None:
            actions.append(self.inject_fault_flip)
        return self.rng.choice(actions)()
