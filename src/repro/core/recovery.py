"""Rip-up/retry recovery for failed routing requests.

The paper stops at "a user action is required" when a route fails; this
module supplies that action automatically, in the congestion-driven
rip-up/retry tradition (cf. Zang et al., *An Open-Source Fast Parallel
Routing Approach for Commercial FPGAs*): when a request is unroutable,
rip up the cheapest net blocking its bounding box, route the original
request through the freed resources, then re-route the victim — all
inside a :class:`~repro.core.txn.RouteTransaction` so a failed recovery
round leaves the device untouched.

:class:`RetryPolicy` bounds the effort (attempts and search-budget
growth); :class:`RoutingReport` records what happened (attempts, ripped
nets, faults avoided) for observability.  :class:`CircuitBreaker` layers
degradation on top: a net whose requests repeatedly trip their
cooperative deadline (:mod:`repro.core.deadline`) is taken out of
rotation so it cannot consume the service's whole budget on every retry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from threading import Lock
from typing import Callable, Hashable

from ..device.fabric import Device
from .kernel import SearchStats

__all__ = ["RetryPolicy", "RoutingReport", "CircuitBreaker", "select_victim"]

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, stateless 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


@dataclass(slots=True, frozen=True)
class RetryPolicy:
    """Bounds for the rip-up/retry loop.

    Attributes
    ----------
    max_attempts:
        Total route attempts, including the first (1 = no recovery).
    expansion_factor:
        Multiplier applied to the maze node budget on every retry, so
        later attempts search harder as well as on a freer fabric.
    bbox_margin:
        CLBs added around the failed request's bounding box when looking
        for blocking victim nets.
    backoff_base:
        Seconds of the *first* retry's backoff window.  The default 0.0
        keeps the historical behaviour: retries run back to back with no
        pause.  A service retrying many clients' requests should set
        this so simultaneous failures do not re-arrive in lockstep.
    backoff_cap:
        Upper bound on any single backoff window, whatever the attempt
        number (the exponential growth saturates here).
    jitter_seed:
        Seed of the deterministic jitter stream.  Two policies with the
        same seed produce the same delays for the same ``(token,
        attempt)`` — reproducible tests — while different tokens (e.g.
        per-job sequence numbers) decorrelate concurrent retriers.
    """

    max_attempts: int = 3
    expansion_factor: float = 2.0
    bbox_margin: int = 2
    backoff_base: float = 0.0
    backoff_cap: float = 2.0
    jitter_seed: int = 0

    def budget_for(self, attempt: int, base_nodes: int) -> int:
        """Maze expansion budget for 1-based ``attempt``."""
        return int(base_nodes * self.expansion_factor ** (attempt - 1))

    def backoff_for(self, attempt: int, *, token: int = 0) -> float:
        """Seconds to wait before 1-based ``attempt`` (0 for the first).

        Full jitter over an exponentially growing window: the delay is
        drawn uniformly from ``[0, min(backoff_cap, backoff_base *
        2**(attempt - 2)))`` by a splitmix64 hash of ``(jitter_seed,
        token, attempt)``.  Stateless and deterministic, so simultaneous
        retriers with distinct tokens spread out instead of thundering
        back in phase — and a test can pin the exact schedule.
        """
        if attempt <= 1 or self.backoff_base <= 0.0:
            return 0.0
        window = min(self.backoff_cap, self.backoff_base * 2.0 ** (attempt - 2))
        h = _mix64(_mix64(self.jitter_seed & _M64) ^ (token & _M64))
        h = _mix64(h ^ attempt)
        return window * (h / float(1 << 64))


@dataclass(slots=True)
class RoutingReport:
    """Structured account of one routing request, recovered or failed.

    Surfaced as :attr:`repro.core.router.JRouter.last_report` after every
    level-4/5/6 ``route`` call, every ``route_p2p_batch`` call and every
    ``route_nets`` call, with or without a retry policy.
    """

    #: route attempts made, including the successful one
    attempts: int = 0
    #: source canonical ids of nets ripped up and re-routed
    ripped_nets: list[int] = field(default_factory=list)
    #: PIPs on the device added by the final successful attempt
    pips_added: int = 0
    #: whether the original request was ultimately satisfied
    success: bool = False
    #: stringified error of each failed attempt, in order
    failures: list[str] = field(default_factory=list)
    #: kernel instrumentation of the request's searches, failed ones
    #: included: the request's only search counter
    search_stats: SearchStats = field(default_factory=SearchStats)
    #: the request was abandoned because its deadline expired; the report
    #: is then *partial*: it describes the work done up to the trip
    timed_out: bool = False
    #: the request was refused without searching because its net's
    #: circuit breaker is open (too many deadline trips)
    breaker_open: bool = False

    @property
    def faults_avoided(self) -> int:
        """Faulty edges the request's searches masked out, all attempts."""
        return self.search_stats.faults_avoided

    def summary(self) -> str:
        """One-line operator-facing rendering."""
        if self.breaker_open:
            state = "REFUSED (circuit breaker open)"
        elif self.timed_out:
            state = "TIMED OUT"
        else:
            state = "ok" if self.success else "FAILED"
        return (
            f"{state}: {self.attempts} attempt(s), "
            f"{len(self.ripped_nets)} net(s) ripped, "
            f"{self.faults_avoided} fault(s) avoided, "
            f"{self.pips_added} PIPs added [{self.search_stats.summary()}]"
        )


@dataclass(slots=True)
class _BreakerEntry:
    """Per-key breaker bookkeeping (guarded by the breaker's lock)."""

    trips: int = 0
    #: monotonic instant the breaker opened (None while closed, or in
    #: latched mode where the open state has no clock)
    opened_at: float | None = None
    #: current cooldown window in seconds (escalates on probe failure)
    cooldown: float = 0.0
    #: a half-open probe has been admitted and has not yet resolved
    probing: bool = False


class CircuitBreaker:
    """Per-key trip counter that stops re-attempting hopeless requests.

    A key — a net's canonical source id, or a service tenant name —
    "trips" when a routing request for it is abandoned on a deadline.
    After ``max_trips`` consecutive trips the breaker *opens* for that
    key: further requests are refused immediately (a
    :class:`RoutingReport` with ``breaker_open=True``) without spending
    any search budget.  A successful route closes the breaker again, as
    does an explicit :meth:`reset` (e.g. after the operator frees
    congested resources).

    Two operating modes:

    * **latched** (``cooldown_s=None``, the default): an open breaker
      stays open until a success or a reset — the original behaviour.
    * **half-open probing** (``cooldown_s`` set): an open breaker
      refuses requests for the cooldown window, then goes *half-open*
      and admits exactly one probe (:meth:`is_open` returns False once;
      concurrent callers keep seeing True until the probe resolves).  A
      probe success closes the breaker; a probe failure
      (:meth:`record_trip`) re-opens it with the cooldown multiplied by
      ``escalation``, capped at ``max_cooldown_s``.

    All methods are thread-safe: a service's admission path and its
    result collector may hit the same key concurrently.
    """

    __slots__ = (
        "max_trips", "cooldown_s", "escalation", "max_cooldown_s",
        "_clock", "_lock", "_entries",
    )

    def __init__(
        self,
        max_trips: int = 3,
        *,
        cooldown_s: float | None = None,
        escalation: float = 2.0,
        max_cooldown_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_trips < 1:
            raise ValueError("max_trips must be >= 1")
        if cooldown_s is not None and cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive (or None)")
        if escalation < 1.0:
            raise ValueError("escalation must be >= 1.0")
        self.max_trips = max_trips
        self.cooldown_s = cooldown_s
        self.escalation = escalation
        self.max_cooldown_s = max_cooldown_s
        self._clock = clock
        self._lock = Lock()
        self._entries: dict[Hashable, _BreakerEntry] = {}

    def record_trip(self, net: Hashable) -> None:
        """Count one deadline trip against ``net``."""
        with self._lock:
            e = self._entries.setdefault(net, _BreakerEntry())
            e.trips += 1
            if self.cooldown_s is None:
                return
            if e.probing:
                # the half-open probe failed: re-open, escalated
                e.probing = False
                e.cooldown = min(
                    e.cooldown * self.escalation, self.max_cooldown_s
                )
                e.opened_at = self._clock()
            elif e.trips >= self.max_trips and e.opened_at is None:
                e.cooldown = self.cooldown_s
                e.opened_at = self._clock()

    def record_success(self, net: Hashable) -> None:
        """A successful route closes the net's breaker."""
        with self._lock:
            self._entries.pop(net, None)

    def probe_abort(self, net: Hashable) -> None:
        """The admitted half-open probe never ran (or proved nothing).

        :meth:`is_open` hands out exactly one probe and then answers
        True until it resolves — so a probe that is shed at admission,
        refused by a quota, or fails for a reason unrelated to the trips
        that opened the breaker must be *returned*, or the key is locked
        out forever.  Re-opens for the current (un-escalated) cooldown;
        a no-op unless a probe is actually outstanding.
        """
        with self._lock:
            e = self._entries.get(net)
            if e is None or not e.probing:
                return
            e.probing = False
            e.opened_at = self._clock()

    def is_open(self, net: Hashable) -> bool:
        """Should requests for ``net`` be refused without searching?

        In half-open-probing mode this call *admits* the probe: the
        first caller after the cooldown elapses sees False (and is
        expected to follow up with :meth:`record_success` or
        :meth:`record_trip`); everyone else keeps seeing True.
        """
        with self._lock:
            e = self._entries.get(net)
            if e is None or e.trips < self.max_trips:
                return False
            if self.cooldown_s is None or e.opened_at is None:
                return True  # latched open
            if e.probing:
                return True  # one probe is already out
            if self._clock() - e.opened_at >= e.cooldown:
                e.probing = True  # half-open: admit exactly one probe
                return False
            return True

    def state(self, net: Hashable) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (observability)."""
        with self._lock:
            e = self._entries.get(net)
            if e is None or e.trips < self.max_trips:
                return "closed"
            if (
                self.cooldown_s is not None
                and e.opened_at is not None
                and (
                    e.probing
                    or self._clock() - e.opened_at >= e.cooldown
                )
            ):
                return "half_open"
            return "open"

    def retry_after(self, net: Hashable) -> float:
        """Seconds until the key's breaker will admit a probe (0 when
        closed, half-open, or latched without a cooldown clock)."""
        with self._lock:
            e = self._entries.get(net)
            if (
                e is None
                or e.trips < self.max_trips
                or self.cooldown_s is None
                or e.opened_at is None
                or e.probing
            ):
                return 0.0
            return max(0.0, e.opened_at + e.cooldown - self._clock())

    def trips(self, net: Hashable) -> int:
        """Consecutive deadline trips recorded against ``net``."""
        with self._lock:
            e = self._entries.get(net)
            return 0 if e is None else e.trips

    def open_nets(self) -> list:
        """Keys whose breakers are currently open (or half-open)."""
        with self._lock:
            return sorted(
                n for n, e in self._entries.items()
                if e.trips >= self.max_trips
            )

    def reset(self, net: Hashable | None = None) -> None:
        """Forget trips for ``net``, or for every key when None."""
        with self._lock:
            if net is None:
                self._entries.clear()
            else:
                self._entries.pop(net, None)


def select_victim(
    device: Device,
    nets: dict[int, set[int]],
    tiles: list[tuple[int, int]],
    *,
    margin: int = 2,
    exclude: frozenset[int] = frozenset(),
) -> int | None:
    """Pick the net to rip up for a request spanning ``tiles``.

    Scans the recorded ``nets`` (source canon -> sink canons) for nets
    whose routed wires intersect the request's bounding box (grown by
    ``margin``) and returns the source of the lowest-fanout one, with
    the smallest routed tree as tie-break — the cheapest net to evict
    and re-route.  Returns None when no recorded net blocks the box.
    """
    if not tiles:
        return None
    rmin = min(r for r, _ in tiles) - margin
    rmax = max(r for r, _ in tiles) + margin
    cmin = min(c for _, c in tiles) - margin
    cmax = max(c for _, c in tiles) + margin
    arch = device.arch
    best: tuple[int, int, int] | None = None
    for source, sinks in nets.items():
        if source in exclude:
            continue
        tree = list(device.state.subtree(source))
        if len(tree) <= 1:
            continue  # nothing routed under this source
        blocking = False
        for w in tree:
            r, c, _ = arch.primary_name(w)
            if rmin <= r <= rmax and cmin <= c <= cmax:
                blocking = True
                break
        if not blocking:
            continue
        key = (len(sinks), len(tree), source)
        if best is None or key < best:
            best = key
    return best[2] if best is not None else None
