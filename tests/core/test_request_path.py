"""One request path: levels 4-6 run the same loop with or without a policy.

``JRouter(retry=None)`` makes one attempt of the rip-up/retry loop that
``RetryPolicy(max_attempts=1)`` runs, so the two must agree on every
outcome: return value or error, report and device state.  The report's
``faults_avoided`` is read from its own ``search_stats`` on every
request kind.  A failed atomic request undoes each PIP it turned on
exactly once.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import errors
from repro.arch import wires
from repro.arch.virtex import VirtexArch
from repro.core.endpoints import Pin
from repro.core.recovery import RetryPolicy
from repro.core.router import JRouter
from repro.core.wal import DurableSession, iter_wal_frames
from repro.device.faults import FaultModel

SRC = Pin(5, 7, wires.S1_YQ)
SRC2 = Pin(3, 3, wires.S0_X)
SINK = Pin(6, 8, wires.S0F[3])
SINK2 = Pin(9, 12, wires.S0G[1])
OFF_CHIP = Pin(99, 99, wires.S0F[3])

#: level -> the route() arguments that end at ``sink``
CALLS = {
    4: lambda sink: (SRC, sink),
    5: lambda sink: (SRC, [SINK2, sink]),
    6: lambda sink: ([SRC2, SRC], [SINK2, sink]),
}


def _outcome(level: int, case: str, retry: RetryPolicy | None):
    router = JRouter(
        part="XCV50",
        attach_jbits=False,
        retry=retry,
        deadline_ms=0.0 if case == "deadline" else None,
    )
    sink = OFF_CHIP if case == "off_chip" else SINK
    if case == "contention":
        router.route(Pin(2, 2, wires.S0_X), SINK)  # another net drives it
    try:
        result = ("returned", router.route(*CALLS[level](sink)))
    except errors.JRouteError as exc:
        result = (type(exc).__name__, str(exc))
    rep = router.last_report
    report = (
        rep.attempts, rep.ripped_nets, rep.faults_avoided, rep.pips_added,
        rep.success, rep.failures, rep.search_stats.as_dict(),
        rep.timed_out, rep.breaker_open,
    )
    return result, report, router.device.state.fingerprint()


@pytest.mark.parametrize("case", ["success", "contention", "off_chip", "deadline"])
@pytest.mark.parametrize("level", [4, 5, 6])
def test_no_policy_is_one_attempt_of_the_retry_loop(level, case):
    plain = _outcome(level, case, None)
    assert plain == _outcome(level, case, RetryPolicy(max_attempts=1))
    (kind, value), report, _ = plain
    expected = {
        "success": "returned",
        "contention": "ContentionError",
        "off_chip": "InvalidResourceError",
        "deadline": "returned",
    }
    assert kind == expected[case]
    if case == "success":
        assert value > 0 and report[4]
    else:
        assert report[5], "every failure is recorded in the report"
    if case == "deadline":
        assert value == 0 and report[7]


@pytest.mark.parametrize("kind", ["level4", "level5", "level6", "batch", "nets"])
def test_faults_avoided_is_read_from_the_reports_search_stats(kind):
    router = JRouter(
        part="XCV50",
        attach_jbits=False,
        try_templates=False,
        faults=FaultModel.random(VirtexArch("XCV50"), seed=3, stuck_open_rate=0.05),
    )
    if kind == "level4":
        assert router.route(SRC, SINK) > 0
    elif kind == "level5":
        assert router.route(SRC, [SINK, SINK2]) > 0
    elif kind == "level6":
        assert router.route([SRC, SRC2], [SINK, SINK2]) > 0
    elif kind == "batch":
        outs = router.route_p2p_batch([(SRC, SINK), (SRC2, SINK2)])
        assert all(o.success for o in outs)
    else:
        assert router.route_nets([(SRC, SINK), (SRC2, SINK2)]).converged
    report = router.last_report
    assert report.success
    assert report.faults_avoided == report.search_stats.faults_avoided > 0


@pytest.mark.parametrize("level", [5, 6])
def test_failed_atomic_request_turns_each_pip_on_and_off_once(level, tmp_path):
    """The near sink (or first bit) routes, the far one is a dead wire.

    The request's own rollback and its transaction's must not both undo
    the routed PIPs: each turns on once and off once, so the WAL holds
    two records per PIP.
    """
    arch = VirtexArch("XCV50")
    far = Pin(14, 20, wires.S0F[1])
    dead = arch.canonicalize(far.row, far.col, far.wire)
    router = JRouter(part="XCV50", faults=FaultModel(arch, dead_wires=(dead,)))
    events: Counter = Counter()
    router.device.add_listener(lambda event: events.update([event]))
    wal_path = str(tmp_path / "session.wal")
    with DurableSession(router, wal_path):
        with pytest.raises(errors.UnroutableError):
            router.route(*CALLS[level](far))
    ons = Counter({rec: n for (on, rec), n in events.items() if on})
    offs = Counter({rec: n for (on, rec), n in events.items() if not on})
    assert ons, "the near sink routed before the far one failed"
    assert ons == offs and set(ons.values()) == {1}
    _, frames = iter_wal_frames(wal_path)
    assert sum(f.record is not None for f in frames) == 2 * len(ons)
    assert router.device.state.check_invariants() == []
    assert router.device.state.n_pips_on == 0
