"""One rulebook: the dry runs and the artifact linter refuse exactly the
steps the device refuses, for the same reason.

``Device.turn_on``/``turn_off`` on a fresh device are the oracle.  Each
step is judged against the earlier accepted steps (a refused step
changes nothing), and three tools must flag the same steps:
``path_conflicts`` (a dry run on a live device), ``lint_plans`` (a plan
file) and ``lint_wal_file`` (a journal of the same events).
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.analysis import routelint
from repro.arch import wires
from repro.arch.virtex import VirtexArch
from repro.core.wal import WriteAheadLog
from repro.device.contention import path_conflicts
from repro.device.fabric import Device
from repro.device.state import PipRecord

ARCH = VirtexArch("XCV50")

# the loop of the drift example: each single drives the other at (5,7)
LOOP_PLAN = [
    (5, 7, wires.SINGLE_E[0], wires.SINGLE_N[0]),
    (5, 7, wires.SINGLE_N[0], wires.SINGLE_E[0]),
]


def _pool() -> list[tuple[int, int, int, int]]:
    """Every PIP among a few wires around tile (5,7), from the device's
    own fan-out and fan-in: dense enough that random sequences hit
    second drivers and cycles."""
    device = Device("XCV50")
    names = [
        wires.SINGLE_E[0], wires.SINGLE_E[1], wires.SINGLE_N[0],
        wires.SINGLE_N[1], wires.SINGLE_W[0], wires.SINGLE_S[0],
        wires.OUT[0], wires.OUT[1],
    ]
    near = {
        canon
        for r, c in ((5, 7), (5, 8), (6, 7))
        for n in names
        if (canon := ARCH.canonicalize(r, c, n)) is not None
    }
    pips = set()
    for w in near:
        for r, c, f, t, canon_to in device.fanout_pips(w):
            if canon_to in near:
                pips.add((r, c, f, t))
        for r, c, f, t, canon_from in device.fanin_pips(w):
            if canon_from in near:
                pips.add((r, c, f, t))
    return sorted(pips)


LEGAL = _pool()
ILLEGAL = [
    (5, 7, wires.OUT[0], wires.OUT[1]),  # no such PIP
    (5, 7, wires.OUT[0], wires.HEX_W[1]),  # odd hex from its far end
    (5, ARCH.cols - 1, wires.OUT[0], wires.SINGLE_E[0]),  # off the array
]

#: one step: (turn it on?, PIP); turn-offs name legal PIPs only
events = st.lists(
    st.one_of(
        st.tuples(st.just(True), st.sampled_from(LEGAL)),
        st.tuples(st.just(True), st.sampled_from(ILLEGAL)),
        st.tuples(st.just(False), st.sampled_from(LEGAL)),
    ),
    min_size=1,
    max_size=14,
)


def device_refusals(steps) -> dict[int, str]:
    """Step index -> why a fresh device refused it."""
    device = Device("XCV50")
    out: dict[int, str] = {}
    for i, (on, pip) in enumerate(steps):
        try:
            (device.turn_on if on else device.turn_off)(*pip)
        except errors.ContentionError:
            out[i] = "contention"
        except errors.RoutingLoopError:
            out[i] = "loop"
        except (errors.InvalidPipError, errors.InvalidResourceError):
            out[i] = "illegal" if on else "not-on"
    return out


_KIND = {"RL001": "illegal", "RL002": "illegal", "RL003": "illegal",
         "RL004": "contention", "RL010": "loop"}


def lint_refusals(plan) -> dict[int, str]:
    findings = routelint.lint_plans(ARCH, [("p", plan)])
    return {dict(f.context)["step"]: _KIND[f.rule] for f in findings}


def wal_refusals(steps) -> dict[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "session.wal")
        with WriteAheadLog(path, part="XCV50") as wal:
            for on, (r, c, f, t) in steps:
                wal.append((on, PipRecord(r, c, f, t, -1, -1)))
        findings = routelint.lint_wal_file(path)
    out: dict[int, str] = {}
    for f in findings:
        if f.rule == "RL008":
            if "not on" in f.message:
                kind = "not-on"
            elif "routing loop" in f.message:
                kind = "loop"
            else:
                kind = "contention"
        else:
            kind = _KIND[f.rule]
        out[dict(f.context)["seq"]] = kind
    return out


class TestDriftExample:
    def test_path_conflicts_returns_the_loop_step(self):
        assert path_conflicts(Device("XCV50"), LOOP_PLAN) == [LOOP_PLAN[1]]

    def test_lint_plans_reports_the_loop_as_an_error(self):
        findings = routelint.lint_plans(ARCH, [("n", LOOP_PLAN)])
        assert [(f.rule, f.severity.name, dict(f.context)["step"])
                for f in findings] == [("RL010", "ERROR", 1)]

    def test_path_conflicts_changes_nothing(self):
        device = Device("XCV50")
        seen = []
        device.add_listener(seen.append)
        path_conflicts(device, LOOP_PLAN + LEGAL)
        assert seen == [] and device.state.n_pips_on == 0


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events)
def test_every_tool_refuses_what_the_device_refuses(steps):
    plan = [pip for on, pip in steps if on]
    plan_refused = device_refusals([(True, pip) for pip in plan])
    assert path_conflicts(Device("XCV50"), plan) == [
        plan[i] for i in sorted(plan_refused)
    ]
    assert lint_refusals(plan) == plan_refused
    assert wal_refusals(steps) == device_refusals(steps)
