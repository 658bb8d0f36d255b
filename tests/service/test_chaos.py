"""ChaosMonkey's seeded single injections, against a fake supervisor."""

from types import SimpleNamespace

from repro.service.chaos import ChaosMonkey


class _FakeSupervisor:
    """Records the two public hooks the monkey may call."""

    config = SimpleNamespace(workers=2)

    def __init__(self):
        self.calls = []

    def kill_worker(self, wid, *, reason, mutate=None):
        self.calls.append(("kill", wid))
        if mutate is not None:
            mutate("")  # no shard file, so truncate_tail cuts nothing

    def send_chaos(self, wid, knobs):
        self.calls.append(("chaos", wid, tuple(sorted(knobs))))
        return True


def _run(seed, n=24, **kinds):
    sup = _FakeSupervisor()
    monkey = ChaosMonkey(sup, seed=seed, **kinds)
    actions = [monkey.inject()["action"] for _ in range(n)]
    assert [e["action"] for e in monkey.events] == actions
    return actions, sup.calls


def test_inject_is_reproducible_from_the_seed():
    kinds = dict(kill=True, stall_s=2.5, truncate_bytes=256, fault_rate=0.02)
    first = _run(7, **kinds)
    assert _run(7, **kinds) == first
    assert set(first[0]) == {"kill", "stall", "fault_flip"}


def test_inject_draws_only_enabled_kinds():
    actions, calls = _run(3, kill=False, stall_s=1.0)
    assert set(actions) == {"stall"}
    assert all(call[0] == "chaos" for call in calls)
