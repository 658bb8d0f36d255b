"""Finding format: rule-id stability, JSON round-trip, rendering."""

import json

import pytest

from repro.analysis import RULES, Finding, Report, Severity, rule
from repro.analysis.findings import SCHEMA_VERSION

# The catalog is a public contract: suppression comments, CI summaries
# and editor integrations key on these exact ids.  Adding a rule extends
# this table; changing or reusing an id is a breaking change.
EXPECTED_RULES = {
    "RL001": ("artifact", "unknown-wire", Severity.ERROR),
    "RL002": ("artifact", "missing-pip", Severity.ERROR),
    "RL003": ("artifact", "undrivable-target", Severity.ERROR),
    "RL004": ("artifact", "drive-conflict", Severity.ERROR),
    "RL005": ("artifact", "illegal-template-step", Severity.ERROR),
    "RL006": ("artifact", "dead-template-entry", Severity.WARNING),
    "RL007": ("artifact", "wal-frame", Severity.ERROR),
    "RL008": ("artifact", "replay-illegal", Severity.ERROR),
    "RL009": ("artifact", "checkpoint-inconsistent", Severity.ERROR),
    "RL010": ("artifact", "plan-routing-loop", Severity.ERROR),
    "RPR001": ("code", "id-keyed-cache", Severity.ERROR),
    "RPR002": ("code", "unguarded-global-mutation", Severity.ERROR),
    "RPR003": ("code", "pool-in-loop", Severity.WARNING),
    "RPR004": ("code", "deadline-poll-missing", Severity.WARNING),
    "RPR005": ("code", "shm-create-without-unlink", Severity.ERROR),
    "RPR006": ("code", "swallowed-exception", Severity.WARNING),
    "RPR007": ("code", "per-element-array-loop", Severity.WARNING),
    "RPR008": ("code", "blocking-call-in-async", Severity.ERROR),
    "RPR009": ("code", "transitive-blocking-in-async", Severity.ERROR),
    "RPR010": ("code", "lock-order-inversion", Severity.ERROR),
    "RPR011": ("code", "spawn-lost-global-mutation", Severity.WARNING),
    "RPR012": ("code", "resource-path-leak", Severity.WARNING),
    "RPR013": ("code", "unused-suppression", Severity.INFO),
}


class TestRuleCatalog:
    def test_catalog_is_exactly_the_published_set(self):
        assert set(RULES) == set(EXPECTED_RULES)

    def test_ids_layers_severities_are_stable(self):
        for rid, (layer, name, severity) in EXPECTED_RULES.items():
            r = rule(rid)
            assert (r.layer, r.name, r.severity) == (layer, name, severity)

    def test_every_rule_has_a_summary(self):
        assert all(r.summary for r in RULES.values())

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            rule("RPR999")


class TestFinding:
    def _sample(self):
        return Finding.make(
            "RL004",
            Severity.ERROR,
            "wire driven twice",
            hint="reroute one net",
            file="plans.json",
            at=(5, 7),
            wire="Out[1]",
            plan="n0",
            step=3,
        )

    def test_round_trip_is_lossless(self):
        f = self._sample()
        assert Finding.from_dict(f.to_dict()) == f

    def test_round_trip_through_json_text(self):
        f = self._sample()
        assert Finding.from_dict(json.loads(json.dumps(f.to_dict()))) == f

    def test_code_finding_round_trip(self):
        f = Finding.make(
            "RPR001", Severity.ERROR, "id key", file="x.py", line=3, col=8
        )
        assert Finding.from_dict(f.to_dict()) == f

    def test_at_expands_to_row_col_context(self):
        f = self._sample()
        ctx = dict(f.context)
        assert ctx["row"] == 5 and ctx["col"] == 7

    def test_context_key_order_is_pinned(self):
        a = Finding.make("RL001", Severity.ERROR, "m", at=(1, 2), wire="w")
        b = Finding.make("RL001", Severity.ERROR, "m", wire="w", at=(1, 2))
        assert a == b

    def test_unknown_context_key_rejected(self):
        with pytest.raises(ValueError):
            Finding.make("RL001", Severity.ERROR, "m", bogus=1)
        with pytest.raises(ValueError):
            Finding.from_dict(
                {
                    "rule": "RL001",
                    "severity": "error",
                    "message": "m",
                    "context": {"bogus": 1},
                }
            )

    def test_render_contains_the_essentials(self):
        text = self._sample().render()
        assert "RL004" in text
        assert "error" in text
        assert "row=5" in text and "col=7" in text
        assert "hint:" in text

    def test_code_location_renders_one_based_column(self):
        f = Finding.make(
            "RPR001", Severity.ERROR, "m", file="x.py", line=3, col=0
        )
        assert f.location().startswith("x.py:3:1")


class TestReport:
    def _report(self):
        r = Report(inputs=["a.py", "b.json"])
        r.add(Finding.make("RPR006", Severity.WARNING, "w", file="a.py", line=9))
        r.add(Finding.make("RL001", Severity.ERROR, "e", file="b.json"))
        r.suppressed.append(
            Finding.make("RPR004", Severity.WARNING, "s", file="a.py", line=2)
        )
        return r

    def test_json_round_trip(self):
        r = self._report()
        r2 = Report.from_json(r.to_json())
        assert r2.findings == r.findings
        assert r2.suppressed == r.suppressed
        assert r2.inputs == r.inputs

    def test_json_carries_schema_version_and_counts(self):
        body = json.loads(self._report().to_json())
        assert body["version"] == SCHEMA_VERSION
        assert body["counts"] == {"RL001": 1, "RPR006": 1}

    def test_wrong_schema_version_rejected(self):
        body = json.loads(self._report().to_json())
        body["version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            Report.from_json(json.dumps(body))

    def test_worst_and_counts(self):
        r = self._report()
        assert r.worst() is Severity.ERROR
        assert Report().worst() is None

    def test_sort_orders_by_location_then_rule(self):
        r = self._report()
        r.sort()
        assert [f.file for f in r.findings] == ["a.py", "b.json"]

    def test_render_text_summarises_by_rule(self):
        text = self._report().render_text()
        assert "findings by rule:" in text
        assert "suppressed: 1" in text
        assert "2 finding(s) across 2 input(s)" in text
