"""The ``repro analyze`` CLI verb: output modes, exit codes, self-host."""

import json
import os

from repro.analysis import Report
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPRO_SRC = os.path.dirname(
    os.path.abspath(__import__("repro").__file__)
)


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


class TestExitCodes:
    def test_clean_input_exits_zero(self, capsys):
        assert main(["analyze", fx("good_plans.json")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_error_findings_exit_one(self, capsys):
        assert main(["analyze", fx("conflict_plans.json")]) == 1
        assert "RL004" in capsys.readouterr().out

    def test_warnings_pass_by_default_but_fail_strict(self, capsys):
        assert main(["analyze", fx("torn.wal")]) == 0
        assert main(["analyze", "--strict", fx("torn.wal")]) == 1
        capsys.readouterr()

    def test_bad_flag_exits_two(self, capsys):
        assert main(["analyze", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_rule_id_exits_two(self, capsys):
        assert main(["analyze", "--rules", "RPR999"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err


class TestOutput:
    def test_json_output_parses_and_round_trips(self, capsys):
        main(["analyze", "--json", fx("bad_templates.json")])
        out = capsys.readouterr().out
        report = Report.from_json(out)
        assert {f.rule for f in report.findings} == {"RL005", "RL006"}
        assert json.loads(out)["counts"]["RL006"] == 3

    def test_text_output_has_per_rule_summary(self, capsys):
        main(["analyze", fx("conflict_plans.json")])
        out = capsys.readouterr().out
        assert "findings by rule:" in out
        assert "RL004" in out

    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("RL001", "RL009", "RPR001", "RPR006"):
            assert rid in out

    def test_rules_filter_limits_findings(self, capsys):
        main(["analyze", "--json", "--rules", "RL006", fx("bad_templates.json")])
        report = Report.from_json(capsys.readouterr().out)
        assert {f.rule for f in report.findings} == {"RL006"}


class TestDiffAndBaselineFlags:
    BAD_SRC = (
        "def f(heap, deadline):\n"
        "    while heap:\n"
        "        heap.pop()\n"
    )

    def test_unknown_diff_ref_exits_two(self, capsys, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(self.BAD_SRC)
        rc = main(["analyze", "--diff", "no-such-ref-xyz", str(p)])
        assert rc == 2
        assert capsys.readouterr().err

    def test_write_then_apply_baseline_gates_clean(self, capsys, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(self.BAD_SRC)
        bl = tmp_path / "findings.json"
        # the un-baselined sweep fails strict
        assert main(["analyze", "--strict", str(p)]) == 1
        capsys.readouterr()
        main(["analyze", "--write-baseline", str(bl), str(p)])
        capsys.readouterr()
        assert json.loads(bl.read_text())["findings"]
        # with the baseline applied the same tree gates clean...
        assert main(
            ["analyze", "--strict", "--baseline", str(bl), str(p)]
        ) == 0
        capsys.readouterr()
        # ...and the known finding is accounted as suppressed, not hidden
        main(["analyze", "--json", "--baseline", str(bl), str(p)])
        report = Report.from_json(capsys.readouterr().out)
        assert [f.rule for f in report.suppressed] == ["RPR004"]

    def test_missing_baseline_file_exits_two(self, capsys, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(self.BAD_SRC)
        rc = main(["analyze", "--baseline", str(tmp_path / "nope.json"), str(p)])
        assert rc == 2
        capsys.readouterr()


class TestRepeatedInputs:
    """A file listed twice, or inside a listed directory, is analysed once."""

    BAD = fx(os.path.join("code", "bad_rpr002.py"))  # seeded with 2 RPR002

    def _report(self, capsys, *paths: str) -> Report:
        main(["analyze", "--json", *paths])
        return Report.from_json(capsys.readouterr().out)

    def test_a_file_listed_twice(self, capsys):
        report = self._report(capsys, self.BAD, self.BAD)
        assert report.inputs == [self.BAD]
        assert [f.rule for f in report.findings] == ["RPR002", "RPR002"]

    def test_a_directory_and_a_file_inside_it(self, capsys):
        alone = self._report(capsys, fx("code"))
        inside = os.path.join(FIXTURES, "code", os.pardir, "code",
                              "bad_rpr002.py")
        both = self._report(capsys, fx("code"), inside)
        assert both.inputs == alone.inputs
        assert len(both.findings) == len(alone.findings)

    def test_a_baseline_counts_each_finding_once(self, capsys, tmp_path):
        bl = tmp_path / "findings.json"
        main(["analyze", "--write-baseline", str(bl), self.BAD, self.BAD])
        assert len(json.loads(bl.read_text())["findings"]) == 2
        main(["analyze", "--write-baseline", str(bl), self.BAD])
        assert main(
            ["analyze", "--strict", "--baseline", str(bl), self.BAD, self.BAD]
        ) == 0
        capsys.readouterr()


class TestSelfHosting:
    def test_repo_source_is_strict_clean(self, capsys):
        # the merge gate: our own tree must produce zero findings
        assert main(["analyze", "--strict", REPRO_SRC]) == 0
        capsys.readouterr()

    def test_suppressions_are_accounted_not_hidden(self, capsys):
        main(["analyze", "--json", REPRO_SRC])
        report = Report.from_json(capsys.readouterr().out)
        # the justified `# repro: noqa` sites (kernel fast loops, bench
        # accounting, import-time caches) stay visible as suppressed
        assert len(report.suppressed) >= 5
        assert all(f.rule.startswith("RPR") for f in report.suppressed)

    def test_directory_sweep_covers_python_and_artifacts(self, capsys):
        main(["analyze", "--json", FIXTURES])
        report = Report.from_json(capsys.readouterr().out)
        names = {os.path.basename(p) for p in report.inputs}
        assert "regen.py" in names
        assert "good_plans.json" in names
        assert "good.wal" in names
