"""The fabric-aware artifact linter: each RL rule fires on a known-bad
artifact and stays silent on a known-good one.

WAL/checkpoint cases run against the committed fixtures in
``fixtures/`` (regenerate with ``python tests/analysis/fixtures/regen.py``).
"""

import os

import pytest

from repro.analysis import plans as planio
from repro.analysis import routelint
from repro.analysis.findings import Severity
from repro.arch import wires
from repro.arch.templates import TemplateValue as T
from repro.core.path import Path

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fx_text(name: str) -> str:
    with open(fx(name)) as fh:
        return fh.read()


def rules_of(findings) -> list[str]:
    return sorted({f.rule for f in findings})


class TestPlanLint:
    def test_legal_corpus_is_clean(self, arch):
        _, named = planio.load_plans(fx_text("good_plans.json"))
        assert routelint.lint_plans(arch, named) == []

    def test_rl001_unknown_wire(self, arch):
        bad = [(5, 7, 10 ** 6, wires.OUT[1])]
        assert rules_of(routelint.lint_plan(arch, bad)) == ["RL001"]

    def test_rl001_wire_absent_at_tile(self, arch):
        # the east edge owns no eastbound single at its last column
        bad = [(5, arch.cols - 1, wires.OUT[0], wires.SINGLE_E[0])]
        f = routelint.lint_plan(arch, bad)
        assert f and all(x.severity is Severity.ERROR for x in f)

    def test_rl002_missing_pip(self, arch):
        bad = [(5, 7, wires.OUT[0], wires.OUT[1])]
        assert rules_of(routelint.lint_plan(arch, bad)) == ["RL002"]

    def test_rl003_undrivable_target(self, arch):
        # odd hexes are unidirectional: the pip exists, but HexWest[1]
        # cannot be driven from its far (west-name) end
        bad = [(5, 7, wires.OUT[0], wires.HEX_W[1])]
        assert rules_of(routelint.lint_plan(arch, bad)) == ["RL003"]

    def test_rl004_conflicting_plan_pair_fixture(self, arch):
        _, named = planio.load_plans(fx_text("conflict_plans.json"))
        f = routelint.lint_plans(arch, named)
        assert rules_of(f) == ["RL004"]
        # the conflict names both plans involved
        assert any("conflict-seed" in x.message for x in f)

    def test_rl004_within_a_single_plan(self, arch):
        canon = arch.canonicalize(5, 7, wires.SINGLE_E[0])
        assert canon is not None
        pips = [
            (5, 7, wires.OUT[0], wires.SINGLE_E[0]),
            (5, 7, wires.OUT[2], wires.SINGLE_E[0]),
        ]
        assert rules_of(routelint.lint_plan(arch, pips)) == ["RL004"]

    def test_same_driver_twice_is_not_a_conflict(self, arch):
        pips = [
            (5, 7, wires.OUT[0], wires.SINGLE_E[0]),
            (5, 7, wires.OUT[0], wires.SINGLE_E[0]),
        ]
        assert routelint.lint_plan(arch, pips) == []


class TestPathLint:
    def test_legal_path_is_clean(self, arch):
        p = Path(5, 7, [wires.OUT[0], wires.SINGLE_E[0]])
        assert routelint.lint_path(arch, p) == []

    def test_rl001_bad_start(self, arch):
        p = Path(5, arch.cols - 1, [wires.SINGLE_E[0], wires.OUT[0]])
        assert rules_of(routelint.lint_path(arch, p)) == ["RL001"]

    def test_rl002_unreachable_step(self, arch):
        p = Path(5, 7, [wires.OUT[0], wires.OUT[3]])
        assert rules_of(routelint.lint_path(arch, p)) == ["RL002"]


class TestTemplateLint:
    def test_generated_set_is_clean(self, arch):
        part, tpls, extras = planio.load_template_set(
            fx_text("good_templates.json")
        )
        assert routelint.lint_template_set(
            arch,
            tpls,
            displacement=extras["displacement"],
            start=extras["start"],
        ) == []

    def test_rl005_illegal_transition(self, arch):
        f = routelint.lint_template(arch, [T.OUTMUX, T.EAST6, T.CLBIN])
        assert rules_of(f) == ["RL005"]
        assert "EAST6 -> CLBIN" in f[0].message

    def test_rl005_cursor_leaves_the_fabric(self, arch):
        tpl = [T.OUTMUX] + [T.NORTH1] * (arch.rows + 1)
        f = routelint.lint_template(arch, tpl, start=(5, 5))
        assert rules_of(f) == ["RL005"]

    def test_rl005_empty_template(self, arch):
        assert rules_of(routelint.lint_template(arch, [])) == ["RL005"]

    def test_long_lines_make_the_cursor_unknown(self, arch):
        # after LONGV the row is data-dependent: a movement that would
        # overrun the fabric from row 5 can no longer be called out
        tpl = [T.OUTMUX, T.LONGV] + [T.NORTH6] * (arch.rows // 6 + 2)
        assert routelint.lint_template(arch, tpl, start=(5, 5)) == []

    def test_rl006_duplicate_and_displacement_fixture(self, arch):
        part, tpls, extras = planio.load_template_set(
            fx_text("bad_templates.json")
        )
        f = routelint.lint_template_set(
            arch,
            tpls,
            displacement=extras["displacement"],
            start=extras["start"],
        )
        assert rules_of(f) == ["RL005", "RL006"]
        dead = [x for x in f if x.rule == "RL006"]
        assert any("duplicates" in x.message for x in dead)
        assert any("can never reach" in x.message for x in dead)


class TestPortMapLint:
    def test_good_map_is_clean(self, arch):
        ports = [
            ("q", 5, 5, wires.S0_YQ, "out"),
            ("d", 7, 7, wires.S0F[1], "in"),
        ]
        assert routelint.lint_port_map(arch, ports) == []

    def test_rl001_pin_off_fabric(self, arch):
        ports = [("q", arch.rows + 5, 5, wires.S0_YQ, "out")]
        assert rules_of(routelint.lint_port_map(arch, ports)) == ["RL001"]

    def test_rl003_direction_mismatch(self, arch):
        ports = [
            ("q", 5, 5, wires.S0F[1], "out"),  # input wire as an output
            ("d", 7, 7, wires.S0_YQ, "in"),    # output wire as an input
        ]
        f = routelint.lint_port_map(arch, ports)
        assert rules_of(f) == ["RL003"]
        assert len(f) == 2

    def test_live_ports_are_resolved(self, arch, router100):
        from repro.cores import ConstantCore

        k = ConstantCore(router100, "k", 2, 4, width=4, value=3)
        from repro.arch.virtex import VirtexArch

        f = routelint.lint_port_map(
            VirtexArch("XCV100"), list(k.get_ports("out"))
        )
        assert f == []


class TestWalLint:
    def test_good_wal_is_clean(self):
        assert routelint.lint_wal_file(fx("good.wal")) == []

    def test_rl007_torn_tail_is_a_warning(self):
        f = routelint.lint_wal_file(fx("torn.wal"))
        assert rules_of(f) == ["RL007"]
        assert [x.severity for x in f] == [Severity.WARNING]

    def test_rl007_mid_file_corruption_is_an_error(self):
        f = routelint.lint_wal_file(fx("corrupt_mid.wal"))
        errors = [x for x in f if x.severity is Severity.ERROR]
        assert errors and all(x.rule == "RL007" for x in errors)
        # corruption mid-file also breaks the sequence
        assert any("sequence gap" in x.message for x in errors)

    def test_rl007_not_a_wal(self, tmp_path):
        p = tmp_path / "x.wal"
        p.write_text("not json at all\n")
        f = routelint.lint_wal_file(str(p))
        assert rules_of(f) == ["RL007"]
        assert f[0].line == 1

    def test_rl007_part_mismatch(self):
        f = routelint.lint_wal_file(fx("good.wal"), part="XCV100")
        assert rules_of(f) == ["RL007"]

    @staticmethod
    def _event(arch, on, row, col, from_name, to_name):
        from repro.device.state import PipRecord

        return (
            on,
            PipRecord(
                row,
                col,
                from_name,
                to_name,
                arch.canonicalize(row, col, from_name),
                arch.canonicalize(row, col, to_name),
            ),
        )

    def test_rl008_double_drive_during_replay(self, arch, tmp_path):
        from repro.core.wal import WriteAheadLog

        p = str(tmp_path / "contended.wal")
        wal = WriteAheadLog(p, part="XCV50")
        wal.append(self._event(arch, True, 5, 7, wires.OUT[0], wires.SINGLE_E[0]))
        wal.append(self._event(arch, True, 5, 7, wires.OUT[2], wires.SINGLE_E[0]))
        wal.close()
        f = routelint.lint_wal_file(p)
        assert rules_of(f) == ["RL008"]
        assert "already driven" in f[0].message

    def test_rl008_off_without_on_is_a_warning(self, arch, tmp_path):
        from repro.core.wal import WriteAheadLog

        p = str(tmp_path / "offs.wal")
        wal = WriteAheadLog(p, part="XCV50")
        wal.append(self._event(arch, False, 5, 7, wires.OUT[0], wires.SINGLE_E[0]))
        wal.close()
        f = routelint.lint_wal_file(p)
        assert rules_of(f) == ["RL008"]
        assert [x.severity for x in f] == [Severity.WARNING]


class TestCheckpointLint:
    def test_good_checkpoint_is_clean(self):
        assert routelint.lint_checkpoint_file(fx("good.ckpt")) == []

    def test_good_checkpoint_against_its_wal(self):
        assert (
            routelint.lint_checkpoint_file(
                fx("good.ckpt"), wal_path=fx("good.wal")
            )
            == []
        )

    def test_rl009_corrupt_checkpoint(self):
        f = routelint.lint_checkpoint_file(fx("corrupt.ckpt"))
        assert rules_of(f) == ["RL009"]

    def test_rl009_broken_replay_preorder(self):
        f = routelint.lint_checkpoint_file(fx("bad_preorder.ckpt"))
        assert rules_of(f) == ["RL009"]
        assert any("preorder" in x.message for x in f)


class TestArtifactDispatch:
    @pytest.mark.parametrize(
        "name, kind, expect_rules",
        [
            ("good_plans.json", "plan", []),
            ("conflict_plans.json", "plan", ["RL004"]),
            ("bad_pip_plan.json", "plan", ["RL002"]),
            ("good_templates.json", "templates", []),
            ("bad_templates.json", "templates", ["RL005", "RL006"]),
            ("good.wal", "wal", []),
            ("torn.wal", "wal", ["RL007"]),
            ("good.ckpt", "checkpoint", []),
            ("corrupt.ckpt", "checkpoint", ["RL009"]),
        ],
    )
    def test_sniff_and_lint(self, name, kind, expect_rules):
        got_kind, findings = routelint.lint_artifact_file(fx(name))
        assert got_kind == kind
        assert rules_of(findings) == expect_rules

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "mystery.json"
        p.write_text('{"hello": 1}')
        kind, findings = routelint.lint_artifact_file(str(p))
        assert kind == "unknown"
        assert [f.severity for f in findings] == [Severity.INFO]
