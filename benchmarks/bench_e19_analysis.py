"""E19: static-analysis throughput and the seeded-defect detection gate.

Measures what ``repro analyze`` costs and proves what it catches:

* **plan-lint throughput** — fabric-legality checking of a serialized
  PIP-plan corpus, reported in pips/s, best of 7 calls;
* **conflict detection** — the same corpus with a drive conflict
  planted in every plan: how many the linter reports;
* **template-set lint** — reachability/dead-entry analysis of the
  predefined template library;
* **WAL + checkpoint lint** — replay-legality scan of a real
  :class:`~repro.core.wal.DurableSession` journal;
* **codelint sweep** — the per-file AST pass (RPR001, RPR003, RPR006,
  RPR007) over the ``repro`` package source, parse included;
* **interprocedural sweep** — the whole ``repro analyze`` run: the
  per-file pass plus the call graph and CFG dataflow that own every
  other code rule, reported as LoC/s and as overhead versus the
  per-file pass alone;
* **seeded-defect detection** (``--check``) — generate a corpus where
  *every* plan carries a deliberate drive conflict and require the
  linter to report each one, and none on the clean twin; plus the
  concurrency twin: the seeded defect corpus under
  ``tests/analysis/fixtures/code`` (its table,
  ``CODE_CORPUS_SEEDED``, lives in ``fixtures/regen.py``) must be
  detected at 100% per rule with zero findings on the good twins.
  This is the CI detection gate::

      PYTHONPATH=src python benchmarks/bench_e19_analysis.py --smoke --check

Without ``--check`` it prints E19's table, concurrency-corpus row
included.  A full run (no ``--smoke``) records the numbers in the
``analysis`` section of ``BENCH_routing.json``; a ``--smoke`` run prints
them and leaves the file alone.  Under pytest only the timing-free shape
tests and pytest-benchmark timings run.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.analysis import analyze_paths, codelint, default_target
from repro.analysis.plans import load_plans, random_plan_corpus
from repro.analysis import routelint
from repro.arch.virtex import VirtexArch
from repro.bench.metrics import Table, best_of, time_call
from repro.bench.workloads import random_p2p_nets
from repro.core import DurableSession, JRouter
from repro.core.wal import write_checkpoint
from repro.routers.template_sets import predefined_templates

DISPLACEMENTS = ((2, 3), (0, 4), (5, 0), (3, 3))

#: plan lint of the 256-plan corpus takes 5-9 ms, so one call reads the
#: host's noise; the row takes the best of this many
PLAN_LINT_REPEATS = 7

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_routing.json"

#: the analysis fixtures; ``code/`` holds the seeded concurrency corpus
FIXTURES_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "tests", "analysis", "fixtures",
)
CODE_CORPUS_DIR = os.path.join(FIXTURES_DIR, "code")

sys.path.insert(0, FIXTURES_DIR)
#: per-file (rule, seeded-count) contract, keyed by fixture-relative path
from regen import CODE_CORPUS_SEEDED  # noqa: E402

sys.path.pop(0)


def _package_loc(report) -> int:
    n = 0
    for path in report.inputs:
        if path.endswith(".py"):
            try:
                with open(path, "rb") as fh:
                    n += sum(1 for _ in fh)
            except OSError:
                pass
    return n


def _corpus(n_plans: int, *, conflict_rate: float = 0.0, seed: int = 19):
    """A named-plan list plus its total pip count."""
    _, named = load_plans(
        random_plan_corpus(
            "XCV50", n_plans=n_plans, seed=seed, conflict_rate=conflict_rate
        )
    )
    return named, sum(len(pips) for _, pips in named)


def seeded_conflicts(named) -> int:
    """How many drive conflicts ``random_plan_corpus`` planted."""
    for name, pips in named:
        if name == "conflict-seed":
            return len(pips)
    return 0


def _session_artifacts(tmp: str, *, n_nets: int = 12):
    """Route a real workload under a DurableSession; returns (wal, ckpt)."""
    wal_path = os.path.join(tmp, "session.wal")
    ckpt_path = os.path.join(tmp, "session.ckpt")
    router = JRouter(part="XCV50")
    pairs = [
        (net.source, net.sinks[0])
        for net in random_p2p_nets(router.device.arch, n_nets, seed=19)
    ]
    with DurableSession(router, wal_path) as session:
        for src, sink in pairs:
            router.route(src, sink)
        write_checkpoint(
            ckpt_path, router.device, seq=session.seq, netdb=router.netdb
        )
    return wal_path, ckpt_path


def syntactic_sweep(root: str) -> int:
    """The per-file layer alone over every module under ``root``: read,
    parse and run :func:`~repro.analysis.codelint.lint_parsed`, with no
    call graph and no suppression.  Returns the number of files."""
    files = sorted(Path(root).rglob("*.py"))
    for path in files:
        source = path.read_text(encoding="utf-8", errors="replace")
        codelint.lint_parsed(str(path), ast.parse(source, filename=str(path)))
    return len(files)


def lint_template_library(arch) -> int:
    """Lint every predefined template set; returns findings found."""
    n = 0
    for drow, dcol in DISPLACEMENTS:
        values = [t.values for t in predefined_templates(drow, dcol)]
        n += len(
            routelint.lint_template_set(
                arch, values, displacement=(drow, dcol), start=(5, 5)
            )
        )
    return n


# ------------------------------------------------------------------ bench main


def run(smoke: bool) -> dict | None:
    """Print E19's table and return the ``analysis`` section, or None
    when a legal input drew a finding or a planted defect was missed."""
    arch = VirtexArch("XCV50")
    n_plans = 32 if smoke else 256
    n_nets = 8 if smoke else 24
    t = Table(
        "E19: static analysis — lint throughput and detection",
        ["stage", "detail", "result", "time (ms)"],
    )

    named, n_pips = _corpus(n_plans)
    dt_plans, clean = best_of(
        lambda: routelint.lint_plans(arch, named), repeats=PLAN_LINT_REPEATS
    )
    t.add("plan lint", f"{n_plans} plans / {n_pips} pips",
          f"{len(clean)} findings, {n_pips / dt_plans:,.0f} pips/s",
          dt_plans * 1e3)

    bad, _ = _corpus(n_plans, conflict_rate=1.0)
    planted = seeded_conflicts(bad)
    dt, findings = time_call(lambda: routelint.lint_plans(arch, bad))
    hits = sum(1 for f in findings if f.rule == "RL004")
    t.add("conflict detection", f"{planted} conflicts planted",
          f"{hits}/{planted} detected", dt * 1e3)

    dt, tpl_findings = time_call(lambda: lint_template_library(arch))
    t.add("template lint", f"{len(DISPLACEMENTS)} predefined sets",
          f"{tpl_findings} findings", dt * 1e3)

    with tempfile.TemporaryDirectory(prefix="e19-bench-") as tmp:
        wal_path, ckpt_path = _session_artifacts(tmp, n_nets=n_nets)
        dt, wal_findings = time_call(
            lambda: routelint.lint_wal_file(wal_path)
            + routelint.lint_checkpoint_file(ckpt_path, wal_path=wal_path)
        )
    t.add("wal+ckpt lint", f"{n_nets}-net session journal",
          f"{len(wal_findings)} findings", dt * 1e3)

    dt_syn, n_files = time_call(lambda: syntactic_sweep(default_target()))
    t.add("codelint sweep", f"{n_files} files (per-file)",
          "parse + codelint only", dt_syn * 1e3)

    dt_code, report = time_call(lambda: analyze_paths([default_target()]))
    loc = _package_loc(report)
    t.add("interproc sweep", f"{len(report.inputs)} files / {loc:,} LoC",
          f"{len(report.findings)} findings, "
          f"{len(report.suppressed)} suppressed, "
          f"{loc / dt_code:,.0f} LoC/s", dt_code * 1e3)

    dt, (missed, noise, detected) = time_call(concurrency_corpus_check)
    seeded = sum(n for _, n in CODE_CORPUS_SEEDED.values())
    t.add("concurrency corpus", f"{seeded} defects seeded",
          f"{detected}/{seeded} detected, {len(noise)} on twins", dt * 1e3)
    t.print()

    ok = (
        not clean
        and planted > 0
        and hits == planted
        and not tpl_findings
        and not wal_findings
        and not report.findings
        and not missed
        and not noise
    )
    if not ok:
        return None
    return {
        "mode": "smoke" if smoke else "full",
        "plan_pips_per_s": round(n_pips / dt_plans),
        "plan_lint_best_of": PLAN_LINT_REPEATS,
        "codelint_files": len(report.inputs),
        "codelint_loc": loc,
        "syntactic_ms": round(dt_syn * 1e3, 1),
        "interproc_ms": round(dt_code * 1e3, 1),
        "interproc_loc_per_s": round(loc / dt_code),
        "findings": len(report.findings),
        "suppressed": len(report.suppressed),
        "seeded_corpus": {
            "planted": seeded,
            "detected": detected,
            "false_alarms": len(noise),
        },
    }


def detection_check(smoke: bool) -> int:
    """The CI gate: every seeded drive conflict must be reported."""
    arch = VirtexArch("XCV50")
    n_plans = 16 if smoke else 64

    clean, _ = _corpus(n_plans)
    false_alarms = routelint.lint_plans(arch, clean)

    bad, _ = _corpus(n_plans, conflict_rate=1.0)
    planted = seeded_conflicts(bad)
    findings = routelint.lint_plans(arch, bad)
    conflicts = [f for f in findings if f.rule == "RL004"]

    print(f"seeded-defect detection: {planted} conflict(s) planted, "
          f"{len(conflicts)} detected, {len(false_alarms)} false alarm(s)")
    if len(conflicts) != planted or false_alarms or planted == 0:
        print("DETECTION REGRESSION: the linter missed a planted conflict "
              "or flagged a legal corpus")
        return 1

    missed, noise, _ = concurrency_corpus_check()
    if missed or noise:
        for line in missed:
            print(f"DETECTION REGRESSION: {line}")
        for line in noise:
            print(f"FALSE ALARM: {line}")
        return 1
    print("detection check ok")
    return 0


def concurrency_corpus_check() -> tuple[list[str], list[str], int]:
    """Detection rate over the seeded concurrency corpus.

    Returns (missed, noise, detected): rules under 100% on the bad
    files, any finding at all on the good twins, and the number of
    seeded defects actually reported.
    """
    report = analyze_paths([CODE_CORPUS_DIR])
    per_file: dict[str, dict[str, int]] = {}
    for f in report.findings:
        name = _corpus_name(f.file)
        per_file.setdefault(name, {}).setdefault(f.rule, 0)
        per_file[name][f.rule] += 1
    missed: list[str] = []
    noise: list[str] = []
    detected = 0
    for name, (rule, planted) in sorted(CODE_CORPUS_SEEDED.items()):
        got = per_file.get(name, {}).get(rule, 0)
        detected += min(got, planted)
        print(f"concurrency corpus: {name} {rule} "
              f"{got}/{planted} detected")
        if got != planted:
            missed.append(f"{name}: {got}/{planted} {rule}")
    for f in report.findings:
        name = _corpus_name(f.file)
        if os.path.basename(name).startswith("good_"):
            noise.append(f"{name}:{f.line} {f.rule}")
        elif name in CODE_CORPUS_SEEDED and f.rule != CODE_CORPUS_SEEDED[name][0]:
            noise.append(f"{name}:{f.line} {f.rule} (off-target)")
    return missed, noise, detected


def _corpus_name(path: str) -> str:
    """A finding's file as ``CODE_CORPUS_SEEDED`` keys it."""
    return os.path.relpath(path, FIXTURES_DIR).replace(os.sep, "/")


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    if "--check" in argv:
        return detection_check(smoke)
    section = run(smoke)
    if section is None:
        return 1
    if smoke:
        print(f"smoke run: {BASELINE.name} left alone (a full run records it)")
        return 0
    data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    data["analysis"] = section
    BASELINE.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {BASELINE} (analysis section)")
    return 0


# ---------------------------------------------------------------- shape tests
# Timing-free detection guarantees, pinned under pytest/CI.


def test_shape_clean_corpus_has_no_findings(device):
    named, n_pips = _corpus(24)
    assert n_pips > 0
    assert routelint.lint_plans(device.arch, named) == []


def test_shape_every_seeded_conflict_is_detected(device):
    named, _ = _corpus(24, conflict_rate=1.0)
    planted = seeded_conflicts(named)
    assert planted > 0
    findings = routelint.lint_plans(device.arch, named)
    assert len([f for f in findings if f.rule == "RL004"]) == planted
    assert all(f.rule == "RL004" for f in findings)


def test_shape_template_library_is_clean(device):
    assert lint_template_library(device.arch) == 0


def test_shape_live_session_journal_lints_clean(tmp_path):
    wal_path, ckpt_path = _session_artifacts(str(tmp_path), n_nets=4)
    assert routelint.lint_wal_file(wal_path) == []
    assert routelint.lint_checkpoint_file(ckpt_path, wal_path=wal_path) == []


def test_shape_seeded_concurrency_corpus_detected():
    missed, noise, detected = concurrency_corpus_check()
    assert missed == []
    assert noise == []
    assert detected == sum(n for _, n in CODE_CORPUS_SEEDED.values())


def test_shape_only_a_full_run_records_the_analysis_section(
    tmp_path, monkeypatch
):
    module = sys.modules[__name__]
    baseline = tmp_path / "BENCH_routing.json"
    recorded = {"service": {"rps": 1.0}, "analysis": {"mode": "full"}}
    baseline.write_text(json.dumps(recorded, indent=2) + "\n")
    monkeypatch.setattr(module, "BASELINE", baseline)
    monkeypatch.setattr(
        module, "run",
        lambda smoke: {"mode": "smoke" if smoke else "full",
                       "plan_pips_per_s": 2},
    )
    before = baseline.read_bytes()
    assert main(["--smoke"]) == 0
    assert baseline.read_bytes() == before
    assert main([]) == 0
    data = json.loads(baseline.read_text())
    assert data["service"] == recorded["service"]
    assert data["analysis"] == {"mode": "full", "plan_pips_per_s": 2}
    before = baseline.read_bytes()
    monkeypatch.setattr(module, "run", lambda smoke: None)
    assert main([]) == 1  # a run that is not clean records nothing
    assert baseline.read_bytes() == before


def test_plan_lint_cost(benchmark, device):
    """Fabric-legality scan over a 64-plan corpus."""
    named, n_pips = _corpus(64)
    assert n_pips > 100
    assert benchmark(lambda: routelint.lint_plans(device.arch, named)) == []


def test_codelint_sweep_cost(benchmark):
    """The full AST hazard pass over the repro package source."""
    report = benchmark(lambda: analyze_paths([default_target()]))
    assert report.findings == []
    assert len(report.inputs) > 40


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
