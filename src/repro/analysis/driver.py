"""Orchestration: sweep paths through all three analysis engines.

``analyze_paths`` is what the CLI and CI call: Python files are parsed
once, swept by the per-file AST pass (:mod:`repro.analysis.codelint`:
RPR001, RPR003, RPR006, RPR007), then indexed into a whole-program
:class:`~repro.analysis.callgraph.CallGraph` for the passes that own
every other code rule (:mod:`repro.analysis.dataflow`).  Each rule is
the verdict of one pass, so the driver merges findings without
de-duplicating or withdrawing any; it only adds what belongs to the
sweep itself: RPR006 for a file that does not parse and RPR013 for a
``# repro: noqa`` that suppressed nothing.  Everything else is sniffed
and routed to the artifact linter (:mod:`repro.analysis.routelint`).
Directories are walked recursively; with no paths at all, the installed
``repro`` package source is analysed — the self-hosting default that CI
gates on.

Two CI-shaped refinements ride on top:

* ``changed_only`` (the CLI's ``--diff <git-ref>``) keeps the *report*
  to files changed against a ref while the call graph is still built
  whole-program — an unchanged helper newly reached from a changed
  ``async def`` is still convicted, at the changed call site.
* ``baseline`` (the CLI's ``--baseline findings.json``) suppresses
  known findings so new rules can land without a flag-day; baselined
  findings stay visible in the report's ``suppressed`` list.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
from typing import Iterable, Sequence

from . import codelint, dataflow, routelint
from .callgraph import CallGraph, ProjectIndex
from .findings import Finding, Report, Severity
from .rules import RULES

__all__ = [
    "analyze_paths",
    "default_target",
    "filter_rules",
    "changed_files",
    "load_baseline",
    "write_baseline",
    "baseline_key",
]

#: directories never descended into during a sweep
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

#: artifact extensions worth sniffing (anything else non-.py is skipped
#: during directory walks; explicit file arguments are always analysed)
_ARTIFACT_EXTS = {".json", ".wal", ".ckpt", ".plan", ".tpl"}

#: version of the baseline file format
_BASELINE_VERSION = 1


def default_target() -> str:
    """The package's own source tree (self-hosting target)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _walk(root: str) -> Iterable[tuple[str, bool]]:
    """Yield ``(path, explicit)`` for files under ``root``."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            yield os.path.join(dirpath, name), False


def analyze_paths(
    paths: Sequence[str] | None = None,
    *,
    part: str | None = None,
    rules: frozenset[str] | None = None,
    changed_only: "set[str] | None" = None,
    baseline: "dict[tuple[str, str, str], int] | None" = None,
) -> Report:
    """Run every engine over ``paths`` (default: the repro package).

    ``rules`` restricts the report to a rule-id subset; suppression
    accounting is unaffected.  ``changed_only`` filters *reported*
    findings to those files (absolute paths) after the whole-program
    passes ran over everything.  ``baseline`` (see
    :func:`load_baseline`) moves known findings to ``suppressed``.
    Unreadable paths become findings, not exceptions, so a CI sweep
    always produces a report.
    """
    report = Report()
    # each file once, however often it is listed (a repeat, or a file
    # inside a listed directory): the first listing names it, and it is
    # explicit if any listing names it directly
    work: dict[str, tuple[str, bool]] = {}
    for p in paths if paths else [default_target()]:
        for path, explicit in _walk(p) if os.path.isdir(p) else [(p, True)]:
            key = os.path.realpath(path)
            first, named = work.get(key, (path, False))
            work[key] = (first, named or explicit)

    # -- pass 1: parse every Python module once ---------------------------
    py_items: list[tuple[str, str, ast.Module]] = []
    per_file: dict[str, list[Finding]] = {}
    for path, explicit in work.values():
        ext = os.path.splitext(path)[1].lower()
        if ext != ".py":
            continue
        report.inputs.append(path)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                source = fh.read()
        except OSError as e:
            report.add(_unreadable(path, e))
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as e:
            report.add(
                Finding.make(
                    "RPR006",
                    Severity.ERROR,
                    f"cannot parse: {e.msg}",
                    hint="the code linter needs syntactically valid Python",
                    file=path,
                    line=e.lineno,
                    col=(e.offset - 1) if e.offset else None,
                )
            )
            continue
        py_items.append((path, source, tree))
        per_file[path] = codelint.lint_parsed(path, tree)

    # -- pass 2: whole-program call graph + dataflow ----------------------
    if py_items:
        index = ProjectIndex.build(py_items)
        inter = dataflow.analyze_project(index, CallGraph.build(index))
        for f in inter.findings:
            per_file[f.file].append(f)

    # -- pass 3: per-file suppression + unused-directive accounting ------
    for path, source, _tree in py_items:
        noqa = codelint.parse_noqa(source)
        kept, suppressed, used = codelint.apply_noqa(per_file[path], noqa)
        for line in sorted(set(noqa) - used):
            kept.append(
                Finding.make(
                    "RPR013",
                    Severity.INFO,
                    "unused suppression: no finding on this line needs "
                    "`# repro: noqa`",
                    hint="delete the stale directive (it would silently "
                    "waive a future regression on this line)",
                    file=path,
                    line=line,
                )
            )
        report.extend(kept)
        report.suppressed.extend(suppressed)

    # -- artifacts --------------------------------------------------------
    for path, explicit in work.values():
        ext = os.path.splitext(path)[1].lower()
        if ext == ".py":
            continue
        if explicit or ext in _ARTIFACT_EXTS:
            report.inputs.append(path)
            try:
                _, findings = routelint.lint_artifact_file(path, part=part)
            except OSError as e:
                report.add(_unreadable(path, e))
                continue
            report.extend(findings)

    # -- report-shaping ---------------------------------------------------
    if rules is not None:
        report.findings = [f for f in report.findings if f.rule in rules]
    if changed_only is not None:
        changed = {os.path.abspath(p) for p in changed_only}
        report.findings = [
            f for f in report.findings if os.path.abspath(f.file) in changed
        ]
        report.suppressed = [
            f
            for f in report.suppressed
            if os.path.abspath(f.file) in changed
        ]
    if baseline:
        remaining = dict(baseline)
        fresh: list[Finding] = []
        for f in report.findings:
            key = baseline_key(f)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                report.suppressed.append(f)
            else:
                fresh.append(f)
        report.findings = fresh
    report.sort()
    return report


def _unreadable(path: str, err: OSError) -> Finding:
    return Finding.make(
        "RL007",
        Severity.ERROR,
        f"unreadable input: {err}",
        hint="check the path and permissions",
        file=path,
    )


def filter_rules(spec: str) -> frozenset[str]:
    """Parse a ``--rules RPR001,RL004`` spec, validating ids."""
    ids = frozenset(s.strip() for s in spec.split(",") if s.strip())
    unknown = ids - set(RULES)
    if unknown:
        raise ValueError(
            f"unknown rule ids: {', '.join(sorted(unknown))} "
            f"(see `repro analyze --list-rules`)"
        )
    return ids


# ---------------------------------------------------------------------------
# --diff support


def changed_files(ref: str, *, cwd: str | None = None) -> set[str]:
    """Absolute paths of files changed versus ``ref`` (``git diff`` +
    untracked), for ``repro analyze --diff``.

    Raises ``ValueError`` with git's stderr when the ref is unknown or
    the directory is not a repository — the CLI maps that to exit 2.
    """
    base = cwd or os.getcwd()
    try:
        top = _git(["rev-parse", "--show-toplevel"], base).strip()
        diff = _git(["diff", "--name-only", "--diff-filter=d", ref], base)
        untracked = _git(
            ["ls-files", "--others", "--exclude-standard"], base
        )
    except subprocess.CalledProcessError as e:
        raise ValueError(
            f"git diff against {ref!r} failed: "
            f"{(e.stderr or '').strip() or e}"
        ) from e
    except OSError as e:  # git not installed
        raise ValueError(f"cannot run git: {e}") from e
    out: set[str] = set()
    for line in (diff + untracked).splitlines():
        line = line.strip()
        if line:
            out.add(os.path.join(top, line))
    return out


def _git(args: list[str], cwd: str) -> str:
    proc = subprocess.run(
        ["git", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


# ---------------------------------------------------------------------------
# --baseline support


def baseline_key(f: Finding) -> tuple[str, str, str]:
    """Stable identity of a finding across commits: relative path, rule
    and message (line numbers drift with every edit and are excluded)."""
    path = f.file
    try:
        rel = os.path.relpath(os.path.abspath(path))
    except ValueError:  # different drive (windows)
        rel = path
    return (rel, f.rule, f.message)


def load_baseline(path: str) -> dict[tuple[str, str, str], int]:
    """Load a baseline written by :func:`write_baseline` into the
    multiset ``analyze_paths`` consumes."""
    with open(path, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    if body.get("version") != _BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {body.get('version')!r}"
        )
    out: dict[tuple[str, str, str], int] = {}
    for entry in body.get("findings", []):
        key = (entry["file"], entry["rule"], entry["message"])
        out[key] = out.get(key, 0) + 1
    return out


def write_baseline(report: Report, path: str) -> int:
    """Write the report's current findings as the new baseline; returns
    how many entries were recorded."""
    entries = [
        {"file": k[0], "rule": k[1], "message": k[2]}
        for k in map(baseline_key, report.findings)
    ]
    body = {"version": _BASELINE_VERSION, "findings": entries}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return len(entries)
