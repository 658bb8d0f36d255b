"""Each code rule is the verdict of exactly one pass.

A pass is the syntactic ``_CodeLinter`` class or one top-level function
of another ``repro.analysis`` module.  A rule id written as a string
literal inside it counts as that pass emitting the rule.  Two passes
judging one rule would need a de-duplication step or a withdrawal
channel between them, and a sweep that ran one of them without the
other would silently judge the rule differently.
"""

import ast
import re
from pathlib import Path

import repro.analysis
from repro.analysis.rules import code_rules

PACKAGE = Path(repro.analysis.__file__).parent

#: the driver's RPR006 for a file that does not parse (no pass sees it)
SECOND_SITES = {"RPR006": {"driver.analyze_paths"}}


def emitters() -> dict[str, set[str]]:
    """Rule id -> the passes that spell it, over the package's modules
    (the catalog subpackage ``rules`` only registers ids)."""
    out: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and re.fullmatch(
                    r"RPR\d{3}", str(node.value)
                ):
                    out.setdefault(node.value, set()).add(where)
    return out


def test_every_code_rule_has_exactly_one_pass():
    found = emitters()
    for rule in code_rules():
        sites = found.get(rule.id, set())
        second = SECOND_SITES.get(rule.id, set())
        assert second <= sites, f"{rule.id}: {sorted(sites)}"
        assert len(sites - second) == 1, f"{rule.id}: {sorted(sites)}"
