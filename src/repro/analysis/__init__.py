"""Static analysis for routing artifacts and for our own source.

Three layers, one finding format (:mod:`repro.analysis.findings`):

* :mod:`repro.analysis.routelint` — Layer 1, fabric-aware validation of
  Paths, templates, port maps, serialized PIP plans, WALs and
  checkpoints against the architecture model, with no routing runs;
* :mod:`repro.analysis.codelint` — Layer 2, a per-file AST pass over the
  source tree for the bug classes one module shows on its own
  (RPR001, RPR003, RPR006, RPR007) and ``# repro: noqa`` parsing;
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.cfg` /
  :mod:`repro.analysis.dataflow` — Layer 3, whole-program call graph,
  per-function control-flow graphs and the dataflow passes behind every
  other code rule (global mutation, deadline polling, shared-memory
  and resource lifetimes, blocking calls, lock ordering).

Each code rule is the verdict of exactly one pass, and every sweep runs
all of them.

``repro analyze`` (see :mod:`repro.cli`) drives all of them; CI runs it
with ``--strict`` as a merge gate and ``--diff`` on pull requests.  The
catalog of rule ids lives in :mod:`repro.analysis.rules` and is
documented in ``docs/ANALYSIS.md``.
"""

from .findings import SCHEMA_VERSION, Finding, Report, Severity
from .rules import RULES, Rule, artifact_rules, code_rules, rule
from .driver import analyze_paths, default_target, filter_rules

__all__ = [
    "SCHEMA_VERSION",
    "Finding",
    "Report",
    "Severity",
    "RULES",
    "Rule",
    "rule",
    "artifact_rules",
    "code_rules",
    "analyze_paths",
    "default_target",
    "filter_rules",
]
