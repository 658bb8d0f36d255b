"""Rule registry: every static-analysis rule, every layer, one catalog.

Rule ids are *stable*: an id never changes meaning, and retired ids are
never reused (tooling and suppression comments depend on this —
``tests/analysis/test_findings.py`` pins the catalog).  Artifact rules
(``RL...``) belong to the fabric-aware route linter
(:mod:`repro.analysis.routelint`).  Each code rule (``RPR...``) encodes
a bug class a previous PR actually fixed and is the verdict of exactly
one pass (``tests/analysis/test_rule_passes.py`` pins that): the
per-file AST pass (:mod:`repro.analysis.codelint`) owns RPR001, RPR003,
RPR006 and RPR007; the whole-program passes
(:mod:`repro.analysis.dataflow`) own RPR002, RPR004, RPR005 and
RPR008-RPR012; the driver owns RPR013 (and reports a file that does not
parse as RPR006).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..findings import Severity

__all__ = ["Rule", "RULES", "rule", "artifact_rules", "code_rules"]


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered rule: identity, default severity, documentation."""

    id: str
    #: "artifact" (route lint) or "code" (source analysis)
    layer: str
    #: short kebab-case name, stable like the id
    name: str
    #: default severity of findings (occurrences may downgrade)
    severity: Severity
    #: one-line description for ``repro analyze --rules`` and the docs
    summary: str


_REGISTRY: dict[str, Rule] = {}


def _register(rule: Rule) -> Rule:
    if rule.id in _REGISTRY:  # pragma: no cover - registration bug guard
        raise ValueError(f"duplicate rule id {rule.id}")
    # import-time only: the catalog is built once under the import lock
    _REGISTRY[rule.id] = rule  # repro: noqa RPR002
    return rule


# -- Layer 1: fabric-aware artifact rules --------------------------------------

RL001 = _register(Rule(
    "RL001", "artifact", "unknown-wire", Severity.ERROR,
    "a referenced wire does not exist at the given tile on this part",
))
RL002 = _register(Rule(
    "RL002", "artifact", "missing-pip", Severity.ERROR,
    "no architecture PIP connects the two wires of a step",
))
RL003 = _register(Rule(
    "RL003", "artifact", "undrivable-target", Severity.ERROR,
    "the step's target wire cannot be driven at that tile "
    "(direction legality: pure sources, odd-hex far ends)",
))
RL004 = _register(Rule(
    "RL004", "artifact", "drive-conflict", Severity.ERROR,
    "two steps drive the same physical wire from different sources "
    "(the static form of the runtime isOn/contention check)",
))
RL005 = _register(Rule(
    "RL005", "artifact", "illegal-template-step", Severity.ERROR,
    "no fabric location can realise this template step "
    "(impossible value transition, or the cursor leaves the device)",
))
RL006 = _register(Rule(
    "RL006", "artifact", "dead-template-entry", Severity.WARNING,
    "a template-set entry can never be chosen "
    "(duplicate, or displacement disagrees with the declared target)",
))
RL007 = _register(Rule(
    "RL007", "artifact", "wal-frame", Severity.ERROR,
    "a WAL frame is malformed: bad header, CRC mismatch, sequence gap, "
    "or a torn tail (torn tails are warnings — recovery tolerates them)",
))
RL008 = _register(Rule(
    "RL008", "artifact", "replay-illegal", Severity.ERROR,
    "replaying the journal in order would trip the device's contention "
    "or loop protection (drive-before-driver, double drive, off-without-on)",
))
RL009 = _register(Rule(
    "RL009", "artifact", "checkpoint-inconsistent", Severity.ERROR,
    "a checkpoint's PIP preorder, net records or WAL linkage are "
    "mutually inconsistent",
))
RL010 = _register(Rule(
    "RL010", "artifact", "plan-routing-loop", Severity.ERROR,
    "a plan step drives a wire its own source descends from "
    "(the static form of the runtime loop check)",
))

# -- Code rules -----------------------------------------------------------------
# Each of these is a named, regression-proof form of a bug class fixed in
# PRs 1-4 (see docs/ANALYSIS.md for the history and a minimal trigger).

RPR001 = _register(Rule(
    "RPR001", "code", "id-keyed-cache", Severity.ERROR,
    "id(...) used as a mapping key: CPython reuses ids after garbage "
    "collection, so the cache aliases dead objects (PR 4's fault-mask bug)",
))
RPR002 = _register(Rule(
    "RPR002", "code", "unguarded-global-mutation", Severity.ERROR,
    "a module-level global is mutated outside any lock guard: data race "
    "once worker threads share the module (PR 4's GLOBAL_STATS bug)",
))
RPR003 = _register(Rule(
    "RPR003", "code", "pool-in-loop", Severity.WARNING,
    "an executor/pool is constructed inside a loop: per-iteration "
    "spawn/teardown cost, and workers never amortise (fixed in PR 4)",
))
RPR004 = _register(Rule(
    "RPR004", "code", "deadline-poll-missing", Severity.WARNING,
    "an unbounded search loop in a deadline-taking function never polls "
    "the deadline token: the budget cannot bound this loop (PR 3's "
    "contract)",
))
RPR005 = _register(Rule(
    "RPR005", "code", "shm-create-without-unlink", Severity.ERROR,
    "SharedMemory(create=True) in a module that never unlinks: the "
    "segment leaks past process exit (PR 4's /dev/shm lifecycle)",
))
RPR006 = _register(Rule(
    "RPR006", "code", "swallowed-exception", Severity.WARNING,
    "a bare/broad except (or an except RoutingFailure whose body is only "
    "pass/continue) silently discards failures and their structured "
    "context",
))
RPR007 = _register(Rule(
    "RPR007", "code", "per-element-array-loop", Severity.WARNING,
    "a Python for loop iterates per element over a numpy array (or "
    "indexes one through range(len)): hot-path scalar fallback that the "
    "vectorized SoA kernel exists to avoid (PR 7's batched search); "
    "justified scalar oracles carry `# repro: noqa RPR007`",
))
RPR008 = _register(Rule(
    "RPR008", "code", "blocking-call-in-async", Severity.ERROR,
    "a blocking call (time.sleep, builtin open, subprocess.run/…) sits "
    "directly inside an async def body: it stalls the event loop for "
    "every connection the daemon is serving; hop to a worker thread "
    "(asyncio.to_thread) or use the async equivalent; calls resolve "
    "through the call graph, so import-alias forms (from time import "
    "sleep) count too",
))

# -- Interprocedural rules (call graph + CFG dataflow) --------------------------
# These need the whole program: the hazards they encode crossed function
# boundaries every time this repo hit them (PRs 4, 8, 9).

RPR009 = _register(Rule(
    "RPR009", "code", "transitive-blocking-in-async", Severity.ERROR,
    "an async def reaches a blocking primitive through a chain of "
    "synchronous helpers (call-graph closure): the loop stalls exactly "
    "as with RPR008, but no single file shows it; the finding prints "
    "the call chain",
))
RPR010 = _register(Rule(
    "RPR010", "code", "lock-order-inversion", Severity.ERROR,
    "two locks are acquired in opposite orders on different call paths "
    "(lockset cycle over the lock-order graph, including locks held "
    "across call edges): two threads can deadlock",
))
RPR011 = _register(Rule(
    "RPR011", "code", "spawn-lost-global-mutation", Severity.WARNING,
    "a module global mutated in code reachable from a process-pool "
    "entry point while parent-side code reads the same global: under "
    "spawn the child mutates a copy, so the update silently never "
    "reaches the parent (ship it back in the worker result instead)",
))
RPR012 = _register(Rule(
    "RPR012", "code", "resource-path-leak", Severity.WARNING,
    "a resource (SharedMemory(create=True), an executor, a bare open) "
    "is bound to a local but some CFG path reaches the function exit "
    "without releasing or handing it off; a segment leaked this way is "
    "RPR012's alone, every other never-unlinked segment is RPR005's",
))
RPR013 = _register(Rule(
    "RPR013", "code", "unused-suppression", Severity.INFO,
    "a `# repro: noqa` directive suppresses nothing on its line: the "
    "hazard it justified is gone, so the comment is dead and should be "
    "deleted (stale suppressions hide future regressions)",
))

#: The full catalog, id-sorted.
RULES: dict[str, Rule] = dict(sorted(_REGISTRY.items()))


def rule(rule_id: str) -> Rule:
    """Look up a rule by id (raises KeyError for unknown ids)."""
    return RULES[rule_id]


def artifact_rules() -> list[Rule]:
    return [r for r in RULES.values() if r.layer == "artifact"]


def code_rules() -> list[Rule]:
    return [r for r in RULES.values() if r.layer == "code"]
