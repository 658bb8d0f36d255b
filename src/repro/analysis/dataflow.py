"""Forward dataflow passes over the call graph and per-function CFGs.

This is the interprocedural layer of ``repro analyze``: the syntactic
pass (:mod:`repro.analysis.codelint`) sees one function body at a time;
the passes here see the whole program through the
:class:`~repro.analysis.callgraph.CallGraph` and the per-function
:class:`~repro.analysis.cfg.CFG`, which is where the concurrency bugs
this repo has actually shipped live — every hazard fixed by hand in
PRs 4, 8 and 9 crossed a function boundary.

Passes and the rules they feed:

* **blocking-call propagation** — the fixpoint closure of "calls a
  blocking primitive" over synchronous call edges.  Feeds RPR008
  (import-alias-aware direct blocking in ``async def``) and RPR009
  (*transitive* blocking reachable from an ``async def`` through sync
  helpers — the call chain is printed in the finding).
* **lockset tracking** — every ``with <lock>:`` acquisition knows which
  locks are already held, including locks held across call edges into
  functions that acquire more.  A cycle in the resulting lock-order
  graph is RPR010 (two call paths can interleave into deadlock).
* **spawn-reachability** — functions reachable from a
  ``spawn-process`` entry point run in a child under ``spawn``: module
  globals there are per-process copies.  A mutation of a global that
  parent-side code also reads is RPR011 (the update silently never
  crosses the process boundary).
* **resource-escape analysis** — for every resource constructed and
  bound to a local (``SharedMemory(create=True)``, executors, bare
  ``open``), walk the CFG: if some path reaches the function exit (or a
  rebinding of the name) without releasing or escaping the resource,
  that path leaks it — RPR012, the path-sensitive generalisation of
  RPR005.
* **deadline-poll closure** — which functions (transitively) poll a
  deadline token.  Feeds the interprocedural upgrade of RPR004: an
  unbounded loop whose body *calls a polling helper* is bounded, no
  ``# repro: noqa`` needed.

Soundness limits are documented in ``docs/ANALYSIS.md`` — unresolved
calls produce no edges, so these passes can miss (never invent)
reachability through higher-order code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import (
    EXT_PREFIX,
    CallGraph,
    CallSite,
    FunctionInfo,
    ProjectIndex,
    _dotted_text,
)
from .cfg import CFG
from .codelint import _BLOCKING_BARE, _BLOCKING_DOTTED
from .findings import Finding, Severity

__all__ = ["InterproceduralResult", "analyze_project"]

#: external dotted names that block the calling thread
BLOCKING_EXT = frozenset(_BLOCKING_DOTTED) | frozenset(_BLOCKING_BARE)

#: resource constructors RPR012 tracks, by callee tail name
_RESOURCE_CTORS = {
    "SharedMemory": "shared-memory segment",
    "ProcessPoolExecutor": "process pool",
    "ThreadPoolExecutor": "thread pool",
    "Pool": "multiprocessing pool",
    "open": "file handle",
}

#: method names that release a tracked resource
_RELEASERS = {
    "close", "unlink", "shutdown", "terminate", "join", "release",
    "cleanup", "stop",
}

#: container/registration mutators that make a stored value escape
_STORE_METHODS = {"append", "add", "insert", "register", "put", "setdefault"}


@dataclass(slots=True)
class InterproceduralResult:
    """Everything the driver needs from one whole-program pass."""

    findings: list[Finding] = field(default_factory=list)
    #: ``(file, line)`` of syntactic RPR004 findings proven bounded by
    #: a polling helper called inside the loop
    rpr004_exempt: set[tuple[str, int]] = field(default_factory=set)
    #: functions whose blocking-closure is non-empty (diagnostics)
    blocking: dict[str, list[str]] = field(default_factory=dict)
    #: lock-order edges observed: (outer, inner) -> witness site
    lock_order: dict[tuple[str, str], tuple[str, int]] = field(
        default_factory=dict
    )


def analyze_project(
    index: ProjectIndex, graph: CallGraph | None = None
) -> InterproceduralResult:
    """Run every interprocedural pass; returns findings + exemptions."""
    if graph is None:
        graph = CallGraph.build(index)
    result = InterproceduralResult()
    _blocking_pass(index, graph, result)
    _lock_order_pass(index, graph, result)
    _spawn_globals_pass(index, graph, result)
    _resource_path_pass(index, graph, result)
    _deadline_poll_pass(index, graph, result)
    result.findings.sort(
        key=lambda f: (f.file, f.line or 0, f.col or 0, f.rule)
    )
    return result


# ---------------------------------------------------------------------------
# blocking-call propagation (RPR008 upgrade + RPR009)


def _direct_blocking_sites(graph: CallGraph, qual: str) -> list[CallSite]:
    return [
        s
        for s in graph.callees(qual)
        if s.kind == "call" and s.external and s.target in BLOCKING_EXT
    ]


def _blocking_closure(
    index: ProjectIndex, graph: CallGraph
) -> dict[str, bool]:
    """``qual -> True`` when the *sync* function transitively reaches a
    blocking primitive through ordinary call edges.

    Async callees never propagate (calling one only builds a coroutine)
    and spawn/task edges never propagate (the work leaves this thread).
    """
    blocking = {q: False for q in index.functions}
    for q in blocking:
        if _direct_blocking_sites(graph, q):
            blocking[q] = True
    changed = True
    while changed:
        changed = False
        for q in blocking:
            if blocking[q]:
                continue
            for site in graph.callees(q):
                if site.kind != "call" or site.external:
                    continue
                callee = index.functions.get(site.callee)
                if callee is None or callee.is_async:
                    continue
                if blocking[site.callee]:
                    blocking[q] = True
                    changed = True
                    break
    return blocking


def _chain_text(graph: CallGraph, start: str, short: bool = True) -> str:
    """Render ``start -> helper -> time.sleep`` for a finding message."""
    goals = {EXT_PREFIX + p for p in BLOCKING_EXT}
    chain = graph.shortest_chain(start, goals)
    names = [start.rsplit(".", 1)[-1] if short else start]
    for site in chain:
        names.append(site.target.rsplit(".", 1)[-1] if short else site.target)
    return " -> ".join(names)


def _blocking_pass(
    index: ProjectIndex, graph: CallGraph, result: InterproceduralResult
) -> None:
    blocking = _blocking_closure(index, graph)
    result.blocking = {
        q: [s.target for s in _direct_blocking_sites(graph, q)]
        for q, b in blocking.items()
        if b
    }
    for qual, info in index.functions.items():
        if not info.is_async:
            continue
        for site in graph.callees(qual):
            if site.kind != "call":
                continue
            if site.external and site.target in BLOCKING_EXT:
                # direct, but resolved through an import alias the
                # syntactic RPR008 cannot see; the driver de-duplicates
                # against codelint's own RPR008 on the same line
                result.findings.append(
                    Finding.make(
                        "RPR008",
                        Severity.ERROR,
                        f"blocking call {site.target}(...) inside async "
                        f"def {info.name!r}",
                        hint="the event loop stalls while this runs; use "
                        "the async equivalent (asyncio.sleep, "
                        "asyncio.to_thread, loop.run_in_executor)",
                        file=site.file,
                        line=site.lineno,
                        col=site.col,
                    )
                )
                continue
            callee = index.functions.get(site.callee)
            if callee is None or callee.is_async:
                continue
            if site.awaited:
                continue  # awaiting a sync call is a different bug
            if blocking.get(site.callee):
                chain = _chain_text(graph, site.callee)
                result.findings.append(
                    Finding.make(
                        "RPR009",
                        Severity.ERROR,
                        f"async def {info.name!r} reaches a blocking call "
                        f"through {chain}",
                        hint="every await on this loop stalls while the "
                        "chain runs; hop to a worker thread at this "
                        "boundary (asyncio.to_thread / run_in_executor) "
                        "or make the helper async",
                        file=site.file,
                        line=site.lineno,
                        col=site.col,
                    )
                )


# ---------------------------------------------------------------------------
# lock-order inversion (RPR010)


def _acquired_closure(
    graph: CallGraph,
) -> dict[str, set[str]]:
    """``qual -> locks (transitively) acquired while executing it``."""
    acquired: dict[str, set[str]] = {
        q: {a.lock for a in acqs}
        for q, acqs in graph.acquisitions.items()
    }
    for q in graph.index.functions:
        acquired.setdefault(q, set())
    changed = True
    while changed:
        changed = False
        for q in acquired:
            for site in graph.callees(q):
                if site.kind != "call" or site.external:
                    continue
                extra = acquired.get(site.callee, set())
                if not extra <= acquired[q]:
                    acquired[q] |= extra
                    changed = True
    return acquired


def _lock_order_pass(
    index: ProjectIndex, graph: CallGraph, result: InterproceduralResult
) -> None:
    order: dict[tuple[str, str], tuple[str, int]] = {}

    def record(outer: str, inner: str, file: str, line: int) -> None:
        if outer == inner:
            return  # re-entrant acquisition is a different hazard
        order.setdefault((outer, inner), (file, line))

    # intra-function nesting
    for acqs in graph.acquisitions.values():
        for a in acqs:
            for held in a.held:
                record(held, a.lock, a.file, a.lineno)
    # locks held across call edges into lock-acquiring callees
    acquired = _acquired_closure(graph)
    for site in graph.edges:
        if site.kind != "call" or site.external or not site.locks:
            continue
        for inner in acquired.get(site.callee, ()):
            for outer in site.locks:
                record(outer, inner, site.file, site.lineno)
    result.lock_order = order

    # cycle detection over the order graph (iterative DFS)
    adj: dict[str, set[str]] = {}
    for a, b in order:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())
    color: dict[str, int] = {}
    reported: set[frozenset[str]] = set()

    def dfs(root: str) -> None:
        stack: list[tuple[str, list[str]]] = [(root, [root])]
        while stack:
            node, path = stack.pop()
            color[node] = 1
            for nxt in sorted(adj.get(node, ())):
                if nxt in path:
                    cycle = path[path.index(nxt):] + [nxt]
                    key = frozenset(cycle)
                    if key in reported:
                        continue
                    reported.add(key)
                    file, line = order.get(
                        (cycle[0], cycle[1]), ("", 0)
                    )
                    pretty = " -> ".join(
                        c.rsplit(".", 1)[-1] for c in cycle
                    )
                    result.findings.append(
                        Finding.make(
                            "RPR010",
                            Severity.ERROR,
                            f"lock-order inversion: {pretty} (two threads "
                            f"taking these locks in opposite orders can "
                            f"deadlock)",
                            hint="pick one global acquisition order for "
                            "these locks and take them in that order on "
                            "every path (or collapse them into one lock)",
                            file=file,
                            line=line or None,
                        )
                    )
                elif color.get(nxt, 0) == 0:
                    stack.append((nxt, path + [nxt]))
        color[root] = 2

    for node in sorted(adj):
        if color.get(node, 0) == 0:
            dfs(node)


# ---------------------------------------------------------------------------
# spawn-reachable global mutation (RPR011)


@dataclass(slots=True)
class _GlobalUse:
    name: str
    node: ast.AST
    how: str


def _walk_own(root: ast.AST):
    """Walk ``root``'s subtree without descending into nested function
    bodies (those are analysed as their own call-graph nodes)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _global_mutations(
    info: FunctionInfo, module_globals: set[str]
) -> list[_GlobalUse]:
    """Module-global mutations inside one function body (the RPR002
    shapes: item/aug assignment, mutator method calls, rebinding under
    a ``global`` declaration)."""
    out: list[_GlobalUse] = []
    declared_global: set[str] = set()
    body = info.node.body if not isinstance(info.node, ast.Lambda) else []
    for stmt in body:
        for node in [stmt, *_walk_own(stmt)]:
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.AugAssign):
                t = node.target
                if isinstance(t, ast.Name) and t.id in module_globals:
                    out.append(_GlobalUse(t.id, node, "aug-assigned"))
                elif (
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and t.value.id in module_globals
                ):
                    out.append(
                        _GlobalUse(t.value.id, node, "item aug-assigned")
                    )
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in module_globals
                    ):
                        out.append(
                            _GlobalUse(t.value.id, node, "item-assigned")
                        )
                    elif (
                        isinstance(t, ast.Name)
                        and t.id in declared_global
                        and t.id in module_globals
                    ):
                        out.append(_GlobalUse(t.id, node, "rebound"))
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                f = node.value.func
                if (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id in module_globals
                    and f.attr
                    in {
                        "append", "extend", "insert", "add", "update",
                        "merge", "clear", "pop", "popitem", "remove",
                        "discard", "setdefault", "appendleft", "record",
                    }
                ):
                    out.append(
                        _GlobalUse(
                            f.value.id, node, f"mutated via .{f.attr}()"
                        )
                    )
    return out


def _global_reads(info: FunctionInfo, module_globals: set[str]) -> set[str]:
    body = info.node.body if not isinstance(info.node, ast.Lambda) else []
    reads: set[str] = set()
    for stmt in body:
        for node in [stmt, *_walk_own(stmt)]:
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in module_globals
            ):
                reads.add(node.id)
    return reads


def _memo_return(info: FunctionInfo, mut: _GlobalUse) -> bool:
    """True for the memo-cache shape ``G[key] = x ... return x``: the
    caller receives the cached value through the return path, so the
    mutation is a per-process cache fill, not a lost hand-off."""
    node = mut.node
    if not isinstance(node, ast.Assign) or not isinstance(
        node.value, ast.Name
    ):
        return False
    name = node.value.id
    if isinstance(info.node, ast.Lambda):
        return False
    for stmt in info.node.body:
        for sub in [stmt, *_walk_own(stmt)]:
            if (
                isinstance(sub, ast.Return)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == name
            ):
                return True
    return False


def _atexit_registered(index: ProjectIndex) -> set[str]:
    """Functions decorated with ``@atexit.register`` — they run at
    *every* process's exit, child processes included."""
    out: set[str] = set()
    for qual, info in index.functions.items():
        if isinstance(info.node, ast.Lambda):
            continue
        for dec in info.node.decorator_list:
            text = _dotted_text(dec)
            if text in {"atexit.register", "register"} and text:
                out.add(qual)
    return out


def _spawn_globals_pass(
    index: ProjectIndex, graph: CallGraph, result: InterproceduralResult
) -> None:
    roots = graph.spawn_process_roots()
    if not roots:
        return
    # everything a child process can execute, along any edge kind —
    # a thread inside the child is still inside the child
    child = graph.reachable(roots)
    # functions that may run in *some* worker context even when the
    # executor's type could not be resolved ("spawn" edges), plus
    # atexit hooks (they fire at child exit too): none of these are
    # credible parent-side readers
    maybe_worker = {
        cs.target
        for cs in graph.edges
        if cs.kind in {"spawn", "spawn-process"} and cs.target
    }
    maybe_worker |= _atexit_registered(index)
    workerish = child | graph.reachable(maybe_worker)
    for qual in sorted(child):
        info = index.functions.get(qual)
        if info is None:
            continue
        mod = index.modules.get(info.module)
        if mod is None:
            continue
        mutations = _global_mutations(info, mod.globals)
        if not mutations:
            continue
        for mut in mutations:
            if _memo_return(info, mut):
                continue
            # only a hazard when parent-side code *reads* the global:
            # a worker-private cache mutated and read only on child
            # paths is per-process state by design
            parent_readers = [
                other
                for other in index.functions.values()
                if other.module == info.module
                and other.qualname not in workerish
                and mut.name in _global_reads(other, mod.globals)
            ]
            if not parent_readers:
                continue
            reader = min(parent_readers, key=lambda f: f.lineno)
            root = min(roots)
            result.findings.append(
                Finding.make(
                    "RPR011",
                    Severity.WARNING,
                    f"module global {mut.name!r} {mut.how} on a "
                    f"process-pool worker path (reachable from "
                    f"{root.rsplit('.', 1)[-1]}); under spawn the parent's "
                    f"copy — read by {reader.name}() — never sees this "
                    f"update",
                    hint="ship the state back explicitly in the worker's "
                    "return value (the PathFinder ledger/stats pattern), "
                    "or mark deliberately per-process state with "
                    "`# repro: noqa RPR011`",
                    file=info.file,
                    line=getattr(mut.node, "lineno", info.lineno),
                    col=getattr(mut.node, "col_offset", None),
                )
            )


# ---------------------------------------------------------------------------
# resource-escape / release-on-every-path (RPR012)


def _resource_kind(
    index: ProjectIndex, info: FunctionInfo, call: ast.Call
) -> str | None:
    """Classify a constructor call as a tracked resource, or None."""
    text = _dotted_text(call.func)
    if text is None:
        return None
    tail = text.rsplit(".", 1)[-1]
    if tail not in _RESOURCE_CTORS:
        return None
    mod = index.modules.get(info.module)
    if mod is None:
        return None
    if tail == "open":
        # only the builtin: a project `open`/method named open is not a
        # file handle factory
        if text != "open" or index.resolve_name(mod, text) is not None:
            return None
        return _RESOURCE_CTORS[tail]
    if index.resolve_name(mod, text) is not None:
        return None  # a project class that happens to share the name
    if tail == "SharedMemory":
        for kw in call.keywords:
            if (
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return _RESOURCE_CTORS[tail]
        return None  # attach-side handles have process lifetime
    return _RESOURCE_CTORS[tail]


def _stmt_header_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions evaluated *at* a CFG node (compound statements
    contribute only their headers; their bodies are separate nodes)."""
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [i.context_expr for i in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out: list[ast.expr] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            out.append(child)
    return out


def _name_in(expr: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(expr)
    )


def _releases(stmt: ast.stmt, name: str) -> bool:
    for expr in _stmt_header_exprs(stmt):
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
    return False


def _escapes(stmt: ast.stmt, name: str) -> bool:
    """The resource outlives this function legitimately: returned,
    yielded, stored on an object/container/global, registered, or handed
    to another call that now owns it."""
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _name_in(stmt.value, name)
    if isinstance(stmt, ast.Assign):
        if _name_in(stmt.value, name):
            for t in stmt.targets:
                if not isinstance(t, ast.Name):
                    return True  # self.x = r / container[k] = r
                if t.id != name:
                    return True  # alias: tracking stops, assume owned
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        if _name_in(stmt.value, name) and not isinstance(
            stmt.target, ast.Name
        ):
            return True
    for expr in _stmt_header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Yield) or isinstance(node, ast.YieldFrom):
                if node.value is not None and _name_in(node.value, name):
                    return True
            if isinstance(node, ast.Call):
                # receiver method calls are not escapes; argument
                # positions are (ownership transfer / registration)
                for a in node.args:
                    if _name_in(a, name):
                        return True
                for kw in node.keywords:
                    if _name_in(kw.value, name):
                        return True
    return False


def _rebinds(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, ast.Assign):
        return any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        )
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return isinstance(stmt.target, ast.Name) and stmt.target.id == name
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _name_in(stmt.target, name)
    return False


def _resource_path_pass(
    index: ProjectIndex, graph: CallGraph, result: InterproceduralResult
) -> None:
    for qual, info in index.functions.items():
        if isinstance(info.node, ast.Lambda):
            continue
        creations: list[tuple[ast.Assign, str, str]] = []
        for stmt in ast.walk(info.node):
            if not isinstance(stmt, ast.Assign):
                continue
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                kind = _resource_kind(index, info, stmt.value)
                if kind is not None:
                    creations.append((stmt, stmt.targets[0].id, kind))
        if not creations:
            continue
        cfg = CFG.build(info.node)
        for stmt, name, kind in creations:
            start = cfg.node_for(stmt)
            if start is None:
                continue  # inside a nested function; its own pass sees it
            stops = {
                n.id
                for n in cfg.nodes
                if n.stmt is not None
                and n.stmt is not stmt
                and (_releases(n.stmt, name) or _escapes(n.stmt, name))
            }
            # a release anywhere inside a finally body counts for every
            # path through that finally — a guard around the shutdown
            # (``if pool is not None: pool.shutdown()``) usually
            # correlates with the creation branch, which path-insensitive
            # reachability cannot see
            releasing_finals = _finally_releases(info.node, name)
            stops |= {
                n.id
                for n in cfg.nodes
                if n.stmt is not None and n.stmt in releasing_finals
            }
            leaks = {
                n.id
                for n in cfg.nodes
                if n.stmt is not None
                and n.stmt is not stmt
                and _rebinds(n.stmt, name)
            }
            # a path that reaches exit (or rebinds the only name bound
            # to the resource) without releasing/escaping leaks it
            leaked = cfg.paths_escape(
                start, stops=stops | leaks
            ) or _reaches(cfg, start, leaks, stops)
            if leaked:
                result.findings.append(
                    Finding.make(
                        "RPR012",
                        Severity.WARNING,
                        f"{kind} {name!r} is not released on every path "
                        f"out of {info.name}()",
                        hint="release in a finally (or `with`), or hand "
                        "ownership out explicitly (return it / store it "
                        "/ atexit.register the cleanup) on every path",
                        file=info.file,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                    )
                )


def _finally_releases(func: ast.AST, name: str) -> set[ast.stmt]:
    """Statements of every ``finally`` body that releases ``name``
    somewhere inside it (statements belonging to nested functions never
    match the enclosing function's CFG nodes, so including them is
    harmless)."""
    out: set[ast.stmt] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        stmts: list[ast.stmt] = []
        for s in node.finalbody:
            stmts.append(s)
            stmts.extend(
                sub for sub in _walk_own(s) if isinstance(sub, ast.stmt)
            )
        if any(_releases(s, name) for s in stmts):
            out.update(stmts)
    return out


def _reaches(
    cfg: CFG, start: int, goals: set[int], stops: set[int]
) -> bool:
    if not goals:
        return False
    seen: set[int] = set()
    stack = list(cfg.nodes[start].succs)
    while stack:
        n = stack.pop()
        if n in seen or n in stops:
            continue
        if n in goals:
            return True
        seen.add(n)
        stack.extend(cfg.nodes[n].succs)
    return False


# ---------------------------------------------------------------------------
# deadline-poll closure (interprocedural RPR004 exemption)


def _polls_deadline_directly(info: FunctionInfo) -> bool:
    node = info.node
    if isinstance(node, ast.Lambda):
        return False
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in ("poll", "expired", "remaining")
        ):
            text = _dotted_text(sub.func.value) or ""
            if "deadline" in text.lower() or "budget" in text.lower():
                return True
    return False


def _polling_closure(index: ProjectIndex, graph: CallGraph) -> set[str]:
    polls = {
        q for q, info in index.functions.items()
        if _polls_deadline_directly(info)
    }
    changed = True
    while changed:
        changed = False
        for q in index.functions:
            if q in polls:
                continue
            for site in graph.callees(q):
                if (
                    site.kind == "call"
                    and not site.external
                    and site.callee in polls
                ):
                    polls.add(q)
                    changed = True
                    break
    return polls


def _deadline_poll_pass(
    index: ProjectIndex, graph: CallGraph, result: InterproceduralResult
) -> None:
    """Mark ``while`` loops whose body calls a deadline-polling helper:
    the syntactic RPR004 finding on that loop line is withdrawn."""
    polls = _polling_closure(index, graph)
    if not polls:
        return
    for qual, info in index.functions.items():
        if isinstance(info.node, ast.Lambda):
            continue
        calls_by_line = [
            s
            for s in graph.callees(qual)
            if s.kind == "call" and not s.external and s.callee in polls
        ]
        if not calls_by_line:
            continue
        for sub in ast.walk(info.node):
            if not isinstance(sub, ast.While):
                continue
            lo = sub.lineno
            hi = getattr(sub, "end_lineno", lo) or lo
            if any(lo <= s.lineno <= hi for s in calls_by_line):
                result.rpr004_exempt.add((info.file, sub.lineno))
