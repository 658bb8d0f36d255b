"""Forward dataflow passes over the call graph and per-function CFGs.

This is the interprocedural layer of ``repro analyze``: the syntactic
pass (:mod:`repro.analysis.codelint`) sees one module at a time; the
passes here see the whole program through the
:class:`~repro.analysis.callgraph.CallGraph` and the per-function
:class:`~repro.analysis.cfg.CFG`, which is where the concurrency bugs
this repo has actually shipped live — every hazard fixed by hand in
PRs 4, 8 and 9 crossed a function boundary.

Each rule is the verdict of exactly one pass (the syntactic pass owns
RPR001, RPR003, RPR006 and RPR007; the driver owns RPR013):

* **blocking-call propagation** — the fixpoint closure of "calls a
  blocking primitive" over synchronous call edges.  Feeds RPR008
  (a blocking call directly in an ``async def``, import aliases and the
  builtin ``open`` resolved) and RPR009 (*transitive* blocking
  reachable from an ``async def`` through sync helpers — the call
  chain is printed in the finding).
* **lockset tracking** — every ``with <lock>:`` acquisition knows which
  locks are already held, including locks held across call edges into
  functions that acquire more.  A cycle in the resulting lock-order
  graph is RPR010 (two call paths can interleave into deadlock).
* **module-global mutation** — one walker finds every item/aug
  assignment, mutator call and ``global`` rebinding of a module global.
  A mutation outside a ``with`` naming a lock is RPR002 (a data race
  once threads share the module; bare rebinds excepted).  Functions
  reachable from a ``spawn-process`` entry point run in a child under
  ``spawn``: a mutation there of a global that parent-side code reads
  is RPR011 (the update silently never crosses the process boundary).
* **resource paths** — for every resource constructed and bound to a
  local (``SharedMemory(create=True)``, executors, bare ``open``), walk
  the CFG: if some path reaches the function exit (or a rebinding of
  the name) without releasing or escaping the resource, that path
  leaks it — RPR012.  Any other ``SharedMemory(create=True)`` segment
  (returned, stored, handed off or closed) in a module that never
  unlinks is RPR005.
* **deadline polling** — an unbounded loop in a ``deadline``-taking
  function that neither mentions the deadline nor calls a function
  that (transitively) polls one is RPR004.

Soundness limits are documented in ``docs/ANALYSIS.md`` — unresolved
calls produce no edges, so these passes can miss (never invent)
reachability through higher-order code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .callgraph import (
    EXT_PREFIX,
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    _dotted_text,
)
from .cfg import CFG
from .codelint import _dotted, _names_in
from .findings import Finding, Severity

__all__ = ["InterproceduralResult", "analyze_project"]

#: external dotted names that block the calling thread (RPR008/RPR009)
BLOCKING_EXT = frozenset({
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "open",
})

#: resource constructors RPR012 tracks, by callee tail name
_RESOURCE_CTORS = {
    "SharedMemory": "shared-memory segment",
    "ProcessPoolExecutor": "process pool",
    "ThreadPoolExecutor": "thread pool",
    "Pool": "multiprocessing pool",
    "open": "file handle",
}

#: the one kind RPR005 also judges
_SEGMENT = _RESOURCE_CTORS["SharedMemory"]

#: method names that release a tracked resource
_RELEASERS = {
    "close", "unlink", "shutdown", "terminate", "join", "release",
    "cleanup", "stop",
}


@dataclass(slots=True)
class InterproceduralResult:
    """Everything the driver needs from one whole-program pass."""

    findings: list[Finding] = field(default_factory=list)


def analyze_project(
    index: ProjectIndex, graph: CallGraph
) -> InterproceduralResult:
    """Run every whole-program pass; returns their findings."""
    result = InterproceduralResult()
    _blocking_pass(index, graph, result)
    _lock_order_pass(index, graph, result)
    _global_mutation_pass(index, graph, result)
    _resource_pass(index, result)
    _deadline_poll_pass(index, graph, result)
    result.findings.sort(
        key=lambda f: (f.file, f.line or 0, f.col or 0, f.rule)
    )
    return result


# ---------------------------------------------------------------------------
# blocking-call propagation (RPR008 + RPR009)


def _blocking_closure(
    index: ProjectIndex, graph: CallGraph
) -> dict[str, bool]:
    """``qual -> True`` when the *sync* function transitively reaches a
    blocking primitive through ordinary call edges.

    Async callees never propagate (calling one only builds a coroutine)
    and spawn/task edges never propagate (the work leaves this thread).
    """
    blocking = {
        q: any(
            s.kind == "call" and s.external and s.target in BLOCKING_EXT
            for s in graph.callees(q)
        )
        for q in index.functions
    }
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


def _chain_text(graph: CallGraph, start: str) -> str:
    """Render ``start -> helper -> sleep`` for a finding message."""
    goals = {EXT_PREFIX + p for p in BLOCKING_EXT}
    chain = graph.shortest_chain(start, goals)
    names = [start, *(site.target for site in chain)]
    return " -> ".join(n.rsplit(".", 1)[-1] for n in names)


def _blocking_pass(
    index: ProjectIndex, graph: CallGraph, result: InterproceduralResult
) -> None:
    blocking = _blocking_closure(index, graph)
    for qual, info in index.functions.items():
        if not info.is_async:
            continue
        for site in graph.callees(qual):
            if site.kind != "call":
                continue
            if site.external and site.target in BLOCKING_EXT:
                # only this function's own body: a nested sync def is
                # its own node (it presumably runs off the loop)
                result.findings.append(
                    Finding.make(
                        "RPR008",
                        Severity.ERROR,
                        f"blocking call {site.target}(...) inside async "
                        f"def {info.name!r}",
                        hint="the event loop stalls for every connection "
                        "while this runs; use the async equivalent "
                        "(asyncio.sleep, asyncio.to_thread, "
                        "loop.run_in_executor, a subprocess via "
                        "asyncio.create_subprocess_exec)",
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
# module-global mutation: off-lock (RPR002) and spawn-lost (RPR011)

#: attribute calls that mutate their receiver in place
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "merge", "clear", "pop",
    "popitem", "remove", "discard", "setdefault", "appendleft", "record",
})

#: RPR002's wording of a mutation shape (RPR011 says ``how`` as is)
_OFF_LOCK_HOW = {
    "aug-assigned": "is aug-assigned",
    "item aug-assigned": "has an item aug-assigned",
    "item-assigned": "has an item assigned",
}


@dataclass(slots=True)
class _GlobalUse:
    name: str
    node: ast.stmt
    how: str
    #: inside a ``with`` whose context expression names a lock
    locked: bool


def _walk_own(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without descending into nested function
    bodies (those are analysed as their own call-graph nodes)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


#: the statement lists nested inside a compound statement (``try``
#: handlers and ``match`` cases hold theirs one level down)
_STMT_BLOCKS = ("body", "orelse", "finalbody")


def _names_a_lock(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.With) and any(
        "lock" in _dotted(item.context_expr).lower() for item in stmt.items
    )


def _global_mutations(
    info: FunctionInfo, module_globals: set[str]
) -> list[_GlobalUse]:
    """Module-global mutations inside one function body: item or aug
    assignment, a mutator method call, or a rebinding under a ``global``
    declaration."""
    out: list[_GlobalUse] = []
    declared: set[str] = set()

    def add(name: str, node: ast.stmt, how: str, locked: bool) -> None:
        if name in module_globals:
            out.append(_GlobalUse(name, node, how, locked))

    def walk(body: list[ast.stmt], locked: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Global):
                declared.update(node.names)
            elif isinstance(node, ast.AugAssign):
                t = node.target
                if isinstance(t, ast.Name):
                    add(t.id, node, "aug-assigned", locked)
                elif isinstance(t, ast.Subscript) and isinstance(
                    t.value, ast.Name
                ):
                    add(t.value.id, node, "item aug-assigned", locked)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Subscript) and isinstance(
                        t.value, ast.Name
                    ):
                        add(t.value.id, node, "item-assigned", locked)
                    elif isinstance(t, ast.Name) and t.id in declared:
                        add(t.id, node, "rebound", locked)
            elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                f = node.value.func
                if (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.attr in _MUTATORS
                ):
                    add(f.value.id, node, f"mutated via .{f.attr}()", locked)
            inner = locked or _names_a_lock(node)
            for block in _STMT_BLOCKS:
                walk(getattr(node, block, []), inner)
            for part in getattr(node, "handlers", []) or getattr(
                node, "cases", []
            ):
                walk(part.body, inner)

    if not isinstance(info.node, ast.Lambda):
        walk(info.node.body, False)
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


def _global_mutation_pass(
    index: ProjectIndex, graph: CallGraph, result: InterproceduralResult
) -> None:
    """RPR002 (off-lock) and RPR011 (spawn-lost) from one walk of each
    function's module-global mutations."""
    roots = graph.spawn_process_roots()
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
    for qual, info in index.functions.items():
        mod = index.modules[info.module]
        for mut in _global_mutations(info, mod.globals):
            line, col = mut.node.lineno, mut.node.col_offset
            if not mut.locked and mut.how != "rebound":
                how = _OFF_LOCK_HOW.get(mut.how, f"is {mut.how}")
                result.findings.append(
                    Finding.make(
                        "RPR002",
                        Severity.ERROR,
                        f"module global {mut.name!r} {how} outside a "
                        f"lock guard",
                        hint="wrap the mutation in the module's lock (e.g. "
                        "`with _LOCK:`) or confine the state to one thread",
                        file=info.file,
                        line=line,
                        col=col,
                    )
                )
            if qual not in child or _memo_return(info, mut):
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
                    "return value (as PathFinder workers return their stats), "
                    "or mark deliberately per-process state with "
                    "`# repro: noqa RPR011`",
                    file=info.file,
                    line=line,
                    col=col,
                )
            )


# ---------------------------------------------------------------------------
# resource paths: leaked locals (RPR012) and never-unlinked segments (RPR005)


def _resource_kind(
    index: ProjectIndex, mod: ModuleInfo, call: ast.Call
) -> str | None:
    """Classify a constructor call as a tracked resource, or None."""
    f = call.func
    tail = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
    text = _dotted_text(f) if tail in _RESOURCE_CTORS else None
    if text is None:
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


def _resource_pass(index: ProjectIndex, result: InterproceduralResult) -> None:
    """RPR012 and RPR005 from one walk of each function's resource
    constructors: a resource bound to a local that leaks on some CFG
    path is RPR012's; every other ``create=True`` segment in a module
    that never unlinks is RPR005's."""
    unlinks: dict[str, bool] = {}
    for info in index.functions.values():
        mod = index.modules[info.module]
        kinds: dict[ast.expr, str] = {}
        bound: list[tuple[ast.Assign, str]] = []
        for node in _walk_own(info.node):
            if isinstance(node, ast.Call):
                kind = _resource_kind(index, mod, node)
                if kind is not None:
                    kinds[node] = kind
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    bound.append((node, target.id))
        if not kinds:
            continue
        leaked: set[ast.expr] = set()
        cfg: CFG | None = None
        for stmt, name in bound:
            if stmt.value not in kinds:
                continue
            if cfg is None:
                cfg = CFG.build(info.node)
            if not _leaks(cfg, info.node, stmt, name):
                continue
            leaked.add(stmt.value)
            result.findings.append(
                Finding.make(
                    "RPR012",
                    Severity.WARNING,
                    f"{kinds[stmt.value]} {name!r} is not released on every "
                    f"path out of {info.name}()",
                    hint="release in a finally (or `with`), or hand "
                    "ownership out explicitly (return it / store it "
                    "/ atexit.register the cleanup) on every path",
                    file=info.file,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                )
            )
        for call, kind in kinds.items():
            if kind != _SEGMENT or call in leaked:
                continue
            if info.module not in unlinks:
                unlinks[info.module] = _module_unlinks(mod.tree)
            if unlinks[info.module]:
                continue
            result.findings.append(
                Finding.make(
                    "RPR005",
                    Severity.ERROR,
                    "SharedMemory(create=True) in a module that never "
                    "unlinks a segment",
                    hint="register cleanup (atexit.register or a finally "
                    "calling .close()/.unlink()) or the segment "
                    "outlives the process",
                    file=info.file,
                    line=call.lineno,
                    col=call.col_offset,
                )
            )


def _module_unlinks(tree: ast.Module) -> bool:
    """True when the module calls an ``unlink`` or ``atexit.register``
    anywhere (RPR005's evidence of segment cleanup)."""
    return any(
        isinstance(node, ast.Attribute)
        and (node.attr == "unlink" or _dotted_text(node) == "atexit.register")
        for node in ast.walk(tree)
    )


def _leaks(
    cfg: CFG, func: ast.AST, stmt: ast.Assign, name: str
) -> bool:
    """True when some CFG path from ``stmt`` reaches the function exit,
    or a rebinding of ``name``, without releasing or handing off the
    resource ``stmt`` bound to it."""
    start = cfg.node_for(stmt)
    if start is None:
        return False  # inside a class body the CFG does not enter
    stops = {
        n.id
        for n in cfg.nodes
        if n.stmt is not None
        and n.stmt is not stmt
        and (_releases(n.stmt, name) or _escapes(n.stmt, name))
    }
    # a release anywhere inside a finally body counts for every path
    # through that finally — a guard around the shutdown (``if pool is
    # not None: pool.shutdown()``) usually correlates with the creation
    # branch, which path-insensitive reachability cannot see
    releasing_finals = _finally_releases(func, name)
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
    return cfg.paths_escape(start, stops=stops | leaks) or _reaches(
        cfg, start, leaks, stops
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
# deadline polling (RPR004)


def _deadline_derived_names(func: ast.AST) -> set[str]:
    """``deadline`` plus every local name whose value is computed from
    it (``fast = ... and deadline is None``): a branch on a derived flag
    is a branch on the deadline.  The propagation is a tiny
    intra-function fixpoint over assignments."""
    tracked = {"deadline"}
    assigns = [n for n in _walk_own(func) if isinstance(n, ast.Assign)]
    changed = True
    while changed:
        changed = False
        for node in assigns:
            if not _names_in(node.value) & tracked:
                continue
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id not in tracked:
                    tracked.add(t.id)
                    changed = True
    return tracked


def _unguarded_loops(func: ast.AST, tracked: set[str]) -> Iterator[ast.While]:
    """Unbounded ``while`` loops (a constant-true or bare-name test, the
    classic search-loop shapes) that no enclosing ``if`` on a
    ``tracked`` name guards (the compiled kernel's ``fast`` flag: the
    branch already encodes the budget decision)."""

    def walk(node: ast.AST, guard: bool) -> Iterator[ast.While]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            g = guard or (
                isinstance(child, ast.If)
                and bool(_names_in(child.test) & tracked)
            )
            if isinstance(child, ast.While) and not g:
                test = child.test
                if (
                    isinstance(test, ast.Constant) and bool(test.value)
                ) or isinstance(test, ast.Name):
                    yield child
            yield from walk(child, g)

    yield from walk(func, False)


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
    """An unbounded loop in a ``deadline``-taking function is bounded
    when it mentions the deadline (or a name derived from it) or calls a
    function that polls one; otherwise it is RPR004."""
    polls: set[str] | None = None  # the closure, built on first need
    for qual, info in index.functions.items():
        if isinstance(info.node, ast.Lambda) or "deadline" not in info.params:
            continue
        tracked = _deadline_derived_names(info.node)
        loops = [
            loop
            for loop in _unguarded_loops(info.node, tracked)
            if not _names_in(loop) & tracked
        ]
        if not loops:
            continue
        if polls is None:
            polls = _polling_closure(index, graph)
        poll_lines = [
            s.lineno
            for s in graph.callees(qual)
            if s.kind == "call" and not s.external and s.callee in polls
        ]
        for loop in loops:
            end = loop.end_lineno or loop.lineno
            if any(loop.lineno <= n <= end for n in poll_lines):
                continue
            result.findings.append(
                Finding.make(
                    "RPR004",
                    Severity.WARNING,
                    f"unbounded loop in {info.name}() never polls the "
                    f"deadline parameter",
                    hint="call deadline.poll() (masked is fine) inside the "
                    "loop, or document why the loop is bounded and "
                    "suppress with `# repro: noqa RPR004`",
                    file=info.file,
                    line=loop.lineno,
                    col=loop.col_offset,
                )
            )
