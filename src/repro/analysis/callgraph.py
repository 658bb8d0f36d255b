"""Whole-program call graph over the analysed Python sources.

:class:`ProjectIndex` parses every module once and records what a
name-resolution pass needs: module-level functions, classes and their
methods, import aliases (absolute and relative), nested functions and
lambdas.  :class:`CallGraph` then resolves every call site in every
function body to either a *project* function (a qualified name such as
``repro.core.kernel.dijkstra`` or ``repro.service.server.Server.start``)
or an *external* dotted name (``ext:time.sleep``), producing typed
edges.

Edges carry a *kind*, because how a callee is reached decides which
hazards apply:

``call``
    ordinary synchronous invocation (also decorator application and
    ``atexit.register`` callbacks — they run in this process).
``task``
    ``asyncio.create_task`` / ``ensure_future`` — the coroutine runs on
    the same event loop.
``spawn-thread``
    ``ThreadPoolExecutor.submit/map``, ``asyncio.to_thread``,
    ``loop.run_in_executor``, ``threading.Thread(target=...)`` — the
    callee runs off-loop but in this process.
``spawn-process``
    ``ProcessPoolExecutor`` submit/map/initializer,
    ``multiprocessing.Process(target=...)`` (including through a cached
    ``get_context(...)`` handle) — the callee runs in a *child* process
    under ``spawn``: module globals are copies, locks are meaningless
    across the boundary.
``spawn``
    a submit to an executor whose concrete type could not be inferred.

Resolution is deliberately *best-effort and unsound* (documented in
``docs/ANALYSIS.md``): direct names, ``self``/``cls`` methods,
single-assignment local types (``x = ClassName(...)``, annotated
parameters, project constructors and annotated return types),
``functools.partial``, lambdas handed to executors and the builtin
``open`` (unless an import, module global or local rebinds the name)
all resolve; arbitrary higher-order flow and monkey-patching do not.
Unresolved calls simply produce no edge — the dataflow passes built on
top treat missing edges as "no evidence", never as proof of safety.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "CallSite",
    "LockAcquisition",
    "CallGraph",
    "EXT_PREFIX",
]

#: prefix marking an edge to a function outside the analysed project
EXT_PREFIX = "ext:"

#: executor/pool constructors by spawn kind
_PROCESS_POOLS = {"ProcessPoolExecutor", "Pool"}
_THREAD_POOLS = {"ThreadPoolExecutor"}

#: method names that schedule their first argument on the receiver
_SUBMIT_METHODS = {"submit", "map", "apply_async", "map_async"}

#: marker type for ``multiprocessing.get_context(...)`` handles
_MP_CONTEXT = "<mp-context>"


@dataclass(slots=True)
class FunctionInfo:
    """One project function/method/lambda the graph can resolve to."""

    qualname: str
    module: str
    file: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    is_async: bool
    #: qualified name of the enclosing class, or None for free functions
    cls: str | None = None
    name: str = ""
    lineno: int = 0

    @property
    def params(self) -> list[str]:
        a = self.node.args
        return [
            p.arg
            for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]
        ]


@dataclass(slots=True)
class ClassInfo:
    """A project class: methods, bases (as written), inferred attr types."""

    qualname: str
    module: str
    #: base-class expressions as source text, resolution deferred
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> inferred type qualname (from ctor assignments)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module and its top-level namespace."""

    name: str
    file: str
    tree: ast.Module
    #: import alias -> absolute dotted target ("np" -> "numpy",
    #: "Finding" -> "repro.analysis.findings.Finding")
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level function name -> qualname
    functions: dict[str, str] = field(default_factory=dict)
    #: class name -> qualname
    classes: dict[str, str] = field(default_factory=dict)
    #: module-level names assigned (the global-mutation universe)
    globals: set[str] = field(default_factory=set)
    #: module-level names bound to a lock constructor (threading.Lock()
    #: and friends) — lock identity beyond the "name contains lock"
    #: heuristic
    lock_globals: set[str] = field(default_factory=set)


def module_name_for(
    path: str, is_file: "Callable[[str], bool]" = os.path.isfile
) -> str:
    """Dotted module name for a file, by walking up ``__init__.py``s.

    Files outside any package resolve to their bare stem, which keeps
    single-file test snippets addressable.  ``is_file`` exists so an
    index built from in-memory sources can treat its own items as
    present (packages that are not on disk).
    """
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    d = os.path.dirname(path)
    while is_file(os.path.join(d, "__init__.py")):
        parts.append(os.path.basename(d))
        parent = os.path.dirname(d)
        if parent == d:  # filesystem root
            break
        d = parent
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


def _dotted_text(node: ast.AST) -> str | None:
    """``a.b.c`` text for a pure attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: constructor names that produce a mutual-exclusion object
_LOCK_CTORS = {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}


def _is_lock_ctor(expr: ast.expr) -> bool:
    """``threading.Lock()`` / ``RLock()`` / an mp context's ``.Lock()``."""
    if not isinstance(expr, ast.Call):
        return False
    text = _dotted_text(expr.func)
    return text is not None and text.rsplit(".", 1)[-1] in _LOCK_CTORS


class ProjectIndex:
    """Every module of the analysed project, parsed and indexed once."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: file path -> module name (driver lookups)
        self.by_file: dict[str, str] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, items: Iterable[tuple[str, str, ast.Module]]
    ) -> "ProjectIndex":
        """Index ``(path, source, tree)`` triples (one per module)."""
        index = cls()
        batch = list(items)
        known = {os.path.abspath(p) for p, _s, _t in batch}

        def is_file(p: str) -> bool:
            return os.path.abspath(p) in known or os.path.isfile(p)

        for path, _source, tree in batch:
            index.add_module(path, tree, is_file=is_file)
        return index

    def add_module(
        self,
        path: str,
        tree: ast.Module,
        is_file: "Callable[[str], bool]" = os.path.isfile,
    ) -> ModuleInfo:
        name = module_name_for(path, is_file)
        mod = ModuleInfo(name=name, file=path, tree=tree)
        self.modules[name] = mod
        self.by_file[os.path.abspath(path)] = name
        self._collect_imports(mod)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, prefix=name, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        mod.globals.add(t.id)
                        if _is_lock_ctor(node.value):
                            mod.lock_globals.add(t.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                mod.globals.add(node.target.id)
                if node.value is not None and _is_lock_ctor(node.value):
                    mod.lock_globals.add(node.target.id)
        return mod

    def _collect_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    mod.imports[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0]
                    )
                    if a.asname is None and "." in a.name:
                        # `import a.b.c` binds `a`; the chain resolves
                        # lazily through attribute lookups
                        mod.imports[a.name.split(".")[0]] = a.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(mod.name, node)
                for a in node.names:
                    if a.name == "*":
                        continue
                    mod.imports[a.asname or a.name] = (
                        f"{base}.{a.name}" if base else a.name
                    )

    @staticmethod
    def _resolve_from(modname: str, node: ast.ImportFrom) -> str:
        """Absolute dotted base of a ``from X import ...`` statement."""
        if node.level == 0:
            return node.module or ""
        parts = modname.split(".")
        # `from . import x` in package module a.b.c strips `level` tails
        # (the module itself counts as one level)
        base = parts[: len(parts) - node.level]
        if node.module:
            base.append(node.module)
        return ".".join(base)

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        prefix: str,
        cls: str | None,
    ) -> FunctionInfo:
        qual = f"{prefix}.{node.name}"
        if prefix in self.functions and qual in self.functions:
            # a nested name defined twice (one closure per branch): the
            # repeat gets its own key, as a lambda does, so both bodies
            # are indexed
            qual = f"{qual}<def:{node.lineno}>"
        info = FunctionInfo(
            qualname=qual,
            module=mod.name,
            file=mod.file,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            cls=cls,
            name=node.name,
            lineno=node.lineno,
        )
        self.functions[qual] = info
        if cls is None and prefix == mod.name:
            mod.functions[node.name] = qual
        # nested defs/lambdas are their own nodes, qualified by parent
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._direct_parent_function(node, child) is node:
                    self._add_function(mod, child, prefix=qual, cls=cls)
            elif isinstance(child, ast.Lambda):
                if self._direct_parent_function(node, child) is node:
                    lq = f"{qual}.<lambda:{child.lineno}>"
                    self.functions[lq] = FunctionInfo(
                        qualname=lq,
                        module=mod.name,
                        file=mod.file,
                        node=child,
                        is_async=False,
                        cls=cls,
                        name="<lambda>",
                        lineno=child.lineno,
                    )
        return info

    @staticmethod
    def _direct_parent_function(
        root: ast.AST, target: ast.AST
    ) -> ast.AST | None:
        """The innermost function/lambda enclosing ``target`` under
        ``root`` (``root`` itself when none is nested between)."""
        parent: ast.AST | None = None

        def walk(node: ast.AST, owner: ast.AST) -> None:
            nonlocal parent
            for child in ast.iter_child_nodes(node):
                if child is target:
                    parent = owner
                    return
                next_owner = owner
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    next_owner = child
                walk(child, next_owner)
                if parent is not None:
                    return

        walk(root, root)
        return parent

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.name}.{node.name}"
        ci = ClassInfo(qualname=qual, module=mod.name)
        for b in node.bases:
            text = _dotted_text(b)
            if text:
                ci.bases.append(text)
        self.classes[qual] = ci
        mod.classes[node.name] = qual
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = self._add_function(
                    mod, child, prefix=qual, cls=qual
                )
                ci.methods[child.name] = fi.qualname
        # infer `self.<attr>` types from constructor-call assignments
        for child in ast.walk(node):
            if not isinstance(child, ast.Assign):
                continue
            for t in child.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    and isinstance(child.value, ast.Call)
                ):
                    typ = self._ctor_type(mod, child.value)
                    if typ is not None:
                        ci.attr_types.setdefault(t.attr, typ)

    def _ctor_type(self, mod: ModuleInfo, call: ast.Call) -> str | None:
        """Type qualname produced by a constructor-ish call, if known."""
        text = _dotted_text(call.func)
        if text is None:
            return None
        resolved = self.resolve_name(mod, text)
        if resolved is not None and resolved in self.classes:
            return resolved
        ext = self.external_name(mod, text)
        if ext is not None:
            tail = ext.rsplit(".", 1)[-1]
            if tail in _PROCESS_POOLS | _THREAD_POOLS | {"Process", "Thread"}:
                return ext
            if ext in ("multiprocessing.get_context",):
                return _MP_CONTEXT
        # project function with an annotated class return type
        if resolved is not None and resolved in self.functions:
            ret = getattr(self.functions[resolved].node, "returns", None)
            if ret is not None:
                rtext = _dotted_text(ret) or (
                    ret.value if isinstance(ret, ast.Constant) else None
                )
                if isinstance(rtext, str):
                    rmod = self.modules.get(self.functions[resolved].module)
                    if rmod is not None:
                        typ = self.resolve_name(rmod, rtext)
                        if typ in self.classes:
                            return typ
                        etyp = self.external_name(rmod, rtext)
                        if etyp and etyp.rsplit(".", 1)[-1] in (
                            _PROCESS_POOLS | _THREAD_POOLS
                        ):
                            return etyp
        return None

    # -- lookup ------------------------------------------------------------

    def resolve_name(self, mod: ModuleInfo, dotted: str) -> str | None:
        """Resolve ``dotted`` (as written in ``mod``) to a project
        function/class qualname, or None."""
        head, _, rest = dotted.partition(".")
        # locally defined?
        candidates: list[str] = []
        if head in mod.functions:
            candidates.append(mod.functions[head])
        if head in mod.classes:
            candidates.append(mod.classes[head])
        if head in mod.imports:
            candidates.append(mod.imports[head])
        candidates.append(f"{mod.name}.{head}" if rest else "")
        for base in candidates:
            if not base:
                continue
            qual = f"{base}.{rest}" if rest else base
            hit = self._project_qual(qual)
            if hit is not None:
                return hit
        return None

    def _project_qual(self, qual: str) -> str | None:
        """Canonical project qualname for ``qual``, following module
        attribute chains (``repro.arch.graph.np_columns``)."""
        if qual in self.functions or qual in self.classes:
            return qual
        # a module attr: "pkg.mod.attr" where "pkg.mod" is indexed
        base, _, attr = qual.rpartition(".")
        if not base or not attr:
            return None
        m = self.modules.get(base)
        if m is not None:
            if attr in m.functions:
                return m.functions[attr]
            if attr in m.classes:
                return m.classes[attr]
            # re-export: follow one import hop
            target = m.imports.get(attr)
            if target is not None and target != qual:
                return self._project_qual(target)
        return None

    def external_name(self, mod: ModuleInfo, dotted: str) -> str | None:
        """Absolute external dotted name for ``dotted``, or None if the
        name is project-internal/unknown."""
        head, _, rest = dotted.partition(".")
        target = mod.imports.get(head, head)
        full = f"{target}.{rest}" if rest else target
        if self._project_qual(full) is not None:
            return None
        if full.split(".")[0] in self.modules:
            return None
        return full

    def method_on(self, type_qual: str, method: str) -> str | None:
        """Resolve ``method`` on project class ``type_qual`` (walking
        same-project base classes)."""
        seen: set[str] = set()
        stack = [type_qual]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            ci = self.classes.get(t)
            if ci is None:
                continue
            if method in ci.methods:
                return ci.methods[method]
            base_mod = self.modules[ci.module]
            for b in ci.bases:
                resolved = self.resolve_name(base_mod, b)
                if resolved is not None:
                    stack.append(resolved)
        return None


# ---------------------------------------------------------------------------
# call-site extraction


@dataclass(frozen=True, slots=True)
class LockAcquisition:
    """One ``with <lock>:`` entry and the locks already held there."""

    func: str
    lock: str
    held: tuple[str, ...]
    file: str
    lineno: int


@dataclass(frozen=True, slots=True)
class CallSite:
    """One resolved edge: ``caller`` invokes/schedules ``callee``."""

    caller: str
    #: project qualname, or ``ext:<dotted>`` for external targets
    callee: str
    kind: str  # call | task | spawn-thread | spawn-process | spawn
    file: str
    lineno: int
    col: int
    #: True when the call site sits under an ``await`` expression
    awaited: bool = False
    #: lock names held (outermost first) at this call site
    locks: tuple[str, ...] = ()

    @property
    def external(self) -> bool:
        return self.callee.startswith(EXT_PREFIX)

    @property
    def target(self) -> str:
        """Callee with the ``ext:`` prefix stripped."""
        return self.callee[len(EXT_PREFIX):] if self.external else self.callee


class CallGraph:
    """Typed, project-wide call graph built from a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: list[CallSite] = []
        #: every ``with <lock>:`` acquisition, per function
        self.acquisitions: dict[str, list[LockAcquisition]] = {}
        self._out: dict[str, list[CallSite]] = {}

    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        graph = cls(index)
        for info in list(index.functions.values()):
            _FunctionResolver(graph, info).run()
        for site in graph.edges:
            graph._out.setdefault(site.caller, []).append(site)
        return graph

    # -- queries -----------------------------------------------------------

    def callees(self, qual: str) -> list[CallSite]:
        return self._out.get(qual, [])

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Project functions reachable from ``roots`` along edges of
        every kind."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.index.functions]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            for site in self.callees(q):
                if not site.external and site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def spawn_process_roots(self) -> set[str]:
        """Project functions that are entry points of a child process."""
        return {
            s.callee
            for s in self.edges
            if s.kind == "spawn-process" and not s.external
        }

    def shortest_chain(self, start: str, goals: set[str]) -> list[CallSite]:
        """BFS chain of call-kind edges from ``start`` to any callee in
        ``goals``; empty when unreachable."""
        prev: dict[str, CallSite] = {}
        seen = {start}
        queue = [start]
        while queue:
            q = queue.pop(0)
            for site in self.callees(q):
                key = site.callee
                if key in seen or site.kind != "call":
                    continue
                seen.add(key)
                prev[key] = site
                if key in goals:
                    chain: list[CallSite] = []
                    cur = key
                    while cur != start:
                        chain.append(prev[cur])
                        cur = prev[cur].caller
                    return list(reversed(chain))
                if not site.external:
                    queue.append(key)
        return []


class _FunctionResolver:
    """Resolve every call site inside one function body."""

    def __init__(self, graph: CallGraph, info: FunctionInfo) -> None:
        self.graph = graph
        self.index = graph.index
        self.info = info
        self.mod = self.index.modules[info.module]
        #: local name -> project function qualname or ext:name (callables)
        self.func_env: dict[str, str] = {}
        #: local name -> type qualname (project class or marker external)
        self.type_env: dict[str, str] = {}
        self._seed_envs()

    # -- environments ------------------------------------------------------

    def _seed_envs(self) -> None:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            return
        # annotated parameters give types
        a = node.args
        for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
            if p.annotation is not None:
                text = _dotted_text(p.annotation)
                if text:
                    t = self.index.resolve_name(self.mod, text)
                    if t in self.index.classes:
                        self.type_env[p.arg] = t
        # nested defs are local callables
        for child in node.body:
            self._scan_stmt_env(child)
        for child in ast.walk(node):
            if (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not node
                and self.index._direct_parent_function(node, child) is node
            ):
                self.func_env[child.name] = f"{self.info.qualname}.{child.name}"

    def _scan_stmt_env(self, stmt: ast.stmt) -> None:
        """Flow-insensitive env from simple-name assignments (including
        ones nested under if/with/try bodies)."""
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if not names:
                continue
            v = node.value
            ref = self._func_ref(v, record_lambda=False)
            if ref is not None:
                for n in names:
                    self.func_env.setdefault(n, ref)
                continue
            if isinstance(v, ast.Call):
                typ = self.index._ctor_type(self.mod, v)
                if typ is not None:
                    for n in names:
                        # two branches can bind incompatible pool types;
                        # first write wins, spawn kind degrades to "spawn"
                        # when a later conflicting bind is seen
                        if (
                            n in self.type_env
                            and self.type_env[n] != typ
                        ):
                            self.type_env[n] = "<ambiguous>"
                        else:
                            self.type_env.setdefault(n, typ)

    # -- function references ----------------------------------------------

    def _func_ref(
        self, node: ast.AST, *, record_lambda: bool = True
    ) -> str | None:
        """Resolve an expression *referencing* a callable (not calling
        it): names, attributes, ``functools.partial``, lambdas."""
        if isinstance(node, ast.Lambda):
            lq = f"{self.info.qualname}.<lambda:{node.lineno}>"
            return lq if lq in self.index.functions else None
        if isinstance(node, ast.Call):
            # partial(f, ...) forwards to f
            text = _dotted_text(node.func)
            if text is not None:
                ext = self.index.external_name(self.mod, text)
                if (ext == "functools.partial" or text == "partial") and (
                    node.args
                ):
                    return self._func_ref(node.args[0])
            return None
        if isinstance(node, ast.Name):
            if node.id in self.func_env:
                return self.func_env[node.id]
            resolved = self.index.resolve_name(self.mod, node.id)
            if resolved in self.index.functions:
                return resolved
            if resolved in self.index.classes:
                ctor = self.index.method_on(resolved, "__init__")
                return ctor
            ext = self.index.external_name(self.mod, node.id)
            if ext is not None and node.id in self.mod.imports:
                return EXT_PREFIX + ext
            if node.id == "open" and not self._shadowed(node.id):
                return EXT_PREFIX + "open"  # the builtin
            return None
        if isinstance(node, ast.Attribute):
            text = _dotted_text(node)
            if text is None:
                return None
            # self.method / typed-local.method
            root = text.split(".")[0]
            if root == "self" and self.info.cls is not None:
                return self._self_attr_ref(text)
            if root in self.type_env:
                t = self.type_env[root]
                if t in self.index.classes and text.count(".") == 1:
                    return self.index.method_on(t, text.split(".")[1])
            resolved = self.index.resolve_name(self.mod, text)
            if resolved in self.index.functions:
                return resolved
            if resolved in self.index.classes:
                return self.index.method_on(resolved, "__init__")
            ext = self.index.external_name(self.mod, text)
            if ext is not None:
                return EXT_PREFIX + ext
        return None

    def _shadowed(self, name: str) -> bool:
        """True when a module global, a parameter or a local assignment
        rebinds ``name`` (imports and defs resolve before this test)."""
        return name in self.mod.globals or name in self.info.params or any(
            isinstance(n, ast.Name) and n.id == name
            and isinstance(n.ctx, ast.Store)
            for n in ast.walk(self.info.node)
        )

    def _self_attr_ref(self, dotted: str) -> str | None:
        """Resolve ``self.x`` / ``self.x.y`` through methods and the
        class's inferred attribute types."""
        assert self.info.cls is not None
        parts = dotted.split(".")
        if len(parts) == 2:
            return self.index.method_on(self.info.cls, parts[1])
        if len(parts) == 3:
            ci = self.index.classes.get(self.info.cls)
            if ci is not None:
                t = ci.attr_types.get(parts[1])
                if t in self.index.classes:
                    return self.index.method_on(t, parts[2])
        return None

    def _receiver_type(self, node: ast.AST) -> str | None:
        """Best-effort type of a method call's receiver expression."""
        if isinstance(node, ast.Name):
            t = self.type_env.get(node.id)
            if t is not None:
                return t
            resolved = self.index.resolve_name(self.mod, node.id)
            if resolved in self.index.classes:
                return resolved
            ext = self.index.external_name(self.mod, node.id)
            return ext
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.info.cls is not None
            ):
                ci = self.index.classes.get(self.info.cls)
                if ci is not None:
                    return ci.attr_types.get(node.attr)
            text = _dotted_text(node)
            if text is not None:
                resolved = self.index.resolve_name(self.mod, text)
                if resolved in self.index.classes:
                    return resolved
        if isinstance(node, ast.Call):
            return self.index._ctor_type(self.mod, node)
        return None

    # -- traversal ---------------------------------------------------------

    def run(self) -> None:
        node = self.info.node
        body: list[ast.stmt] | ast.expr
        if isinstance(node, ast.Lambda):
            self._walk_expr(node.body, awaited=False, locks=())
            return
        for stmt in node.body:
            self._walk_stmt(stmt, locks=())
        # decorators run at definition time in the defining module
        for dec in node.decorator_list:
            self._visit_call_like(dec, awaited=False, locks=())

    def _walk_stmt(self, stmt: ast.stmt, locks: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested function bodies resolve as their own callers
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new_locks = locks
            for item in stmt.items:
                self._walk_expr(item.context_expr, awaited=False, locks=locks)
                lock_id = self.lock_id(item.context_expr)
                if lock_id is not None:
                    self.graph.acquisitions.setdefault(
                        self.info.qualname, []
                    ).append(
                        LockAcquisition(
                            func=self.info.qualname,
                            lock=lock_id,
                            held=new_locks,
                            file=self.info.file,
                            lineno=stmt.lineno,
                        )
                    )
                    new_locks = new_locks + (lock_id,)
            for s in stmt.body:
                self._walk_stmt(s, new_locks)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._walk_expr(child, awaited=False, locks=locks)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child, locks)
            else:
                # arguments/keywords/handlers etc.: descend generically
                for sub in ast.walk(child):
                    if isinstance(sub, ast.stmt):
                        self._walk_stmt(sub, locks)
                        break
                else:
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.expr):
                            self._walk_expr(sub, awaited=False, locks=locks)
                if isinstance(child, (ast.excepthandler,)):
                    for s in child.body:
                        self._walk_stmt(s, locks)

    def _walk_expr(
        self, expr: ast.expr, *, awaited: bool, locks: tuple[str, ...]
    ) -> None:
        if isinstance(expr, ast.Await):
            self._walk_expr(expr.value, awaited=True, locks=locks)
            return
        if isinstance(expr, ast.Call):
            self._visit_call_like(expr, awaited=awaited, locks=locks)
            return
        if isinstance(expr, (ast.Lambda,)):
            return  # lambda bodies are their own callers
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expr(child, awaited=False, locks=locks)
            else:
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self._walk_expr(sub, awaited=False, locks=locks)

    # -- lock identity ------------------------------------------------------

    def lock_id(self, expr: ast.expr) -> str | None:
        """Canonical cross-function name for a lock-ish ``with`` context.

        ``_LOCK`` (module global) -> ``module._LOCK``; ``self._lock`` ->
        ``module.Class._lock``; a typed local's attr -> its class.  The
        "is it a lock" test is the same text heuristic RPR002 uses.
        """
        text = _dotted_text(expr)
        if text is None:
            return None
        parts = text.split(".")
        lockish = "lock" in text.lower() or (
            parts[0] in self.mod.lock_globals and len(parts) == 1
        )
        if not lockish:
            return None
        if parts[0] == "self" and self.info.cls is not None and len(parts) == 2:
            return f"{self.info.cls}.{parts[1]}"
        if len(parts) == 1:
            if parts[0] in self.mod.globals:
                return f"{self.mod.name}.{parts[0]}"
            return f"{self.info.qualname}.{parts[0]}"
        root = parts[0]
        t = self.type_env.get(root)
        if t is not None and t in self.index.classes and len(parts) == 2:
            return f"{t}.{parts[1]}"
        if root in self.mod.globals:
            return f"{self.mod.name}.{text}"
        return f"{self.mod.name}:{text}"

    # -- call classification -----------------------------------------------

    def _emit(
        self,
        node: ast.AST,
        callee: str | None,
        kind: str,
        *,
        awaited: bool = False,
        locks: tuple[str, ...] = (),
    ) -> None:
        if callee is None:
            return
        self.graph.edges.append(
            CallSite(
                caller=self.info.qualname,
                callee=callee,
                kind=kind,
                file=self.info.file,
                lineno=getattr(node, "lineno", self.info.lineno),
                col=getattr(node, "col_offset", 0),
                awaited=awaited,
                locks=locks,
            )
        )

    def _spawn_kind_for_type(self, t: str | None) -> str:
        if t is None or t == "<ambiguous>":
            return "spawn"
        tail = t.rsplit(".", 1)[-1]
        if tail in _PROCESS_POOLS:
            return "spawn-process"
        if tail in _THREAD_POOLS:
            return "spawn-thread"
        return "spawn"

    def _visit_call_like(
        self, node: ast.expr, *, awaited: bool, locks: tuple[str, ...]
    ) -> None:
        if not isinstance(node, ast.Call):
            # bare decorator reference: @functools.wraps(f) handled via
            # Call branch; @property etc. produce no edge
            return
        func = node.func
        handled_args: set[int] = set()
        text = _dotted_text(func)
        ext = self.index.external_name(self.mod, text) if text else None

        # executor.submit(f, ...) / executor.map(f, ...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SUBMIT_METHODS
            and node.args
        ):
            rtype = self._receiver_type(func.value)
            kind = self._spawn_kind_for_type(rtype)
            ref = self._func_ref(node.args[0])
            if ref is not None:
                self._emit(node, ref, kind, locks=locks)
                handled_args.add(0)
        # asyncio.to_thread(f, ...) / loop.run_in_executor(ex, f, ...)
        if ext == "asyncio.to_thread" and node.args:
            self._emit(node, self._func_ref(node.args[0]), "spawn-thread",
                       locks=locks)
            handled_args.add(0)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "run_in_executor"
            and len(node.args) >= 2
        ):
            self._emit(node, self._func_ref(node.args[1]), "spawn-thread",
                       locks=locks)
            handled_args.add(1)
        # asyncio.create_task(coro()) / ensure_future
        if ext in ("asyncio.create_task", "asyncio.ensure_future") and (
            node.args
        ):
            inner = node.args[0]
            if isinstance(inner, ast.Call):
                ref = self._func_ref(inner.func)
                self._emit(node, ref, "task", locks=locks)
        # Thread(target=f) / Process(target=f) / pool(initializer=f)
        ctor_type = None
        if text is not None:
            resolved = self.index.resolve_name(self.mod, text)
            if resolved in self.index.classes:
                ctor_type = resolved
        tail = (ext or text or "").rsplit(".", 1)[-1]
        recv_t = (
            self._receiver_type(func.value)
            if isinstance(func, ast.Attribute)
            else None
        )
        is_thread_ctor = tail == "Thread" and ext is not None
        is_process_ctor = (
            (tail == "Process" and (ext is not None or recv_t == _MP_CONTEXT))
        )
        is_pool_ctor = tail in _PROCESS_POOLS | _THREAD_POOLS and (
            ext is not None or recv_t == _MP_CONTEXT
        )
        if is_thread_ctor or is_process_ctor or is_pool_ctor:
            spawn = (
                "spawn-thread"
                if is_thread_ctor or tail in _THREAD_POOLS
                else "spawn-process"
            )
            for kw in node.keywords:
                if kw.arg in ("target", "initializer"):
                    self._emit(node, self._func_ref(kw.value), spawn,
                               locks=locks)
        # atexit.register(f): runs in-process at exit
        if ext == "atexit.register" and node.args:
            self._emit(node, self._func_ref(node.args[0]), "call",
                       locks=locks)
            handled_args.add(0)

        # the ordinary call edge for the callee expression itself
        if not (is_thread_ctor or is_process_ctor or is_pool_ctor):
            ref = self._func_ref(func)
            if ref is not None and not (
                isinstance(func, ast.Attribute)
                and func.attr in _SUBMIT_METHODS
            ):
                self._emit(node, ref, "call", awaited=awaited, locks=locks)
        elif ctor_type is not None:
            ctor = self.index.method_on(ctor_type, "__init__")
            self._emit(node, ctor, "call", locks=locks)

        # descend into arguments (skipping ones consumed as spawn refs)
        for i, a in enumerate(node.args):
            if i in handled_args and not isinstance(a, ast.Call):
                continue
            self._walk_expr(a, awaited=False, locks=locks)
        for kw in node.keywords:
            self._walk_expr(kw.value, awaited=False, locks=locks)
        if isinstance(func, ast.Attribute):
            self._walk_expr(func.value, awaited=False, locks=locks)
