"""Layer 2: the per-file AST pass over our own source.

Each rule here is a named, regression-proof form of a bug class a
previous PR actually hit and fixed: ``id()``-keyed caches aliasing
collected objects (``RPR001``), executors constructed per loop
iteration (``RPR003``), broad excepts that swallow
:class:`~repro.errors.RoutingFailure` context (``RPR006``), and
per-element Python loops over numpy arrays in paths the vectorized
batch kernel exists to keep scalar-free (``RPR007``).  The pass is
purely syntactic (:mod:`ast`), needs no imports of the analysed code,
and sees one module at a time; every other code rule needs the call
graph and lives in :mod:`repro.analysis.dataflow`.

Suppression: a finding on a line containing ``# repro: noqa`` (all
rules) or ``# repro: noqa RPR004`` (listed rules only) is moved to the
report's ``suppressed`` list instead of dropped, so CI can still count
justified exceptions.  :func:`parse_noqa` and :func:`apply_noqa` serve
every code rule, whichever pass emitted it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize

from .findings import Finding, Severity

__all__ = ["lint_parsed", "parse_noqa", "apply_noqa"]

#: ``# repro: noqa`` / ``# repro: noqa RPR001,RPR004`` (ids optional).
#: Matched only inside a comment *token* (never a string literal), and a
#: back-quoted mention in documentation prose — ``# repro: noqa`` — is
#: not a suppression either (the unused-suppression rule RPR013 depends
#: on this); the directive may be stacked after another comment
#: section (after a coverage pragma, say).
_NOQA_RE = re.compile(
    r"(?<!`)#\s*repro:\s*noqa(?!`)"
    r"(?:\s*:?\s+(?P<ids>[A-Z]{2,3}\d{3}(?:[,\s]+[A-Z]{2,3}\d{3})*))?",
)

#: call names whose first positional argument is a mapping key
_KEYED_METHODS = {"get", "setdefault", "pop"}

#: executor/pool constructors (RPR003)
_POOLS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"}

#: broad exception classes (RPR006a)
_BROAD = {"Exception", "BaseException"}

#: module aliases whose calls produce numpy arrays (RPR007)
_NP_MODULES = {"np", "numpy"}

#: repo calls returning bundles of numpy columns (RPR007 tuple-assign)
_NP_BUNDLES = {"np_columns"}

#: struct-of-arrays state attributes holding numpy columns (RPR007)
_SOA_ATTRS = {"cost", "backptr", "node_epoch"}

#: project failure types whose silent discard loses structured context
_FAILURES = {"JRouteError", "RoutingFailure"}


def parse_noqa(source: str) -> dict[int, frozenset[str] | None]:
    """Map 1-based line -> suppressed rule ids (None = all rules).

    Directives are recognised only where Python sees a *comment*
    containing ``# repro: noqa`` as its own ``#`` section — a
    back-quoted mention in a doc comment or a string literal does not
    suppress anything, while a directive stacked after another comment
    (``# pragma: no cover  # repro: noqa RPR006``) does.
    """
    out: dict[int, frozenset[str] | None] = {}
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, SyntaxError, ValueError, IndentationError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _NOQA_RE.search(tok.string)
        if m is None:
            continue
        ids = m.group("ids")
        if ids is None:
            out[tok.start[0]] = None
        else:
            out[tok.start[0]] = frozenset(re.split(r"[,\s]+", ids.strip()))
    return out


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _contains_id_call(node: ast.AST) -> ast.Call | None:
    """The first ``id(...)`` call anywhere inside ``node``, if any."""
    for sub in ast.walk(node):
        if _is_id_call(sub):
            return sub  # type: ignore[return-value]
    return None


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name text of an expression (for messages)."""
    try:
        return ast.unparse(node)
    # message-rendering fallback: unparse failure must never abort a lint
    except Exception:  # pragma: no cover  # repro: noqa RPR006
        return "<expr>"


def _call_name(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return ""


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _np_rooted(call: ast.Call) -> bool:
    """True for calls rooted at the numpy module (``np.zeros(...)``,
    ``np.frombuffer(...).reshape(...)``, ...)."""
    f = call.func
    while isinstance(f, ast.Attribute):
        f = f.value
    if isinstance(f, ast.Call):
        return _np_rooted(f)
    return isinstance(f, ast.Name) and f.id in _NP_MODULES


class _CodeLinter(ast.NodeVisitor):
    """One pass over a module, accumulating findings.

    The visitor keeps two bits of scope context while descending: the
    enclosing loop stack (RPR003) and, per function scope, the names
    bound to numpy arrays (RPR007).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._loops: list[ast.For | ast.While] = []
        # names bound to numpy arrays, one frame per scope; nested
        # functions see enclosing frames (closures over SoA columns)
        self._arrays: list[set[str]] = [set()]

    # -- plumbing ----------------------------------------------------------

    def _emit(
        self,
        rule: str,
        severity: Severity,
        node: ast.AST,
        message: str,
        hint: str,
    ) -> None:
        self.findings.append(
            Finding.make(
                rule,
                severity,
                message,
                hint=hint,
                file=self.path,
                line=getattr(node, "lineno", None),
                col=getattr(node, "col_offset", None),
            )
        )

    # -- scope tracking ----------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._arrays.append(set())
        self.generic_visit(node)
        self._arrays.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_For(self, node: ast.For) -> None:
        self._check_array_loop(node)
        self._loops.append(node)
        self.generic_visit(node)
        self._loops.pop()

    def visit_While(self, node: ast.While) -> None:
        self._loops.append(node)
        self.generic_visit(node)
        self._loops.pop()

    # -- RPR001: id()-keyed caches -----------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        bad = _contains_id_call(node.slice)
        if bad is not None:
            self._emit(
                "RPR001",
                Severity.ERROR,
                bad,
                f"id(...) used as a mapping key in "
                f"{_dotted(node.value)}[...]",
                "CPython reuses ids after collection; key on a stable "
                "token (object field, weakref, or an explicit epoch)",
            )
        self.generic_visit(node)

    # -- RPR001 (keyed methods) / RPR003 -----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if (
            isinstance(node.func, ast.Attribute)
            and name in _KEYED_METHODS
            and node.args
        ):
            bad = _contains_id_call(node.args[0])
            if bad is not None:
                self._emit(
                    "RPR001",
                    Severity.ERROR,
                    bad,
                    f"id(...) used as the key of "
                    f"{_dotted(node.func)}(...)",
                    "CPython reuses ids after collection; key on a "
                    "stable token instead",
                )
        if name in _POOLS and self._loops:
            self._emit(
                "RPR003",
                Severity.WARNING,
                node,
                f"{name} constructed inside a loop",
                "hoist the pool out of the loop and reuse its workers "
                "across iterations",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_arrays(node)
        self.generic_visit(node)

    # -- RPR007: per-element loops over numpy arrays -----------------------

    def _is_array_name(self, name: str) -> bool:
        return any(name in frame for frame in self._arrays)

    def _track_arrays(self, node: ast.Assign) -> None:
        """Record names bound to numpy arrays by this assignment.

        Purely syntactic provenance: direct ``np.*`` construction,
        tuple-unpacking an SoA column bundle (``graph.np_columns()``),
        reading a struct-of-arrays state attribute, or slicing/viewing
        a name already known to be an array.
        """
        v = node.value
        arrayish = False
        if isinstance(v, ast.Call):
            arrayish = _np_rooted(v) or _call_name(v) in _NP_BUNDLES
        elif isinstance(v, ast.Attribute):
            arrayish = v.attr in _SOA_ATTRS
        elif isinstance(v, ast.Subscript):
            arrayish = isinstance(v.value, ast.Name) and self._is_array_name(
                v.value.id
            )
        if not arrayish:
            return
        frame = self._arrays[-1]
        for t in node.targets:
            if isinstance(t, ast.Name):
                frame.add(t.id)
            elif isinstance(t, (ast.Tuple, ast.List)):
                for elt in t.elts:
                    if isinstance(elt, ast.Name):
                        frame.add(elt.id)

    def _check_array_loop(self, node: ast.For) -> None:
        """Flag ``for`` loops that touch a numpy array one element at
        a time — directly iterating it, or indexing it through a
        ``range(...)`` loop variable.  ``zip``/``enumerate``/
        ``.tolist()`` iterations and ``while`` loops are out of scope
        (the scalar oracle uses ``# repro: noqa RPR007`` instead)."""
        it = node.iter
        if isinstance(it, ast.Name) and self._is_array_name(it.id):
            self._emit(
                "RPR007",
                Severity.WARNING,
                node,
                f"per-element for loop over numpy array {it.id!r}",
                "vectorize with numpy ufuncs/fancy indexing (see the "
                "batched SoA kernel), or mark a deliberate scalar "
                "oracle with `# repro: noqa RPR007`",
            )
            return
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and isinstance(node.target, ast.Name)
        ):
            return
        var = node.target.id
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Name)
                    and self._is_array_name(sub.value.id)
                    and var in _names_in(sub.slice)
                ):
                    self._emit(
                        "RPR007",
                        Severity.WARNING,
                        node,
                        f"range loop indexes numpy array "
                        f"{sub.value.id!r} one element at a time",
                        "vectorize with numpy ufuncs/fancy indexing "
                        "(see the batched SoA kernel), or mark a "
                        "deliberate scalar oracle with "
                        "`# repro: noqa RPR007`",
                    )
                    return

    # -- RPR006: swallowed exceptions --------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        names: set[str] = set()
        if node.type is not None:
            for sub in ast.walk(node.type):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
        has_raise = any(
            isinstance(sub, ast.Raise) for sub in ast.walk(node)
        )
        if node.type is None or names & _BROAD:
            if not has_raise:
                what = "bare except" if node.type is None else (
                    f"except {_dotted(node.type)}"
                )
                self._emit(
                    "RPR006",
                    Severity.WARNING,
                    node,
                    f"{what} swallows all failures (no re-raise in the "
                    f"handler)",
                    "catch the narrowest type that can actually occur, "
                    "or re-raise after cleanup",
                )
        elif names & _FAILURES:
            body = node.body
            if all(isinstance(s, (ast.Pass, ast.Continue)) for s in body):
                self._emit(
                    "RPR006",
                    Severity.WARNING,
                    node,
                    f"except {_dotted(node.type)} discards the failure "
                    f"and its structured context",
                    "log the failure (it carries row/col/wire context) "
                    "or let it propagate",
                )
        self.generic_visit(node)


def lint_parsed(path: str, tree: ast.Module) -> list[Finding]:
    """Raw syntactic findings for an already-parsed module.

    No suppression is applied: the driver merges these with the
    whole-program findings first, *then* resolves ``# repro: noqa`` once
    over the union (so a directive suppressing only a whole-program rule
    still counts as used).
    """
    linter = _CodeLinter(path)
    linter.visit(tree)
    return linter.findings


def apply_noqa(
    findings: list[Finding], noqa: dict[int, frozenset[str] | None]
) -> tuple[list[Finding], list[Finding], set[int]]:
    """Split findings into ``(kept, suppressed, used_directive_lines)``."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    used: set[int] = set()
    for f in findings:
        line = f.line or 0
        if line in noqa:
            ids = noqa[line]
            if ids is None or f.rule in ids:
                suppressed.append(f)
                used.add(line)
                continue
        kept.append(f)
    kept.sort(key=lambda f: (f.line or 0, f.col or 0, f.rule))
    return kept, suppressed, used
