"""Layer spans recorded from outside the program.

:class:`Recorder` wraps public functions and methods of the loaded
``repro`` modules.  Installing a target replaces, by object identity,
*every* binding of the original callable: the defining module, every
module that imported it by name (``from ..core.kernel import
dijkstra``) and every class attribute holding it.  :meth:`uninstall`
puts every binding back.

Install before building routers and sessions: ``JBits`` and
``DurableSession`` register *bound* listener methods when they are built
or entered, and a bound method captured before installation never sees
the wrapper.

Each call of a wrapped callable records one span -- name, start, end,
parent span and request -- in memory.  A span's request is its thread's
root span, or the id the target's ``tag`` function derives from the call
(the service tags spans with job ids).  :meth:`Recorder.save` writes the
spans out when the workload ends.  The untraced benchmark run never
imports this module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "Recorder", "TARGETS", "span_names", "span_metrics"]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module.owner.attr`` recorded as ``name``."""

    name: str
    module: str
    owner: str | None  #: class name inside ``module``; None for a function
    attr: str
    #: optional ``tag(args, result) -> str`` naming the request a call serves
    tag: Callable[[tuple, Any], str] | None = None


def _job_of_submit(args: tuple, result: Any) -> str:
    return result[1].job_id


def _job_of_self(args: tuple, result: Any) -> str:
    return args[0].job_id


def _job_of_response(args: tuple, result: Any) -> str:
    return result[1].get("job_id", "")


def _t(name: str, module: str, owner: str | None, attr: str, tag=None) -> Target:
    return Target(name, "repro." + module, owner, attr, tag)


#: Every layer boundary the benchmark times, grouped by layer (README.md
#: maps each group to the end-to-end metrics it should move).
TARGETS: tuple[Target, ...] = (
    # core.router: the public API calls are the root spans
    _t("api.route", "core.router", "JRouter", "route"),
    _t("api.route_p2p_batch", "core.router", "JRouter", "route_p2p_batch"),
    _t("api.route_nets", "core.router", "JRouter", "route_nets"),
    _t("api.unroute", "core.router", "JRouter", "unroute"),
    _t("api.reverse_unroute", "core.router", "JRouter", "reverse_unroute"),
    _t("api.trace", "core.router", "JRouter", "trace"),
    # core.wal
    _t("wal.append", "core.wal", "WriteAheadLog", "append"),
    _t("wal.checkpoint", "core.wal", "DurableSession", "checkpoint"),
    # device, jbits
    _t("device.turn_on", "device.fabric", "Device", "turn_on"),
    _t("device.turn_off", "device.fabric", "Device", "turn_off"),
    _t("device.turn_off", "device.fabric", "Device", "turn_off_driver"),
    _t("jbits.set_bit", "jbits.bitstream", "ConfigMemory", "set_bit"),
    # core.path, routers.template_router, routers.auto
    _t("path.resolve", "core.path", "Path", "resolve"),
    _t("router.template", "routers.template_router", None, "route_template"),
    _t("router.p2p", "routers.auto", None, "route_point_to_point"),
    _t("router.p2p_batch", "routers.auto", None, "route_point_to_point_batch"),
    # core.kernel (scalar), routers.maze
    _t("kernel.search", "core.kernel", None, "dijkstra"),
    _t("kernel.extract", "core.kernel", None, "extract_plan"),
    _t("router.maze", "routers.maze", None, "route_maze"),
    # core.kernel (batch)
    _t("kernel.search_batch", "core.kernel", None, "dijkstra_batch"),
    _t("router.maze_batch", "routers.maze", None, "route_maze_batch"),
    # arch.graph
    _t("graph.fault_mask", "arch.graph", "RoutingGraph", "fault_edge_mask"),
    _t("graph.compile", "arch.graph", "RoutingGraph", "compile"),
    # routers.pathfinder
    _t("router.pathfinder", "routers.pathfinder", None, "route_pathfinder"),
    # core.txn
    _t("txn.journal", "core.txn", "PipJournal", "record"),
    _t("txn.scope", "core.txn", "RouteTransaction", "__enter__"),
    _t("txn.scope", "core.txn", "RouteTransaction", "__exit__"),
    # core.unroute, core.tracer
    _t("unroute.forward", "core.unroute", None, "unroute_forward"),
    _t("unroute.reverse", "core.unroute", None, "unroute_reverse"),
    _t("tracer.trace", "core.tracer", None, "trace_net"),
    # service, supervisor process only: worker processes are out of reach
    _t("svc.http", "service.server", "RoutingService", "_post_route",
       _job_of_response),
    _t("svc.submit", "service.supervisor", "RoutingSupervisor", "submit",
       _job_of_submit),
    _t("svc.journal_accept", "service.journal", "JobJournal", "accepted"),
    _t("svc.journal_terminal", "service.journal", "JobJournal", "terminal"),
    _t("svc.queue_take", "service.queue", "AdmissionQueue", "take"),
    _t("svc.dispatch", "service.jobs", "Job", "mark_dispatched", _job_of_self),
)


def span_names(targets: tuple[Target, ...] = TARGETS) -> list[str]:
    """Distinct span names, in target order."""
    return list(dict.fromkeys(t.name for t in targets))


def _repro_namespaces() -> list[Any]:
    """Every loaded repro module's ``__dict__`` and every class it defines."""
    out: list[Any] = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        ns = vars(mod)
        out.append(ns)
        out.extend(
            v for v in list(ns.values())
            if isinstance(v, type) and v.__module__ == name
        )
    return out


def _set(ns: Any, key: str, value: Any) -> None:
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one span per index across these parallel arrays
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")  #: enclosing span, -1 for a root span
        self.root = array("q")    #: the thread's root span (itself at a root)
        self.tags: dict[int, str] = {}
        #: spans are recorded only while True (checks run with it False)
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        nid = self._ids.setdefault(target.name, len(self.names))
        if nid == len(self.names):
            self.names.append(target.name)
        local = self._local
        tag = target.tag
        clock = time.monotonic_ns

        def open_span(stack: list[int]) -> int:
            with self._lock:
                idx = len(self.name_id)
                self.name_id.append(nid)
                self.start_ns.append(0)
                self.end_ns.append(0)
                self.parent.append(stack[-1] if stack else -1)
                self.root.append(stack[0] if stack else idx)
            return idx

        def tag_span(idx: int, args: tuple, result: Any) -> None:
            if tag is not None:
                self.tags[idx] = tag(args, result)

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on the event loop thread, so an async
            # span is always a root and never becomes anyone's parent.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not self.enabled:
                    return await fn(*args, **kwargs)
                idx = open_span([])
                self.start_ns[idx] = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self.end_ns[idx] = clock()
                tag_span(idx, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = open_span(stack)
            stack.append(idx)
            self.start_ns[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_ns[idx] = clock()
                stack.pop()
            tag_span(idx, args, result)
            return result

        return wrapper

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target, importing its module first if needed."""
        for target in targets:
            mod = importlib.import_module(target.module)
            original = (
                vars(mod)[target.attr]
                if target.owner is None
                else vars(getattr(mod, target.owner))[target.attr]
            )
            wrapper = self._wrap(target, original)
            slots = []
            for ns in _repro_namespaces():
                items = ns.items() if isinstance(ns, dict) else vars(ns).items()
                slots.extend(
                    (ns, key) for key, value in list(items) if value is original
                )
            for ns, key in slots:
                _set(ns, key, wrapper)
                self._restore.append((ns, key, original))

    def uninstall(self) -> None:
        """Put every rebound binding back (idempotent)."""
        while self._restore:
            ns, key, original = self._restore.pop()
            _set(ns, key, original)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (benchmark checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- reading -------------------------------------------------------------

    def spans_of(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, n in enumerate(self.name_id) if n == nid]

    def request_of(self, i: int) -> str | int:
        """The request span ``i`` served: its own tag, its root's, or the
        root span's index."""
        r = self.root[i]
        return self.tags.get(i, self.tags.get(r, r))

    def save(self, path: str) -> None:
        """Write every span as a JSON line ``[name, start_ns, end_ns,
        parent, request]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([
                    self.names[self.name_id[i]], self.start_ns[i],
                    self.end_ns[i], self.parent[i], self.request_of(i),
                ]) + "\n")


def span_metrics(
    rec: Recorder, names: list[str], roots: tuple[str, ...]
) -> tuple[dict[str, float], float]:
    """Per-span ``calls``, ``total_ms`` and ``self_ms``, plus coverage.

    A span's self time is its duration minus its children's.  Coverage
    is the share of the ``roots`` spans' time that their children cover
    (1.0 when no root span ran).
    """
    n = len(rec)
    child_ns = [0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child_ns[p] += rec.end_ns[i] - rec.start_ns[i]
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    root_ids = {rec._ids[r] for r in roots if r in rec._ids}
    root_ns = covered_ns = 0
    for i in range(n):
        name = rec.names[rec.name_id[i]]
        d = rec.end_ns[i] - rec.start_ns[i]
        calls[name] += 1
        total[name] += d
        self_ns[name] += d - child_ns[i]
        if rec.parent[i] < 0 and rec.name_id[i] in root_ids:
            root_ns += d
            covered_ns += child_ns[i]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.total_ms"] = total[name] / 1e6
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
    return out, (covered_ns / root_ns if root_ns else 1.0)
