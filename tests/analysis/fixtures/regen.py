"""Regenerate the committed analysis fixtures from repo code.

Run from the repository root::

    PYTHONPATH=src python tests/analysis/fixtures/regen.py

Every artifact is deterministic (seeded corpus generation, a scripted
routing session), so a regeneration after a format change produces a
reviewable diff.  The known-bad artifacts are derived from known-good
ones by the same surgical edits the unit tests describe.
"""

from __future__ import annotations

import json
import os

from repro.analysis.plans import dump_plans, dump_template_set, random_plan_corpus
from repro.arch import wires
from repro.arch.templates import TemplateValue as T
from repro.core import DurableSession, JRouter, Pin
from repro.core.wal import _crc, load_checkpoint, write_checkpoint
from repro.routers.template_sets import export_template_set

HERE = os.path.dirname(os.path.abspath(__file__))


def _write(name: str, text: str) -> None:
    path = os.path.join(HERE, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {name}")


# -- seeded concurrency-defect corpus (the whole-program rules) ---------------
# Each bad_*.py seeds a known number of defects for exactly one rule and
# nothing else; each good_*.py is the idiomatic twin and must stay
# finding-free.  benchmarks/bench_e19_analysis.py --check gates on 100%
# detection over this table, and tests/analysis/test_interproc.py pins
# the per-file counts.

CODE_CORPUS: dict[str, str] = {
    "code/bad_rpr002.py": '''\
"""Seeded RPR002: module globals mutated with no lock held."""

import threading

_LOCK = threading.Lock()
_HITS = {}
_EVENTS = []


def hit(key):
    # seeded 1: item assignment off the lock
    _HITS[key] = _HITS.get(key, 0) + 1


def log(event):
    # seeded 2: a mutator call off the lock
    _EVENTS.append(event)


def guarded_log(event):
    with _LOCK:
        _EVENTS.append(event)
''',
    "code/good_rpr002.py": '''\
"""Twin of bad_rpr002: every mutation holds the module's lock."""

import threading

_LOCK = threading.Lock()
_HITS = {}
_EVENTS = []


def hit(key):
    with _LOCK:
        _HITS[key] = _HITS.get(key, 0) + 1


def log(event):
    with _LOCK:
        _EVENTS.append(event)
''',
    "code/bad_rpr004.py": '''\
"""Seeded RPR004: search loops a deadline cannot bound."""


def drain(heap, deadline):
    # seeded 1: nothing in the loop polls the deadline
    while heap:
        heap.pop()


def settle(queue, deadline):
    if deadline is not None:
        deadline.poll()
    # seeded 2: a poll before the loop does not bound it
    while True:
        if not queue:
            return
        queue.pop()
''',
    "code/good_rpr004.py": '''\
"""Twin of bad_rpr004: each loop polls, directly or through a helper."""


class Search:
    def __init__(self, deadline):
        self._deadline = deadline

    def _should_stop(self):
        return self._deadline is not None and self._deadline.expired()

    def drain(self, heap, deadline):
        while heap:
            if self._should_stop():
                return
            heap.pop()


def settle(queue, deadline):
    while True:
        if deadline is not None:
            deadline.poll()
        if not queue:
            return
        queue.pop()
''',
    "code/bad_rpr005.py": '''\
"""Seeded RPR005: segments that escape a module that never unlinks."""

from multiprocessing import shared_memory


class Table:
    def __init__(self, n):
        # seeded 1: stored on the object, never unlinked anywhere
        self.seg = shared_memory.SharedMemory(create=True, size=n)


def publish(n):
    # seeded 2: handed to the caller, never unlinked anywhere
    return shared_memory.SharedMemory(create=True, size=n)
''',
    "code/good_rpr005.py": '''\
"""Twin of bad_rpr005: the module owns the segment's cleanup."""

from multiprocessing import shared_memory


class Table:
    def __init__(self, n):
        self.seg = shared_memory.SharedMemory(create=True, size=n)

    def close(self):
        self.seg.close()
        self.seg.unlink()
''',
    "code/bad_rpr008.py": '''\
"""Seeded RPR008: blocking calls directly in async defs."""

import time
from subprocess import run


async def load(path):
    # seeded 1: builtin file I/O on the event loop
    with open(path) as fh:
        return fh.read()


async def pause():
    # seeded 2: a sleep that stalls every connection
    time.sleep(0.05)


async def rotate(args):
    # seeded 3: an import alias of subprocess.run
    return run(args)
''',
    "code/good_rpr008.py": '''\
"""Twin of bad_rpr008: the same work off the event loop."""

import asyncio


def _read(path):
    with open(path) as fh:
        return fh.read()


async def load(path):
    return await asyncio.to_thread(_read, path)


async def pause():
    await asyncio.sleep(0.05)
''',
    "code/bad_rpr009.py": '''\
"""Seeded RPR009: async defs reaching blocking calls through helpers."""

import subprocess
import time


def _flush(path):
    time.sleep(0.05)
    return path


def _persist(path):
    return _flush(path)


async def handler(path):
    # seeded 1: handler -> _persist -> _flush -> time.sleep
    return _persist(path)


def _snapshot(args):
    return subprocess.run(args)


async def rotate(args):
    # seeded 2: rotate -> _snapshot -> subprocess.run
    return _snapshot(args)
''',
    "code/good_rpr009.py": '''\
"""Twin of bad_rpr009: the same work hopped off the event loop."""

import asyncio
import time


def _flush(path):
    time.sleep(0.05)
    return path


async def handler(path):
    return await asyncio.to_thread(_flush, path)


async def tick():
    await asyncio.sleep(0.05)
''',
    "code/bad_rpr009_open.py": '''\
"""Seeded RPR009: an async def reaches builtin open through helpers."""


def _load(path):
    with open(path) as fh:
        return fh.read()


def _config(path):
    return _load(path)


async def handle(path):
    # seeded 1: handle -> _config -> _load -> open
    return _config(path)
''',
    "code/good_rpr009_open.py": '''\
"""Twin of bad_rpr009_open: the helper chain runs on a worker thread."""

import asyncio


def _load(path):
    with open(path) as fh:
        return fh.read()


def _config(path):
    return _load(path)


async def handle(path):
    return await asyncio.to_thread(_config, path)
''',
    "code/bad_rpr010.py": '''\
"""Seeded RPR010: the two queue locks taken in opposite orders."""

import threading

_HEAD = threading.Lock()
_TAIL = threading.Lock()


def push(q, item):
    with _HEAD:
        with _TAIL:
            q.append(item)


def steal(q):
    # seeded 1: steal orders TAIL -> HEAD against push's HEAD -> TAIL
    with _TAIL:
        with _HEAD:
            return q.pop()
''',
    "code/good_rpr010.py": '''\
"""Twin of bad_rpr010: one global order, no inversion."""

import threading

_HEAD = threading.Lock()
_TAIL = threading.Lock()


def push(q, item):
    with _HEAD:
        with _TAIL:
            q.append(item)


def steal(q):
    with _HEAD:
        with _TAIL:
            return q.pop()
''',
    "code/bad_rpr011.py": '''\
"""Seeded RPR011: a pool worker mutates a module global the parent reads."""

import threading
from concurrent.futures import ProcessPoolExecutor

_LOCK = threading.Lock()
_COMPLETED = {}


def _work(key):
    # seeded 1: under spawn this lands in the child's copy only
    with _LOCK:
        _COMPLETED[key] = True
    return key


def run(keys):
    pool = ProcessPoolExecutor(max_workers=2)
    try:
        return list(pool.map(_work, keys))
    finally:
        pool.shutdown()


def report():
    with _LOCK:
        return dict(_COMPLETED)
''',
    "code/good_rpr011.py": '''\
"""Twin of bad_rpr011: completion ships back in the worker result."""

from concurrent.futures import ProcessPoolExecutor


def _work(key):
    return (key, True)


def run(keys):
    pool = ProcessPoolExecutor(max_workers=2)
    try:
        return dict(pool.map(_work, keys))
    finally:
        pool.shutdown()
''',
    "code/bad_rpr012.py": '''\
"""Seeded RPR012: resources that leak on some control-flow path."""

from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory


def burst(jobs, fast):
    # seeded 1: the fast path returns without shutting the pool down
    pool = ThreadPoolExecutor(max_workers=4)
    if fast:
        return [j() for j in jobs]
    try:
        return [f.result() for f in [pool.submit(j) for j in jobs]]
    finally:
        pool.shutdown(wait=True)


def scratch(n, publish):
    # seeded 2: the unpublished path drops the segment unreleased
    seg = shared_memory.SharedMemory(create=True, size=n)
    if publish:
        return seg
    return None


def cleanup(seg):
    seg.close()
    seg.unlink()
''',
    "code/good_rpr012.py": '''\
"""Twin of bad_rpr012: every path releases or hands the resource off."""

from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory


def burst(jobs):
    with ThreadPoolExecutor(max_workers=4) as pool:
        return [f.result() for f in [pool.submit(j) for j in jobs]]


def scratch(n):
    seg = shared_memory.SharedMemory(create=True, size=n)
    try:
        return bytes(seg.buf[:n])
    finally:
        seg.close()
        seg.unlink()
''',
}

#: per-file seeded-defect counts the detection gate and tests pin on
CODE_CORPUS_SEEDED: dict[str, tuple[str, int]] = {
    "code/bad_rpr002.py": ("RPR002", 2),
    "code/bad_rpr004.py": ("RPR004", 2),
    "code/bad_rpr005.py": ("RPR005", 2),
    "code/bad_rpr008.py": ("RPR008", 3),
    "code/bad_rpr009.py": ("RPR009", 2),
    "code/bad_rpr009_open.py": ("RPR009", 1),
    "code/bad_rpr010.py": ("RPR010", 1),
    "code/bad_rpr011.py": ("RPR011", 1),
    "code/bad_rpr012.py": ("RPR012", 2),
}


def main() -> None:
    # -- seeded concurrency-defect corpus ---------------------------------
    for name, text in CODE_CORPUS.items():
        _write(name, text)

    # -- plans ------------------------------------------------------------
    _write("good_plans.json", random_plan_corpus("XCV50", n_plans=4, seed=7))
    # a drive-conflicting plan pair (every plan's last wire re-driven)
    _write(
        "conflict_plans.json",
        random_plan_corpus("XCV50", n_plans=4, seed=7, conflict_rate=1.0),
    )
    # a step with no architecture PIP (OMUX cannot drive OMUX)
    _write(
        "bad_pip_plan.json",
        dump_plans("XCV50", [("n0", [(5, 7, wires.OUT[0], wires.OUT[1])])]),
    )

    # -- template sets ----------------------------------------------------
    _write("good_templates.json", export_template_set(2, 3, start=(5, 5)))
    # one illegal step (hexes cannot drive CLB inputs), one duplicate,
    # one displacement mismatch vs the declared (1, 1)
    _write(
        "bad_templates.json",
        dump_template_set(
            "XCV50",
            [
                [T.OUTMUX, T.EAST6, T.CLBIN],             # illegal step
                [T.OUTMUX, T.NORTH1, T.EAST1, T.CLBIN],   # ok, travels (1,1)
                [T.OUTMUX, T.NORTH1, T.EAST1, T.CLBIN],   # duplicate
                [T.OUTMUX, T.EAST1, T.CLBIN],             # travels (0,1)
            ],
            start=(5, 5),
            displacement=(1, 1),
        ),
    )

    # -- WAL + checkpoint -------------------------------------------------
    wal = os.path.join(HERE, "good.wal")
    if os.path.exists(wal):
        os.unlink(wal)
    router = JRouter(part="XCV50")
    with DurableSession(router, wal) as session:
        router.route(Pin(5, 5, wires.S0_YQ), Pin(7, 7, wires.S0F[1]))
        router.route(
            Pin(2, 2, wires.S1_YQ),
            [Pin(4, 4, wires.S0F[2]), Pin(1, 5, wires.S1G[3])],
        )
        router.unroute(Pin(5, 5, wires.S0_YQ))
        # memory=None keeps the committed fixture small; the lint checks
        # pips/nets/seq, not the configuration bits
        write_checkpoint(
            os.path.join(HERE, "good.ckpt"),
            router.device,
            seq=session.seq,
            netdb=router.netdb,
        )
    print("wrote good.wal / good.ckpt")

    with open(wal, "r", encoding="ascii") as fh:
        data = fh.read()
    # a torn tail: a record the crash cut short (recovery tolerates it)
    _write("torn.wal", data + '{"seq": 99, "torn')
    # corruption before intact frames: flip a CRC mid-file
    lines = data.splitlines(True)
    mid = len(lines) // 2
    rec = json.loads(lines[mid])
    rec["crc"] ^= 1
    lines[mid] = json.dumps(rec) + "\n"
    _write("corrupt_mid.wal", "".join(lines))

    # a checkpoint whose PIP list is reversed (breaks replay preorder)
    body = load_checkpoint(os.path.join(HERE, "good.ckpt"))
    body["pips"] = body["pips"][::-1]
    body["crc"] = _crc(body)
    _write("bad_preorder.ckpt", json.dumps(body))
    # a checkpoint that fails its own CRC
    body["crc"] ^= 1
    _write("corrupt.ckpt", json.dumps(body))


if __name__ == "__main__":
    main()
