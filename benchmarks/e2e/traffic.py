"""Seeded input streams for the end-to-end benchmark workloads.

Every stream is plain data -- ints, ``(row, col, wire)`` pin triples and
lists of them -- so the same seed provably gives byte-identical inputs
(``json.dumps`` of a stream is the op stream) and the program under test
receives nothing but these values.

Pins come from a :class:`PinDeck`: per-tile shuffled lists of slice
output (source) and LUT input (sink) pins, each handed out at most once.
A request therefore never names a sink that another request of the same
deck already drives.  The deck does not depend on
``repro.bench.workloads``, whose per-tile pin pool gives up once a tile
runs dry; this one moves on to another tile in range instead.
"""

from __future__ import annotations

import copy
import random

from repro.arch import devices, wires

__all__ = [
    "PinDeck",
    "rtr_candidates",
    "auto_cycles",
    "crowded_traffic",
    "service_traffic",
    "SOURCE_WIRES",
    "SINK_WIRES",
]

Pin3 = tuple[int, int, int]

#: slice outputs: the pins a net can be sourced from
SOURCE_WIRES = tuple(wires.ALL_SOURCE_NAMES)
#: LUT and BX/BY inputs; clock-control pins are left to the global nets
SINK_WIRES = tuple(
    n for n in wires.ALL_SINK_NAMES
    if wires.wire_info(n).wire_class is wires.WireClass.SLICE_IN
)


class PinDeck:
    """Unique source and sink pins of one part, drawn in seeded order."""

    def __init__(self, part: str, rng: random.Random) -> None:
        p = devices.part(part)
        self.rows, self.cols = p.rows, p.cols
        self.rng = rng
        self.tiles = [(r, c) for r in range(self.rows) for c in range(self.cols)]
        self._src = {t: self._shuffled(SOURCE_WIRES) for t in self.tiles}
        self._snk = {t: self._shuffled(SINK_WIRES) for t in self.tiles}
        self._rings: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def _shuffled(self, names: tuple[int, ...]) -> list[int]:
        out = list(names)
        self.rng.shuffle(out)
        return out

    def _ring(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Tile offsets at manhattan distance ``lo..hi``."""
        key = (lo, hi)
        if key not in self._rings:
            self._rings[key] = [
                (dr, dc)
                for dr in range(-hi, hi + 1)
                for dc in range(-hi, hi + 1)
                if lo <= abs(dr) + abs(dc) <= hi
            ]
        return self._rings[key]

    def fork(self, rng: random.Random) -> "PinDeck":
        """A copy that draws from the same free pins with its own
        generator; what it hands out stays free in this deck."""
        twin = copy.copy(self)
        twin.rng = rng
        twin._src = {t: list(v) for t, v in self._src.items()}
        twin._snk = {t: list(v) for t, v in self._snk.items()}
        return twin

    def source_at(self, tile: tuple[int, int]) -> Pin3:
        return (*tile, self._src[tile].pop())

    def sink_at(self, tile: tuple[int, int]) -> Pin3:
        return (*tile, self._snk[tile].pop())

    def free_sources(self, tile: tuple[int, int]) -> int:
        return len(self._src[tile])

    def source(self) -> Pin3:
        """A source pin on a random tile that still has one."""
        for _ in range(64):
            tile = self.rng.choice(self.tiles)
            if self._src[tile]:
                return self.source_at(tile)
        free = [t for t in self.tiles if self._src[t]]
        if not free:
            raise RuntimeError("pin deck has no free source pins left")
        return self.source_at(self.rng.choice(free))

    def tile_near(
        self, row: int, col: int, lo: int, hi: int, *, sinks: int = 1
    ) -> tuple[int, int] | None:
        """A random tile ``lo..hi`` tiles from ``(row, col)`` that still
        has ``sinks`` free sink pins, or None when there is none."""
        ring = self._ring(lo, hi)

        def ok(dr: int, dc: int) -> bool:
            r, c = row + dr, col + dc
            return (
                0 <= r < self.rows
                and 0 <= c < self.cols
                and len(self._snk[(r, c)]) >= sinks
            )

        for _ in range(64):
            dr, dc = self.rng.choice(ring)
            if ok(dr, dc):
                return row + dr, col + dc
        free = [(dr, dc) for dr, dc in ring if ok(dr, dc)]
        if not free:
            return None
        dr, dc = self.rng.choice(free)
        return row + dr, col + dc

    def pair(self, lo: int, hi: int) -> tuple[Pin3, Pin3]:
        """A fresh source and a fresh sink ``lo..hi`` tiles away."""
        while True:
            src = self.source()
            tile = self.tile_near(src[0], src[1], lo, hi)
            if tile is not None:
                return src, self.sink_at(tile)


def rtr_candidates(seed: int, n: int = 400) -> list[dict]:
    """Short XCV50 nets (span 1..6) for the explicit-level workload.

    More candidates than the workload keeps: it accepts a net only when
    all four levels of control reproduce the same PIPs.  Each net also
    carries how it is removed: the forward ``unroute`` of its source or
    the ``reverse_unroute`` of its sink.
    """
    rng = random.Random(f"rtr_explicit/{seed}")
    deck = PinDeck("XCV50", rng)
    out = []
    for _ in range(n):
        src, sink = deck.pair(1, 6)
        out.append({
            "src": src,
            "sink": sink,
            "removal": rng.choice(("unroute", "reverse_unroute")),
        })
    return out


def auto_cycles(seed: int, n_cycles: int = 12, part: str = "XCV300") -> list[dict]:
    """The auto-level workload's distinct cycles.

    Each cycle holds, in shuffled order, 48 level-4 pairs spanning at
    least half the rows, 4 level-6 buses of width 4 and 3 level-5
    fanout-6 nets; then 8 nets (span 2..10) for one ``route_nets`` call.
    Those 8 nets are the same in every cycle and for every seed: the
    ``route_nets`` calls set the workload's tail latency, and repeating
    one call measures it instead of drawing it.  All other pins are
    unique across the cycles.
    """
    deck = PinDeck(part, random.Random("auto_levels/route_nets"))
    nets = [list(deck.pair(2, 10)) for _ in range(8)]
    rng = random.Random(f"auto_levels/{seed}")
    deck = deck.fork(rng)
    half = deck.rows // 2
    cycles = []
    for _ in range(n_cycles):
        ops: list[list] = []
        for _ in range(48):
            src, sink = deck.pair(half, deck.rows)
            ops.append(["p2p", src, sink])
        for _ in range(4):
            ops.append(["bus", *_bus(deck, 4)])
        for _ in range(3):
            src = deck.source()
            sinks = []
            while len(sinks) < 6:
                tile = deck.tile_near(src[0], src[1], 2, 8)
                if tile is None:
                    src = deck.source()
                    sinks = []
                    continue
                sinks.append(deck.sink_at(tile))
            ops.append(["fanout", src, sinks])
        rng.shuffle(ops)
        cycles.append({"ops": ops, "nets": nets})
    return cycles


def _bus(deck: PinDeck, width: int) -> tuple[list[Pin3], list[Pin3]]:
    """``width`` sources on one tile driving ``width`` sinks on another."""
    while True:
        tile = deck.rng.choice(deck.tiles)
        if deck.free_sources(tile) < width:
            continue
        far = deck.tile_near(tile[0], tile[1], 2, 10, sinks=width)
        if far is None:
            continue
        srcs = [deck.source_at(tile) for _ in range(width)]
        sinks = [deck.sink_at(far) for _ in range(width)]
        return srcs, sinks


def crowded_traffic(
    seed: int, *, prefill: int = 2300, calls: int = 64, batch: int = 16
) -> dict:
    """Prefill nets and batched p2p calls for the crowded XCV50 workload.

    ``prefill`` level-4 nets (span 2..12) crowd the device to about 15k
    PIPs; then ``calls`` batches of ``batch`` pairs (span 2..20) are
    routed against it.  The prefill is the same for every seed, so every
    run routes its batches on the same crowded device; the seed draws the
    batches.  Each batch comes from its own fork of the deck the prefill
    left: it never names a prefill pin, and since a call's routes are
    removed before the next call, calls may share pins.
    """
    deck = PinDeck("XCV50", random.Random("crowded_batch/prefill"))
    fill = [list(deck.pair(2, 12)) for _ in range(prefill)]
    rng = random.Random(f"crowded_batch/{seed}")
    out = []
    for _ in range(calls):
        fork = deck.fork(rng)
        out.append([list(fork.pair(2, 20)) for _ in range(batch)])
    return {"prefill": fill, "calls": out}


def service_traffic(
    seed: int, *, phase: str, warmup: int, jobs: int, rate: float = 0.0
) -> dict:
    """Unique-pin p2p jobs (span 2..12) for one service phase.

    Each phase runs against a fresh service, so each has its own deck.
    With ``rate`` > 0 the jobs are due at fixed intervals of 1/``rate``
    seconds from the phase start (open loop); every job carries its due
    time.  With ``rate`` 0 they are sent back to back (closed loop).
    ``pads`` holds two jobs sourced at input pads, which the auto-router
    never serves from a template.
    """
    rng = random.Random(f"service/{phase}/{seed}")
    deck = PinDeck("XCV50", rng)
    warm = [list(deck.pair(2, 12)) for _ in range(warmup)]
    timed = [[i / rate if rate > 0.0 else 0.0, *deck.pair(2, 12)]
             for i in range(jobs)]
    pads = []
    for col in rng.sample(range(deck.cols), 2):
        tile = deck.tile_near(0, col, 2, 12)
        pads.append([(0, col, rng.choice(wires.IOB_IN)), deck.sink_at(tile)])
    return {"warmup": warm, "jobs": timed, "pads": pads}
