"""E18: durable-session costs and the kill-and-replay recovery check.

Measures what durability costs and proves what it buys, one row of
EXPERIMENTS.md's E18 table each:

* **WAL overhead** — the same point-to-point workload routed bare vs
  journaled through a :class:`~repro.core.wal.DurableSession` with a
  checkpoint every 64 events, each on a fresh router, in alternating
  order for :data:`OVERHEAD_ROUNDS` rounds; the rows show the best of
  each and the overhead's min/median/max over the rounds;
* **crash recovery** — rebuilding a session from checkpoint + WAL, and
  whether its routing state and configuration memory match the live
  session's;
* **SEU scrub** — a full frame scan + repair pass over a seeded SEU
  burst;
* **deadline** — the workload again under a 0.05 ms budget per net:
  every request ends as a partial report or a completed route, with no
  hang and no exception;
* **kill-and-replay** (``--recovery-check``) — simulate a crash at
  *every* record boundary of a real session's WAL, recover each
  truncation, and require the recovered state to be byte-identical to an
  uninterrupted run of the same event prefix.  This is the CI
  recovery-smoke gate::

      PYTHONPATH=src python benchmarks/bench_e18_durability.py --smoke --recovery-check

Run without ``--recovery-check`` it prints the table (``--smoke``: 16
nets and 6 upsets instead of 40 and 12).  Under pytest only the
timing-free shape tests and pytest-benchmark timings run.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from repro import errors
from repro.bench.metrics import Table, time_call
from repro.bench.workloads import random_p2p_nets
from repro.core import DurableSession, JRouter, Scrubber, inject_seu, recover
from repro.jbits.readback import verify_against_device

#: bare/journaled rounds of the WAL-overhead row: one pass of each takes
#: tens of ms, so a single pair is mostly host noise
OVERHEAD_ROUNDS = 7


def _workload(arch, n=16, seed=23):
    return [(net.source, net.sinks[0])
            for net in random_p2p_nets(arch, n, seed=seed)]


def _route_all(router, pairs):
    ok = 0
    for src, sink in pairs:
        try:
            router.route(src, sink)
            ok += 1
        except errors.JRouteError:
            pass
    return ok


def _journaled_run(pairs, wal_path, *, checkpoint_every=None):
    """Route ``pairs`` under a DurableSession; returns the live router."""
    router = JRouter(part="XCV50")
    with DurableSession(router, wal_path,
                        checkpoint_every=checkpoint_every) as session:
        _route_all(router, pairs)
        session.checkpoint()
    return router


def kill_and_replay(
    pairs, workdir: str, *, checkpoint_every=None, stride=1
) -> tuple[int, int]:
    """Crash-at-every-offset recovery proof.

    Runs one journaled session to produce a reference WAL in ``workdir``,
    then for every ``stride``-th record boundary: truncate a copy of the
    WAL there (the simulated kill), recover it, and compare fingerprints
    with an uninterrupted replay of the same prefix.  Returns
    ``(crash_points_checked, mismatches)``.
    """
    wal_path = os.path.join(workdir, "ref.wal")
    _journaled_run(pairs, wal_path, checkpoint_every=checkpoint_every)
    with open(wal_path, "rb") as fh:
        lines = fh.readlines()
    header, records = lines[0], lines[1:]

    # reference prefix states: replay the same records onto fresh devices
    from repro.core.wal import WriteAheadLog, _apply_record

    _part, parsed, _torn = WriteAheadLog.replay(wal_path)
    assert len(parsed) == len(records)
    reference = JRouter(part="XCV50")
    prefix_fp = [reference.device.state.fingerprint()]
    for rec in parsed:
        _apply_record(reference.device, rec)
        prefix_fp.append(reference.device.state.fingerprint())

    checked = mismatches = 0
    crash_wal = os.path.join(workdir, "crash.wal")
    for cut in range(0, len(records) + 1, stride):
        with open(crash_wal, "wb") as fh:
            fh.write(header)
            fh.writelines(records[:cut])
        # the reference checkpoint postdates every crash point except the
        # final one; recovery must cope both with and without it
        ckpt = wal_path + ".ckpt"
        use_ckpt = cut == len(records) and os.path.exists(ckpt)
        recovered, _report = recover(
            crash_wal,
            checkpoint_path=ckpt if use_ckpt else crash_wal + ".none",
        )
        checked += 1
        if recovered.device.state.fingerprint() != prefix_fp[cut]:
            mismatches += 1
    return checked, mismatches


def wal_overhead(pairs, workdir: str):
    """Time ``pairs`` bare and under a WAL + ckpt/64 session, in rounds.

    Every pass routes on a fresh router, and the two kinds alternate
    which goes first, so drift in the host's speed falls on both.
    Returns ``(bare_s, wal_s)``, the per-round times of each kind.
    """
    bare_s: list[float] = []
    wal_s: list[float] = []
    for i in range(OVERHEAD_ROUNDS):
        for journaled in (i % 2 == 1, i % 2 == 0):
            router = JRouter(part="XCV50")
            if not journaled:
                bare_s.append(time_call(lambda: _route_all(router, pairs))[0])
                continue
            wal_path = os.path.join(workdir, f"overhead{i}.wal")
            with DurableSession(router, wal_path, checkpoint_every=64):
                wal_s.append(time_call(lambda: _route_all(router, pairs))[0])
    return bare_s, wal_s


# ------------------------------------------------------------------ bench main


def run(smoke: bool) -> int:
    """Print E18's table; 0 when recovery and scrub both restore state."""
    n, n_seu = (16, 6) if smoke else (40, 12)
    plain = JRouter(part="XCV50")
    pairs = _workload(plain.device.arch, n=n)
    # build the process-wide routing graph outside every timed stage
    plain.device.routing_graph()
    t = Table(
        "E18: durable routing sessions (XCV50)",
        ["stage", "detail", "result", "time (ms)"],
    )

    ok_plain = _route_all(plain, pairs)  # untimed: warms process caches
    live = JRouter(part="XCV50")
    with tempfile.TemporaryDirectory(prefix="e18-bench-") as tmp:
        bare_s, wal_s = wal_overhead(pairs, tmp)
        over = sorted(w / b - 1 for b, w in zip(bare_s, wal_s))
        wal_path = os.path.join(tmp, "session.wal")
        with DurableSession(live, wal_path, checkpoint_every=64) as session:
            ok_wal = _route_all(live, pairs)
            events = session.seq
        t.add("route, no WAL", f"{n} p2p nets, best of {len(bare_s)}",
              f"{ok_plain} routed", min(bare_s) * 1e3)
        t.add("route, WAL + ckpt/64",
              f"{events} events journaled, best of {len(wal_s)}; per-round "
              f"overhead min/median/max {100 * over[0]:+.0f}% / "
              f"{100 * over[len(over) // 2]:+.0f}% / {100 * over[-1]:+.0f}%",
              f"{ok_wal} routed "
              f"(+{100 * (min(wal_s) / min(bare_s) - 1):.0f}% overhead)",
              min(wal_s) * 1e3)
        # crash recovery: rebuild from the log, prove state identity
        dt_rec, (recovered, report) = time_call(lambda: recover(wal_path))
    identical = (
        recovered.device.state.fingerprint() == live.device.state.fingerprint()
        and recovered.jbits.memory == live.jbits.memory
    )
    t.add("crash recovery", report.summary(),
          f"state identical: {identical}", dt_rec * 1e3)

    scrubber = Scrubber(live.jbits.memory, device=live.device)
    inject_seu(live.jbits.memory, n_flips=n_seu, seed=23)
    dt_scrub, scrub_report = time_call(scrubber.scrub)
    coherent = not verify_against_device(live.jbits.memory, live.device)
    t.add("SEU scrub", scrub_report.summary(),
          f"coherent after repair: {coherent}", dt_scrub * 1e3)

    # deadline-bounded search: each request completes or ends as a
    # partial report, never a hang or an escaped exception
    bounded = JRouter(part="XCV50", deadline_ms=0.05)
    partial = 0
    t0 = time.perf_counter()
    for src, sink in pairs:
        bounded.route(src, sink)
        rep = bounded.last_report
        partial += rep is not None and (rep.timed_out or rep.breaker_open)
    dt_deadline = time.perf_counter() - t0
    t.add("deadline 0.05 ms/net", f"{partial} partial, {n - partial} completed",
          "no hang, no exception escape", dt_deadline * 1e3)
    t.note("WAL overhead buys replayable sessions; scrub target: 100% of "
           "seeded upsets repaired without touching clean frames")
    t.print()
    return 0 if identical and coherent and scrubber.scan().clean else 1


def recovery_check(smoke: bool) -> int:
    """The CI gate: every crash point must recover to the prefix state."""
    router = JRouter(part="XCV50")
    pairs = _workload(router.device.arch, n=8 if smoke else 20)
    stride = 4 if smoke else 1
    with tempfile.TemporaryDirectory(prefix="e18-killreplay-") as tmp:
        checked, mismatches = kill_and_replay(pairs, tmp, stride=stride)
    print(f"kill-and-replay: {checked} crash point(s) checked, "
          f"{mismatches} state mismatch(es)")
    if mismatches:
        print("RECOVERY REGRESSION: recovered state diverged from the "
              "uninterrupted run")
        return 1
    print("recovery check ok")
    return 0


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    if "--recovery-check" in argv:
        return recovery_check(smoke)
    return run(smoke)


# ---------------------------------------------------------------- shape tests
# Timing-free durability guarantees, pinned under pytest/CI.


def test_shape_recovered_state_is_identical(router, tmp_path):
    pairs = _workload(router.device.arch, n=6)
    wal_path = str(tmp_path / "s.wal")
    live = _journaled_run(pairs, wal_path, checkpoint_every=16)
    recovered, report = recover(wal_path)
    assert recovered.device.state.fingerprint() == live.device.state.fingerprint()
    assert recovered.jbits.memory == live.jbits.memory
    assert report.fingerprint == live.device.state.fingerprint()


def test_shape_kill_and_replay_every_fourth_offset(router, tmp_path):
    pairs = _workload(router.device.arch, n=4)
    checked, mismatches = kill_and_replay(pairs, str(tmp_path), stride=4)
    assert checked > 1
    assert mismatches == 0


def test_shape_scrub_repairs_all_seeded_upsets(router):
    pairs = _workload(router.device.arch, n=4)
    _route_all(router, pairs)
    scrubber = Scrubber(router.jbits.memory, device=router.device)
    flipped = inject_seu(router.jbits.memory, n_flips=10, seed=99)
    report = scrubber.scrub()
    assert sorted(r.address for r in report.records) == flipped
    assert report.frames_repaired == report.drifted_frames
    assert scrubber.scan().clean
    assert verify_against_device(router.jbits.memory, router.device) == []


def test_wal_journaling_overhead(benchmark, router, tmp_path):
    """Cost of the flush-per-event WAL on a small routing batch."""
    pairs = _workload(router.device.arch, n=6)
    counter = iter(range(10_000))

    def run_once():
        r = JRouter(part="XCV50")
        wal_path = str(tmp_path / f"w{next(counter)}.wal")
        with DurableSession(r, wal_path):
            return _route_all(r, pairs)

    assert benchmark(run_once) == len(pairs)


def test_scrub_pass_cost(benchmark, router):
    """Full-device frame scan + repair of a seeded SEU burst."""
    pairs = _workload(router.device.arch, n=4)
    _route_all(router, pairs)
    scrubber = Scrubber(router.jbits.memory, device=router.device)

    def run_once():
        inject_seu(router.jbits.memory, n_flips=6, seed=7)
        return len(scrubber.scrub().frames_repaired)

    assert benchmark(run_once) >= 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
