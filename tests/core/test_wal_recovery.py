"""Durable sessions: WAL, checkpoints, crash recovery, reconciliation.

The tentpole property: *crash at any WAL offset, recover, and the
rebuilt RoutingState / NetDB / ConfigMemory are identical to an
uninterrupted run of the same event prefix.*
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import errors
from repro.arch import wires
from repro.core import DurableSession, JRouter, Pin, recover, write_checkpoint
from repro.core.wal import (
    WriteAheadLog,
    _apply_record,
    checkpoint_path_for,
    load_checkpoint,
    reconcile,
)

SRC = Pin(5, 5, wires.S0_YQ)
SINK = Pin(7, 7, wires.S0F[1])
#: a net clear of the workload's, routable after any crash point
LATE_SRC = Pin(13, 18, wires.S0_YQ)
LATE_SINK = Pin(14, 20, wires.S1F[2])


def _session_workload(router):
    """A small mixed session: p2p, fanout, and an unroute."""
    router.route(SRC, SINK)
    router.route(Pin(2, 2, wires.S1_YQ),
                 [Pin(4, 4, wires.S0F[2]), Pin(1, 5, wires.S1G[3])])
    router.route(Pin(10, 10, wires.S0_XQ), Pin(12, 8, wires.S1F[1]))
    router.unroute(SRC)


@pytest.fixture()
def wal_path(tmp_path):
    return str(tmp_path / "session.wal")


def _journal(wal_path, *, checkpoint_every=None, final_checkpoint=False):
    router = JRouter(part="XCV50")
    with DurableSession(router, wal_path,
                        checkpoint_every=checkpoint_every) as session:
        _session_workload(router)
        if final_checkpoint:
            session.checkpoint()
    return router


def _assert_equivalent(a, b):
    """Byte-level equality of the three recovered stores."""
    assert a.device.state.fingerprint() == b.device.state.fingerprint()
    assert np.array_equal(a.device.state.driver, b.device.state.driver)
    assert np.array_equal(a.device.state.occupied, b.device.state.occupied)
    assert a.netdb.net_sinks == b.netdb.net_sinks
    assert a.jbits.memory == b.jbits.memory


class TestWriteAheadLog:
    def test_append_and_replay(self, wal_path, device):
        wal = WriteAheadLog(wal_path, part="XCV50")
        listener = wal.append
        device.add_listener(listener)
        device.turn_on(5, 7, wires.S1_YQ, wires.OUT[1])
        device.turn_off(5, 7, wires.S1_YQ, wires.OUT[1])
        wal.close()
        part, records, torn = WriteAheadLog.replay(wal_path)
        assert part == "XCV50"
        assert not torn
        assert [(r.seq, r.on) for r in records] == [(0, True), (1, False)]

    def test_resume_appending(self, wal_path, device):
        wal = WriteAheadLog(wal_path, part="XCV50")
        device.add_listener(wal.append)
        device.turn_on(5, 7, wires.S1_YQ, wires.OUT[1])
        device.remove_listener(wal.append)
        wal.close()
        wal2 = WriteAheadLog(wal_path, part="XCV50")
        assert wal2.next_seq == 1
        device.add_listener(wal2.append)
        device.turn_on(5, 7, wires.OUT[1], wires.SINGLE_E[5])
        wal2.close()
        _, records, torn = WriteAheadLog.replay(wal_path)
        assert len(records) == 2 and not torn

    def test_part_mismatch_rejected(self, wal_path):
        WriteAheadLog(wal_path, part="XCV50").close()
        with pytest.raises(errors.TransactionError):
            WriteAheadLog(wal_path, part="XCV100")

    def test_torn_tail_detected(self, wal_path):
        _journal(wal_path)
        with open(wal_path, "rb") as fh:
            data = fh.read()
        with open(wal_path, "wb") as fh:
            fh.write(data[:-9])  # torn mid-record
        _, records, torn = WriteAheadLog.replay(wal_path)
        assert torn
        assert records  # the intact prefix survives

    def test_resume_trims_only_this_parts_torn_tail(self, wal_path, device):
        _journal(wal_path)
        with open(wal_path, "rb") as fh:
            torn = fh.read()[:-9]
        with open(wal_path, "wb") as fh:
            fh.write(torn)
        with pytest.raises(errors.TransactionError):
            WriteAheadLog(wal_path, part="XCV100")
        with open(wal_path, "rb") as fh:
            assert fh.read() == torn  # a refused log is left untouched
        # a header torn before its newline: the resumed log starts afresh
        with open(wal_path, "w") as fh:
            fh.write(json.dumps({"wal": 1, "part": "XCV50"}))
        wal = WriteAheadLog(wal_path, part="XCV50")
        device.add_listener(wal.append)
        device.turn_on(5, 7, wires.S1_YQ, wires.OUT[1])
        wal.close()
        _, records, torn_tail = WriteAheadLog.replay(wal_path)
        assert [r.seq for r in records] == [0] and not torn_tail

    def test_corrupt_crc_stops_scan(self, wal_path):
        _journal(wal_path)
        lines = Path(wal_path).read_text().splitlines()
        victim = json.loads(lines[3])
        victim["row"] += 1  # payload no longer matches its CRC
        lines[3] = json.dumps(victim, sort_keys=True)
        Path(wal_path).write_text("\n".join(lines) + "\n")
        _, records, torn = WriteAheadLog.replay(wal_path)
        assert torn
        assert len(records) == 2  # header + 2 intact records before the hit

    def test_not_a_wal(self, tmp_path):
        p = str(tmp_path / "noise.txt")
        Path(p).write_text("hello\n")
        with pytest.raises(errors.TransactionError):
            WriteAheadLog.replay(p)


class TestTornHeader:
    """A crash while creating the log leaves a proper prefix of its
    header and no newline; no record can follow, so it is an empty log."""

    HEADER = '{"wal": 1, "part": "XCV50"}'  # test_durable_bytes pins it

    def test_every_proper_prefix_boots_clean(self, wal_path):
        for n in range(len(self.HEADER)):
            Path(wal_path).write_text(self.HEADER[:n])
            router, report = recover(
                wal_path, router_kwargs={"part": "XCV50"}
            )
            assert router.device.state.n_pips_on == 0
            assert report.replayed == 0 and report.torn_tail
            with DurableSession(router, wal_path) as session:
                router.route(SRC, SINK)
                assert session.seq > 0
            _, records, torn = WriteAheadLog.replay(wal_path)
            assert not torn and records[0].seq == 0

    @pytest.mark.parametrize(
        "text",
        [
            "hello",  # no newline, not a header prefix
            '{"wal": 1, "part": "XCV3',  # another part's header
            '{"wal": 1, "part": "XCV50"}x',  # past the header
            '{"wal": 1,\n',  # a newline: not a torn header
        ],
    )
    def test_a_foreign_file_still_raises(self, wal_path, text):
        Path(wal_path).write_text(text)
        with pytest.raises(errors.TransactionError, match="not a WAL"):
            WriteAheadLog(wal_path, part="XCV50")
        with pytest.raises(errors.TransactionError, match="not a WAL"):
            recover(wal_path, router_kwargs={"part": "XCV50"})

    def test_lint_reads_it_as_a_torn_tail(self, wal_path):
        from repro.analysis import routelint
        from repro.analysis.findings import Severity

        Path(wal_path).write_text(self.HEADER[:1])
        findings = routelint.lint_wal_file(wal_path)
        assert [(f.rule, f.severity) for f in findings] == [
            ("RL007", Severity.WARNING)
        ]
        assert "torn tail" in findings[0].message


class TestCrashAtAnyOffset:
    """The property test: every record boundary is a survivable crash."""

    def test_recover_matches_prefix_run(self, wal_path, tmp_path):
        _journal(wal_path)
        with open(wal_path, "rb") as fh:
            header, *records = fh.readlines()
        _part, parsed, _ = WriteAheadLog.replay(wal_path)

        # uninterrupted prefix states, replayed onto a fresh router
        reference = JRouter(part="XCV50")
        prefix_fps = [reference.device.state.fingerprint()]
        for rec in parsed:
            _apply_record(reference.device, rec)
            prefix_fps.append(reference.device.state.fingerprint())

        for cut in range(len(records) + 1):
            crash = str(tmp_path / f"crash{cut}.wal")
            with open(crash, "wb") as fh:
                fh.write(header)
                fh.writelines(records[:cut])
            recovered, report = recover(crash)
            assert recovered.device.state.fingerprint() == prefix_fps[cut], (
                f"crash at record {cut} diverged"
            )
            assert report.replayed == cut

    def test_resume_after_torn_record_keeps_new_records(self, wal_path, tmp_path):
        """A respawned service worker's path: crash a few bytes into a
        record, recover, resume a session on the same WAL and route on.
        A second recovery must replay what the resumed session wrote."""
        _journal(wal_path)
        with open(wal_path, "rb") as fh:
            header, *records = fh.readlines()
        for cut, record in enumerate(records):
            crash = str(tmp_path / f"torn{cut}.wal")
            with open(crash, "wb") as fh:
                fh.write(header)
                fh.writelines(records[:cut])
                fh.write(record[:4])
            router, report = recover(crash)
            assert report.torn_tail
            with DurableSession(router, crash):
                assert router.route(LATE_SRC, LATE_SINK) > 0
            again, _ = recover(crash)
            assert again.device.state.fingerprint() == (
                router.device.state.fingerprint()
            ), f"records written after a tear in record {cut} were lost"

    def test_crash_mid_record_recovers_prefix(self, wal_path):
        _journal(wal_path)
        with open(wal_path, "rb") as fh:
            data = fh.read()
        Path(wal_path).write_bytes(data[: len(data) - 5])
        recovered, report = recover(wal_path)
        assert report.torn_tail
        assert recovered.device.state.check_invariants() == []
        assert recovered.jbits is not None


class TestFullRecovery:
    def test_recovery_is_byte_identical(self, wal_path):
        live = _journal(wal_path, final_checkpoint=True)
        recovered, report = recover(wal_path)
        _assert_equivalent(recovered, live)
        assert report.fingerprint == live.device.state.fingerprint()
        assert report.mismatches == []

    def test_recovery_without_checkpoint(self, wal_path):
        live = _journal(wal_path)
        assert not os.path.exists(checkpoint_path_for(wal_path))
        recovered, report = recover(wal_path)
        assert report.checkpoint_seq == 0
        _assert_equivalent(recovered, live)

    def test_recovery_with_periodic_checkpoints(self, wal_path):
        live = _journal(wal_path, checkpoint_every=5)
        recovered, report = recover(wal_path)
        assert report.checkpoint_seq > 0  # a checkpoint bounded replay
        _assert_equivalent(recovered, live)

    def test_replay_is_idempotent(self, wal_path):
        """Checkpoint at seq N + full WAL replay overlaps; the overlap
        must be skipped, not re-applied."""
        live = _journal(wal_path, checkpoint_every=3, final_checkpoint=True)
        recovered, report = recover(wal_path)
        assert report.replayed == 0  # checkpoint already covers the log
        _assert_equivalent(recovered, live)
        again, report2 = recover(wal_path)
        _assert_equivalent(again, recovered)

    def test_recovered_router_keeps_routing(self, wal_path):
        _journal(wal_path)
        recovered, _ = recover(wal_path)
        assert recovered.route(SRC, SINK) > 0  # the freed region re-routes
        assert recovered.device.state.check_invariants() == []

    def test_recovered_router_can_unroute(self, wal_path):
        live = _journal(wal_path)
        recovered, _ = recover(wal_path)
        src = Pin(2, 2, wires.S1_YQ)
        assert recovered.unroute(src) == live.unroute(src) > 0


class TestCheckpointFile:
    def test_corrupt_checkpoint_rejected(self, wal_path):
        _journal(wal_path, final_checkpoint=True)
        ckpt = checkpoint_path_for(wal_path)
        body = json.loads(Path(ckpt).read_text())
        body["seq"] += 1  # stale CRC
        Path(ckpt).write_text(json.dumps(body))
        with pytest.raises(errors.TransactionError):
            load_checkpoint(ckpt)

    def test_part_mismatch_rejected(self, wal_path, tmp_path):
        _journal(wal_path, final_checkpoint=True)
        other = JRouter(part="XCV100")
        wrong = str(tmp_path / "wrong.ckpt")
        write_checkpoint(wrong, other.device, seq=0,
                         netdb=other.netdb, memory=other.jbits.memory)
        with pytest.raises(errors.TransactionError):
            recover(wal_path, checkpoint_path=wrong)

    def test_checkpoint_write_is_atomic(self, wal_path):
        _journal(wal_path, final_checkpoint=True)
        ckpt = checkpoint_path_for(wal_path)
        assert os.path.exists(ckpt)
        assert not os.path.exists(ckpt + ".tmp")  # renamed into place

    def test_lut_bits_survive_via_checkpoint(self, wal_path):
        router = JRouter(part="XCV50")
        with DurableSession(router, wal_path) as session:
            router.route(SRC, SINK)
            router.jbits.set_lut(3, 3, 1, 0xBEEF)
            session.checkpoint()
        recovered, _ = recover(wal_path)
        assert recovered.jbits.memory == router.jbits.memory


class TestReconcile:
    def test_spurious_bit_cleared(self, router):
        from repro.arch import connectivity

        router.route(SRC, SINK)
        slot = connectivity.pip_slot(wires.S1_YQ, wires.OUT[7])
        addr = router.jbits.memory.tile_bit_address(1, 1, slot)
        router.jbits.memory.set_bit(addr, True)
        mismatches, rerouted = reconcile(router)
        assert [m.kind for m in mismatches] == ["spurious"]
        assert rerouted == []
        assert not router.jbits.memory.get_bit(addr)

    def test_dropped_pip_reroutes_only_that_net(self, router):
        from repro.arch import connectivity
        from repro.jbits.readback import verify_against_device

        router.route(SRC, SINK)
        other_src = Pin(2, 2, wires.S1_YQ)
        router.route(other_src, Pin(4, 4, wires.S0F[2]))
        other_canon = router.device.resolve(2, 2, wires.S1_YQ)
        other_pips = {
            (r.row, r.col, r.from_name, r.to_name)
            for r in router.device.state.net_pips(other_canon)
        }
        # drop one PIP of the first net from the bitstream
        victim = router.device.state.net_pips(
            router.device.resolve(SRC.row, SRC.col, SRC.wire)
        )[0]
        slot = connectivity.pip_slot(victim.from_name, victim.to_name)
        addr = router.jbits.memory.tile_bit_address(victim.row, victim.col, slot)
        router.jbits.memory.set_bit(addr, False)

        mismatches, rerouted = reconcile(router)
        assert any(m.kind == "dropped" for m in mismatches)
        assert rerouted == [router.device.resolve(SRC.row, SRC.col, SRC.wire)]
        # untouched net kept its exact PIPs
        assert {
            (r.row, r.col, r.from_name, r.to_name)
            for r in router.device.state.net_pips(other_canon)
        } == other_pips
        # and the repaired fabric is coherent again
        assert verify_against_device(router.jbits.memory, router.device) == []

    def test_clean_session_is_noop(self, router):
        router.route(SRC, SINK)
        assert reconcile(router) == ([], [])


class TestDurableSessionGuards:
    def test_requires_jbits(self, wal_path):
        router = JRouter(part="XCV50", attach_jbits=False)
        with pytest.raises(errors.TransactionError):
            DurableSession(router, wal_path)

    def test_session_holds_no_events_in_memory(self, wal_path):
        """A session persists events, it does not keep them: a service
        worker runs one session for its whole life."""
        import tracemalloc

        def cycles(n):
            for _ in range(n):
                router.route(SRC, SINK)
                router.unroute(SRC)

        router = JRouter(part="XCV50")
        with DurableSession(router, wal_path):
            cycles(200)
            tracemalloc.start()
            try:
                cycles(1_800)
                grown, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            router.route(SRC, SINK)
        # holding every event kept ~2-3 MB by cycle 2,000
        assert grown < 500_000, f"session grew {grown} bytes over 1,800 cycles"
        recovered, _ = recover(wal_path)
        _assert_equivalent(recovered, router)

    def test_second_enter_is_refused(self, wal_path):
        router = JRouter(part="XCV50")
        session = DurableSession(router, wal_path)
        with session:
            with pytest.raises(errors.TransactionError):
                session.__enter__()

    def test_rollbacks_are_journaled(self, wal_path):
        """A transaction rollback inside a session lands in the WAL as
        inverse events, so replay reproduces the rollback too."""
        from repro.core import RouteTransaction

        router = JRouter(part="XCV50")
        with DurableSession(router, wal_path):
            with RouteTransaction(router.device, netdb=router.netdb) as txn:
                router.route(SRC, SINK)
                txn.rollback()
        assert router.device.state.n_pips_on == 0
        recovered, _ = recover(wal_path)
        assert recovered.device.state.n_pips_on == 0
