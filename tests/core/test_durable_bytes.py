"""The durable writers write exactly the reference encoders' bytes.

``WriteAheadLog.append``, ``write_checkpoint`` and the job journal's
``_frame`` encode each record once.  ``_reference_durable`` keeps the
encoders they replaced, which build a dict, CRC its sorted-key JSON and
serialize it again.  Every test here writes through a product writer,
compares the file byte for byte with the reference's text for the same
inputs, and reads the file back CRC-clean through the unchanged readers
(``iter_wal_frames``, ``load_checkpoint``, ``iter_journal`` and
routelint).
"""

from __future__ import annotations

import functools
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.routelint import lint_checkpoint_file, lint_wal_file
from repro.arch import wires
from repro.core import DurableSession, JRouter, Pin
from repro.core.deadline import Deadline
from repro.core.endpoints import Port, PortDirection
from repro.core.netdb import NetDB
from repro.core.wal import (
    WalRecord,
    WriteAheadLog,
    iter_wal_frames,
    load_checkpoint,
    write_checkpoint,
)
from repro.device.state import PipRecord
from repro.service.jobs import Job, JobState
from repro.service.journal import JobJournal, _frame, iter_journal
from tests.core._reference_durable import (
    checkpoint_text,
    journal_frame,
    wal_line,
)

#: large enough to pass every digit-count boundary of the small fields
FIELD = st.integers(0, 10**6)
#: sequence numbers from a fresh log to well past 2**31
SEQ = st.one_of(st.integers(0, 2**16), st.integers(2**31 - 8, 2**40))


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


# -- WAL -------------------------------------------------------------------------


EVENTS = st.lists(
    st.tuples(
        st.booleans(),
        st.builds(PipRecord, FIELD, FIELD, FIELD, FIELD, st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(start=SEQ, events=EVENTS)
def test_wal_lines_match_the_reference(start, events):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.wal")
        with WriteAheadLog(path, part="XCV50") as wal:
            wal.next_seq = start
            seqs = [wal.append(ev) for ev in events]
        header, *lines = _read(path).splitlines(keepends=True)
        assert header == '{"wal": 1, "part": "XCV50"}\n'
        assert seqs == list(range(start, start + len(events)))
        assert lines == [wal_line(s, ev) for s, ev in zip(seqs, events)]
        _header, frames = iter_wal_frames(path)
    assert all(f.crc_ok for f in frames)
    assert [f.record for f in frames] == [
        WalRecord(s, on, r.row, r.col, r.from_name, r.to_name)
        for s, (on, r) in zip(seqs, events)
    ]


def test_session_wal_and_checkpoint_match_the_reference(tmp_path):
    """A real session: routes, an unroute, auto-checkpoints with memory."""
    router = JRouter(part="XCV50")
    events = []
    router.device.add_listener(events.append)
    wal_path = str(tmp_path / "s.wal")
    with DurableSession(router, wal_path, checkpoint_every=5) as session:
        router.route(Pin(5, 5, wires.S0_YQ), Pin(7, 7, wires.S0F[1]))
        router.route(
            Pin(2, 2, wires.S1_YQ),
            [Pin(4, 4, wires.S0F[2]), Pin(1, 5, wires.S1G[3])],
        )
        router.unroute(Pin(5, 5, wires.S0_YQ))
        ckpt = session.checkpoint()
    _header, *lines = _read(wal_path).splitlines(keepends=True)
    assert lines == [wal_line(i, ev) for i, ev in enumerate(events)]
    assert _read(ckpt) == checkpoint_text(
        router.device, seq=len(events), netdb=router.netdb,
        memory=router.jbits.memory,
    )
    assert router.jbits.memory.dirty_frames
    assert lint_wal_file(wal_path) == []
    assert lint_checkpoint_file(ckpt, wal_path=wal_path) == []


# -- checkpoints -----------------------------------------------------------------


@functools.cache
def _router(routed: bool) -> JRouter:
    """A router with or without live PIPs for the ``pips`` list."""
    router = JRouter(part="XCV50")
    if routed:
        router.route(Pin(5, 5, wires.S0_YQ), Pin(7, 7, wires.S0F[1]))
        router.route(
            Pin(2, 2, wires.S1_YQ),
            [Pin(4, 4, wires.S0F[2]), Pin(1, 5, wires.S1G[3])],
        )
    return router


PORT = Port("out", PortDirection.OUT)
#: 9 and 10 sort one way as ints and the other as the JSON keys "9", "10"
NET_IDS = st.one_of(st.sampled_from([9, 10, 99, 100, 1000]), st.integers(0, 10**6))
NETS = st.dictionaries(
    NET_IDS,
    st.tuples(
        st.sets(FIELD, max_size=4),
        st.one_of(st.just(PORT), st.builds(Pin, FIELD, FIELD, FIELD)),
    ),
    max_size=6,
)


def _netdb(nets: dict) -> NetDB:
    netdb = NetDB()
    for src, (sinks, ep) in nets.items():
        netdb.record_net(src, ep, sinks)
    return netdb


def _check_checkpoint(router, *, seq, netdb, memory) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.ckpt")
        write_checkpoint(path, router.device, seq=seq, netdb=netdb, memory=memory)
        assert _read(path) == checkpoint_text(
            router.device, seq=seq, netdb=netdb, memory=memory
        )
        return load_checkpoint(path)


@settings(max_examples=40, deadline=None)
@given(
    routed=st.booleans(),
    seq=SEQ,
    nets=st.one_of(st.none(), NETS),
    flips=st.one_of(st.none(), st.lists(st.integers(0, 10**6), max_size=12)),
)
def test_checkpoints_match_the_reference(routed, seq, nets, flips):
    router = _router(routed)
    memory = None
    if flips is not None:
        memory = router.jbits.memory.copy()
        memory.clear_dirty()
        for addr in flips:  # each flip dirties its frame
            addr %= len(memory.bits)
            memory.set_bit(addr, not memory.get_bit(addr))
    netdb = None if nets is None else _netdb(nets)
    body = _check_checkpoint(router, seq=seq, netdb=netdb, memory=memory)
    assert body["seq"] == seq
    assert sorted(body["nets"]) == sorted(str(s) for s in nets or {})
    assert ("memory" in body) == (memory is not None)
    if memory is not None:
        assert body["memory"]["dirty"] == sorted(memory.dirty_frames)


def test_checkpoint_nets_keyed_by_string_and_port_sources():
    router = _router(True)
    netdb = NetDB()
    netdb.record_net(10, Pin(1, 2, 3), {7, 5})
    netdb.record_net(9, PORT, {4})
    memory = router.jbits.memory.copy()
    memory.set_bit(0, not memory.get_bit(0))
    body = _check_checkpoint(router, seq=12, netdb=netdb, memory=memory)
    assert list(body["nets"]) == ["10", "9"]  # the file keeps NetDB order
    assert body["nets"]["9"] == {"sinks": [4], "ep": None}
    assert body["nets"]["10"] == {"sinks": [5, 7], "ep": [1, 2, 3]}


# -- job journal -----------------------------------------------------------------


#: a frozen clock makes ``remaining_ms`` (an accepted frame's float) exact
JOBS = st.builds(
    lambda tenant, source, sink, priority, deadline_ms: Job(
        tenant=tenant,
        source=source,
        sink=sink,
        priority=priority,
        deadline_ms=deadline_ms,
        deadline=None if deadline_ms is None
        else Deadline(deadline_ms, clock=lambda: 1000.125),
    ),
    st.text(max_size=12),
    st.tuples(FIELD, FIELD, FIELD),
    st.tuples(FIELD, FIELD, FIELD),
    st.integers(-(2**40), 2**40),
    st.one_of(
        st.none(),
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
    ),
)


def _accepted(job: Job) -> str:
    return journal_frame({"ev": "accepted", "job": job.to_wire()})


@settings(max_examples=60, deadline=None)
@given(jobs=st.lists(st.tuples(JOBS, st.booleans()), min_size=1, max_size=6),
       drain=st.booleans())
def test_journal_frames_match_the_reference(jobs, drain):
    header = journal_frame({"jobwal": 1})
    drained = [journal_frame({"ev": "drain"})] if drain else []
    expected = [header]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "jobs.journal")
        with JobJournal(path) as journal:
            for job, settled in jobs:
                journal.accepted(job)
                expected.append(_accepted(job))
                if settled:
                    job.state = JobState.SUCCEEDED
                    journal.terminal(job)
                    expected.append(journal_frame({
                        "ev": "terminal", "job_id": job.job_id,
                        "state": "succeeded",
                    }))
            if drain:
                journal.drained()
            expected += drained
            assert _read(path) == "".join(expected)
            assert journal.size() == len("".join(expected))
            events, torn = iter_journal(path)
            assert not torn and len(events) == len(expected)

            # compaction rewrites the open promises through the same framer
            journal.compact()
            kept = [_accepted(job) for job, settled in jobs if not settled]
            assert _read(path) == "".join([header, *kept, *drained])
            assert iter_journal(path)[1] is False


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.text(max_size=6).filter(lambda key: key > "crc"),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=6)
        | st.floats(allow_nan=False),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    min_size=1,
    max_size=5,
))
def test_frame_matches_the_reference_on_any_payload(payload):
    """Any values, and any keys that sort after ``crc``, as the journal's do."""
    assert _frame(payload) == journal_frame(payload)
