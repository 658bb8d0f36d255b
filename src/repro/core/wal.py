"""Durable routing sessions: write-ahead log, checkpoints, recovery.

The paper's run-time promise assumes the router process lives as long as
the device it reconfigures.  A long-running routing service breaks that
assumption: the process can die mid-session while the (simulated) device
keeps its configuration.  This module makes routing state *durable*:

* :class:`WriteAheadLog` — every :data:`~repro.device.fabric.PipEvent`
  the device emits is appended, CRC-framed, to a JSON-lines log and
  flushed before the session moves on, so it survives ``kill -9`` of
  the process (not a host crash or power loss: appends are not
  fsynced).  The tail of a crashed write (a torn record) is detected
  and ignored on replay, and cut off when a session resumes the log.
* checkpoints — :func:`write_checkpoint` snapshots the full session
  (:class:`~repro.device.state.RoutingState` as a replay-legal PIP list,
  the :class:`~repro.core.netdb.NetDB` net records, and the
  :class:`~repro.jbits.bitstream.ConfigMemory` bits) atomically, bounding
  replay cost; the WAL suffix past the checkpoint's sequence number is
  all recovery needs to re-apply.
* :class:`DurableSession` — the device listener that does both: it
  appends each event to the WAL (and, with ``checkpoint_every``,
  checkpoints periodically) and holds no event in memory.
* :func:`recover` — rebuilds a :class:`~repro.core.router.JRouter` from
  checkpoint + WAL, replaying idempotently (an on-event for an on-PIP
  and an off-event for an off-PIP are no-ops), then reconciles the
  behavioural state against the bitstream via
  :func:`repro.jbits.readback.verify_against_device`.  Drift is repaired
  by :func:`reconcile`: spurious bitstream PIPs are cleared, dropped
  nets are unrouted (:func:`~repro.core.unroute.unroute_forward`) and
  re-routed from the net database — only the affected nets are touched.

The WAL records *routing* events only; LUT, slice-mode and global-buffer
configuration is captured by checkpoints (cores configure those once at
placement, and :mod:`repro.core.scrub` guards them between checkpoints).
"""

from __future__ import annotations

import base64
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .. import errors
from ..device.fabric import Device, PipEvent
from .endpoints import Pin
from .netdb import NetDB
from .unroute import unroute_forward

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..jbits.readback import PipMismatch
    from .router import JRouter

__all__ = [
    "WalRecord",
    "WalFrame",
    "WriteAheadLog",
    "iter_wal_frames",
    "is_torn_header",
    "write_checkpoint",
    "load_checkpoint",
    "DurableSession",
    "RecoveryReport",
    "recover",
    "reconcile",
]

WAL_VERSION = 1
CKPT_VERSION = 1


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One intact, CRC-verified WAL entry."""

    seq: int
    on: bool
    row: int
    col: int
    from_name: int
    to_name: int


@dataclass(frozen=True, slots=True)
class WalFrame:
    """One scanned WAL line, before replay-legality interpretation.

    The introspection unit of :func:`iter_wal_frames`: recovery keeps the
    intact prefix, while offline tooling (``repro analyze``) classifies
    every frame — including the broken ones — into findings.
    """

    #: 1-based line number in the file (the header is line 1)
    line: int
    #: parsed JSON payload with the CRC field still present (None when
    #: the line is not valid JSON — a torn or corrupt frame)
    payload: dict | None
    #: CRC field present and matching the payload
    crc_ok: bool
    #: the intact record (None for the header and for broken frames)
    record: WalRecord | None


def _crc(payload: dict) -> int:
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode("ascii"))


#: ``json.dumps(obj, sort_keys=True)`` without building an encoder per call
_dumps_sorted = json.JSONEncoder(sort_keys=True).encode


def _trim_torn_tail(path: str) -> None:
    """Drop an unterminated last line before resume-appending.

    A crash mid-append leaves a partial line with no newline.  Appending
    after it would weld the next record onto the torn one and turn a
    tolerated torn *tail* into mid-file corruption: the WAL scan stops
    there and drops every later record, and the job journal's scan
    refuses the file as tampered with.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return
    with open(path, "rb+") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        keep = data.rfind(b"\n") + 1  # 0 when no newline at all
        fh.truncate(keep)


def wal_header(part: str) -> str:
    """The header line of ``part``'s WAL, without its newline."""
    return json.dumps({"wal": WAL_VERSION, "part": part})


def is_torn_header(path: str, part: str) -> bool:
    """True when the file is a proper prefix of ``part``'s WAL header:
    what creating the log leaves if the process dies mid-write, before
    any record.  Resume and recovery read it as an empty log."""
    header = wal_header(part).encode("ascii")
    with open(path, "rb") as fh:
        data = fh.read(len(header))
    return len(data) < len(header) and header.startswith(data)


def iter_wal_frames(path: str) -> tuple[dict | None, list[WalFrame]]:
    """Scan a WAL file frame by frame without judging it.

    Returns ``(header, frames)`` where ``header`` is the parsed header
    payload (None when line 1 is not a valid WAL header) and ``frames``
    covers every subsequent line.  Nothing raises on malformed input;
    this is the shared substrate of :meth:`WriteAheadLog._scan` (which
    enforces recovery semantics) and the route-lint WAL rules (which
    report every defect instead of stopping at the first).
    """
    frames: list[WalFrame] = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("wal") != WAL_VERSION:
            header = None
        for lineno, raw in enumerate(fh, start=2):
            payload: dict | None
            try:
                payload = json.loads(raw)
            except ValueError:
                payload = None
            if not isinstance(payload, dict):
                frames.append(WalFrame(lineno, None, False, None))
                continue
            body = dict(payload)
            crc = body.pop("crc", None)
            crc_ok = crc == _crc(body)
            record: WalRecord | None = None
            if crc_ok:
                try:
                    record = WalRecord(
                        int(body["seq"]),
                        bool(body["on"]),
                        int(body["row"]),
                        int(body["col"]),
                        int(body["from"]),
                        int(body["to"]),
                    )
                except (KeyError, TypeError, ValueError):
                    record = None
            frames.append(WalFrame(lineno, payload, crc_ok, record))
    return header, frames


class WriteAheadLog:
    """Append-only, CRC-framed log of PIP events (JSON lines).

    The first line is a header naming the part; every further line is one
    event with a sequence number and a CRC over its own payload.  Opening
    an existing log scans it to find the next sequence number, so a
    session can resume appending after a restart; a torn last line (a
    crash mid-append) is cut off first, so new records follow the intact
    prefix.
    """

    def __init__(self, path: str, *, part: str) -> None:
        self.path = path
        self.part = part
        self.next_seq = 0
        if os.path.exists(path) and os.path.getsize(path) > 0:
            header, records, _torn = self._scan(path, part)
            if header.get("part") != part:
                raise errors.TransactionError(
                    f"WAL is for part {header.get('part')!r}, not {part!r}",
                    path=path,
                    line=1,
                )
            if records:
                self.next_seq = records[-1].seq + 1
            # trim only a file that scanned as this part's WAL; a header
            # torn before its newline leaves the file empty
            _trim_torn_tail(path)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._fh = open(path, "a", encoding="ascii")
        if fresh:
            self._fh.write(wal_header(part) + "\n")
            self._fh.flush()

    # -- writing ---------------------------------------------------------------

    def append(self, event: PipEvent) -> int:
        """Append one PIP event and flush it; returns its sequence number.

        The flush hands the record to the operating system, so it
        survives a ``kill -9`` of this process.  There is no fsync: a
        host crash or power loss can still lose the records the kernel
        had not yet written out.

        The line is the sorted-key JSON of the record's six fields, with
        ``crc`` at its sorted place (second); the CRC covers that JSON
        without ``crc``, as :func:`_crc` computes it.  Both are
        formatted straight from the fields, one encoding per record.
        """
        on, rec = event
        seq = self.next_seq
        head = f'{{"col": {rec.col}, '
        tail = (
            f'"from": {rec.from_name}, "on": {"true" if on else "false"}, '
            f'"row": {rec.row}, "seq": {seq}, "to": {rec.to_name}}}'
        )
        crc = zlib.crc32((head + tail).encode("ascii"))
        self._fh.write(f'{head}"crc": {crc}, {tail}\n')
        self._fh.flush()
        self.next_seq = seq + 1
        return seq

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def _scan(path: str, part: str | None) -> tuple[dict, list[WalRecord], bool]:
        """Parse header + intact records; a torn/corrupt tail stops the
        scan (everything after the first bad line is ignored), and a
        torn header of ``part``'s WAL scans as an empty, torn log."""
        header, frames = iter_wal_frames(path)
        if header is None:
            if part is not None and is_torn_header(path, part):
                return {"wal": WAL_VERSION, "part": part}, [], True
            raise errors.TransactionError(
                "not a WAL (bad header)", path=path, line=1
            )
        records: list[WalRecord] = []
        torn = False
        expect = 0
        for frame in frames:
            rec = frame.record
            if rec is None or rec.seq != expect:
                torn = True
                break
            records.append(rec)
            expect += 1
        return header, records, torn

    @classmethod
    def replay(
        cls, path: str, part: str | None = None
    ) -> tuple[str, list[WalRecord], bool]:
        """Read a WAL for recovery, as ``part``'s when given.

        Returns ``(part, records, torn)`` where ``records`` are the
        intact prefix (a torn tail — the crash artifact — is dropped).
        """
        header, records, torn = cls._scan(path, part)
        return header["part"], records, torn


# -- checkpoints ---------------------------------------------------------------


def _replay_legal_pips(device: Device) -> list[list[int]]:
    """All on-PIPs as ``[row, col, from, to]``, drivers before driven.

    Preorder per net tree, so replaying with ``turn_on`` in order can
    never trip the contention or loop checks.
    """
    state = device.state
    out: list[list[int]] = []
    roots = sorted(
        w for w in state.children if state.driver[w] == -1
    )
    for root in roots:
        for rec in state.net_pips(root):
            out.append([rec.row, rec.col, rec.from_name, rec.to_name])
    return out


def _object(fields: Iterable[tuple[str, str]]) -> str:
    """A JSON object from ``(key, encoded value)`` pairs, in their order.

    ``json.dumps``'s separators; the keys are field names, which need no
    escapes.
    """
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields) + "}"


def checkpoint_path_for(wal_path: str) -> str:
    """Default checkpoint path alongside a WAL."""
    return wal_path + ".ckpt"


def write_checkpoint(
    path: str,
    device: Device,
    *,
    seq: int,
    netdb: NetDB | None = None,
    memory=None,
) -> None:
    """Atomically snapshot a session at WAL sequence ``seq``.

    ``memory`` is the session's :class:`ConfigMemory` (usually
    ``router.jbits.memory``); its bits capture LUT/mode/global state that
    PIP events do not.  The file is written to a temporary name and
    renamed into place, so a crash mid-checkpoint leaves the previous
    checkpoint intact.

    The file is one JSON object with keys in the order ``ckpt``,
    ``part``, ``seq``, ``pips``, ``nets`` (each net ``sinks`` then
    ``ep``), ``memory`` (``n_bits``, ``b64``, ``dirty``; only with
    ``memory``) and ``crc`` last; the CRC covers the sorted-key JSON of
    everything but ``crc``, as :func:`_crc` computes it.  The PIP list
    and the memory image are encoded once, and their text is placed in
    both key orders.
    """
    nets = {}
    if netdb is not None:
        for src, sinks in netdb.net_sinks.items():
            ep = netdb.net_source_ep.get(src)
            if isinstance(ep, Pin):
                ep_ser = [ep.row, ep.col, ep.wire]
            else:
                # ports do not survive a process crash (no live core
                # objects); fall back to the source wire's primary pin
                ep_ser = None
            nets[str(src)] = {"sinks": sorted(sinks), "ep": ep_ser}
    fields = [
        ("ckpt", json.dumps(CKPT_VERSION)),
        ("part", json.dumps(device.arch.part.name)),
        ("seq", json.dumps(seq)),
        ("pips", json.dumps(_replay_legal_pips(device))),
    ]
    # the two texts order the nets map's keys differently at both levels;
    # the map is small, and encoding it once per order costs less than
    # splicing per-net texts together
    crc_fields = fields + [("nets", _dumps_sorted(nets))]
    fields.append(("nets", json.dumps(nets)))
    if memory is not None:
        packed = np.packbits(memory.bits)
        mem = [
            ("n_bits", json.dumps(int(len(memory.bits)))),
            # the base64 alphabet needs no JSON escapes
            ("b64", f'"{base64.b64encode(packed.tobytes()).decode("ascii")}"'),
            ("dirty", json.dumps(sorted(memory.dirty_frames))),
        ]
        fields.append(("memory", _object(mem)))
        crc_fields.append(("memory", _object(sorted(mem))))
    crc = zlib.crc32(_object(sorted(crc_fields)).encode("ascii"))
    fields.append(("crc", json.dumps(crc)))
    text = _object(fields)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    """Read and CRC-verify a checkpoint file."""
    with open(path, "r", encoding="ascii") as fh:
        body = json.load(fh)
    crc = body.pop("crc", None)
    if body.get("ckpt") != CKPT_VERSION or crc != _crc(body):
        raise errors.TransactionError("corrupt checkpoint", path=path)
    return body


# -- the session listener ------------------------------------------------------


class DurableSession:
    """Write-ahead logging plus periodic checkpoints for one router.

    Attach it around any stretch of routing work::

        with DurableSession(router, "session.wal", checkpoint_every=256):
            router.route(...)        # every PIP event hits the WAL first
        # crash at ANY point: recover("session.wal") rebuilds the state

    Parameters
    ----------
    router:
        The :class:`~repro.core.router.JRouter` whose device to journal.
    wal_path:
        Log file; an existing compatible WAL is resumed, not truncated.
    checkpoint_every:
        Auto-checkpoint after this many logged events (None = manual
        :meth:`checkpoint` only).  Checkpoints bound replay time and are
        atomic — a crash mid-checkpoint falls back to the previous one.
    """

    def __init__(
        self,
        router: "JRouter",
        wal_path: str,
        *,
        checkpoint_every: int | None = None,
    ) -> None:
        if router.jbits is None:
            raise errors.TransactionError(
                "DurableSession needs a JBits-attached router (the "
                "checkpoint captures the configuration memory)"
            )
        self.router = router
        self.wal = WriteAheadLog(wal_path, part=router.device.arch.part.name)
        self.checkpoint_every = checkpoint_every
        self._last_ckpt_seq = self.wal.next_seq
        self._attached = False

    @property
    def seq(self) -> int:
        """Sequence number the next event will get."""
        return self.wal.next_seq

    def __enter__(self) -> "DurableSession":
        if self._attached:
            raise errors.TransactionError("session already attached")
        self.router.device.add_listener(self._record)
        self._attached = True
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._attached:
            self.router.device.remove_listener(self._record)
            self._attached = False
        self.wal.close()

    def _record(self, event: PipEvent) -> None:
        """The device listener: log the event, then maybe checkpoint."""
        self.wal.append(event)
        if (
            self.checkpoint_every is not None
            and self.wal.next_seq - self._last_ckpt_seq >= self.checkpoint_every
        ):
            self.checkpoint()

    def checkpoint(self, path: str | None = None) -> str:
        """Snapshot the session now; returns the checkpoint path."""
        path = checkpoint_path_for(self.wal.path) if path is None else path
        write_checkpoint(
            path,
            self.router.device,
            seq=self.wal.next_seq,
            netdb=self.router.netdb,
            memory=self.router.jbits.memory,
        )
        self._last_ckpt_seq = self.wal.next_seq
        return path


# -- recovery ------------------------------------------------------------------


@dataclass(slots=True)
class RecoveryReport:
    """What :func:`recover` did to rebuild a session."""

    #: checkpoint sequence the replay started from (0 = no checkpoint)
    checkpoint_seq: int = 0
    #: WAL records re-applied after the checkpoint
    replayed: int = 0
    #: records skipped because their effect was already present
    #: (idempotent replay of the checkpoint/WAL overlap)
    skipped: int = 0
    #: a torn record terminated the WAL (the crash artifact)
    torn_tail: bool = False
    #: bitstream/state drift found after replay (structured records)
    mismatches: list = field(default_factory=list)
    #: net sources unrouted + re-routed to repair drift
    nets_rerouted: list[int] = field(default_factory=list)
    #: nets routed after the checkpoint, rebuilt into the NetDB by
    #: tracing the replayed routing state
    nets_reconstructed: int = 0
    #: post-recovery configuration digest (RoutingState.fingerprint)
    fingerprint: str = ""

    def summary(self) -> str:
        line = (
            f"recovered from seq {self.checkpoint_seq}: "
            f"{self.replayed} event(s) replayed, {self.skipped} skipped"
        )
        if self.torn_tail:
            line += ", torn tail dropped"
        if self.nets_reconstructed:
            line += f", {self.nets_reconstructed} net record(s) rebuilt"
        if self.mismatches:
            line += (
                f", {len(self.mismatches)} drift record(s), "
                f"{len(self.nets_rerouted)} net(s) re-routed"
            )
        return line


def _apply_record(device: Device, rec: WalRecord) -> bool:
    """Idempotently apply one WAL record; returns True when it changed
    anything (False = skipped)."""
    if rec.on:
        if device.pip_is_on(rec.row, rec.col, rec.from_name, rec.to_name):
            return False
        device.turn_on(rec.row, rec.col, rec.from_name, rec.to_name)
        return True
    if not device.pip_is_on(rec.row, rec.col, rec.from_name, rec.to_name):
        return False
    device.turn_off(rec.row, rec.col, rec.from_name, rec.to_name)
    return True


def recover(
    wal_path: str,
    *,
    checkpoint_path: str | None = None,
    router_kwargs: dict | None = None,
) -> tuple["JRouter", RecoveryReport]:
    """Rebuild a router from a WAL (and checkpoint, when one exists).

    The checkpoint restores the bulk state; the WAL suffix past its
    sequence number is replayed idempotently; finally the behavioural
    state is reconciled against the recovered bitstream
    (:func:`reconcile`).  A torn header of the WAL of the part that
    ``router_kwargs`` names reads as an empty log.  Returns the fresh
    :class:`~repro.core.router.JRouter` and a :class:`RecoveryReport`.
    """
    from .router import JRouter  # local import: router imports this module's deps

    kwargs = dict(router_kwargs or {})
    part, records, torn = WriteAheadLog.replay(wal_path, kwargs.get("part"))
    report = RecoveryReport(torn_tail=torn)
    kwargs.setdefault("part", part)
    kwargs["attach_jbits"] = True
    router = JRouter(**kwargs)
    device = router.device
    assert router.jbits is not None

    if checkpoint_path is None:
        checkpoint_path = checkpoint_path_for(wal_path)
    ckpt: dict | None = None
    if os.path.exists(checkpoint_path):
        ckpt = load_checkpoint(checkpoint_path)
        if ckpt["part"] != part:
            raise errors.TransactionError(
                f"checkpoint part {ckpt['part']!r} != WAL part {part!r}"
            )
    if ckpt is not None:
        report.checkpoint_seq = ckpt["seq"]
        for row, col, from_name, to_name in ckpt["pips"]:
            device.turn_on(row, col, from_name, to_name)
        for src_str, net in ckpt["nets"].items():
            src = int(src_str)
            ep_ser = net["ep"]
            if ep_ser is not None:
                ep = Pin(ep_ser[0], ep_ser[1], ep_ser[2])
            else:
                ep = Pin(*device.arch.primary_name(src))
            router.netdb.record_net(src, ep, net["sinks"])
        mem_ser = ckpt.get("memory")
        if mem_ser is not None:
            packed = np.frombuffer(
                base64.b64decode(mem_ser["b64"]), dtype=np.uint8
            )
            bits = np.unpackbits(packed)[: mem_ser["n_bits"]]
            memory = router.jbits.memory
            memory.bits = bits.astype(np.uint8).copy()
            memory._dirty = set(mem_ser["dirty"])

    for rec in records:
        if rec.seq < report.checkpoint_seq:
            continue
        if _apply_record(device, rec):
            report.replayed += 1
        else:
            report.skipped += 1

    # Nets routed after the last checkpoint exist only as replayed PIP
    # events; rebuild their NetDB records by tracing the state forest.
    # Symmetrically, nets the checkpoint knew but the WAL suffix unrouted
    # no longer drive anything: drop their stale records.
    from .tracer import trace_net

    state = device.state
    for root in sorted(w for w in state.children if state.driver[w] == -1):
        if root in router.netdb.net_sinks:
            continue
        trace = trace_net(device, root)
        router.netdb.record_net(
            root, Pin(*device.arch.primary_name(root)), trace.sinks
        )
        report.nets_reconstructed += 1
    for src in list(router.netdb.net_sinks):
        if not state.children_of(src):
            router.netdb.drop_net(src)

    report.mismatches, report.nets_rerouted = reconcile(router)
    report.fingerprint = device.state.fingerprint()
    return router, report


def reconcile(router: "JRouter") -> tuple[list["PipMismatch"], list[int]]:
    """Repair drift between behavioural state and the bitstream.

    Spurious bitstream PIPs (bits with no behavioural backing) are
    cleared; nets with dropped PIPs (behavioural branches the bitstream
    lost) are unrouted with :func:`unroute_forward` and re-routed from
    the net database — only the affected nets are disturbed.  Returns
    ``(mismatches_found, net_sources_rerouted)``.
    """
    from ..arch import connectivity
    from ..jbits.readback import verify_against_device

    jbits = router.jbits
    if jbits is None:
        return [], []
    device = router.device
    mismatches = verify_against_device(jbits.memory, device)
    if not mismatches:
        return [], []
    rerouted: list[int] = []
    dropped_nets: set[int] = set()
    for m in mismatches:
        if m.kind == "spurious":
            slot = connectivity.pip_slot(m.from_id, m.to_id)
            addr = jbits.memory.tile_bit_address(m.row, m.col, slot)
            jbits.memory.set_bit(addr, False)
        elif m.net is not None:
            dropped_nets.add(m.net)
    for src in sorted(dropped_nets):
        sinks = sorted(router.netdb.net_sinks.get(src, ()))
        ep = router.netdb.net_source_ep.get(src)
        unroute_forward(device, src)
        router.netdb.drop_net(src)
        if sinks:
            if ep is None:
                ep = Pin(*device.arch.primary_name(src))
            sink_eps = [
                Pin(*device.arch.primary_name(c)) for c in sinks
            ]
            router._route_net(ep, sink_eps)
        rerouted.append(src)
    return mismatches, rerouted
