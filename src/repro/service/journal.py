"""The job journal: accepted/terminal events, written before dispatch.

The PIP :class:`~repro.core.wal.WriteAheadLog` makes *device* state
durable; this journal makes the *promise to the client* durable.  A job
is appended as ``accepted`` before the dispatcher can see it (and so
before its admission response leaves the process), and as ``terminal``
when (and only when) :meth:`Job.finish` performs the exactly-once
transition.  A ``kill -9`` at any byte offset therefore loses zero
accepted jobs: on restart, :func:`recover_jobs` replays the journal and
returns every accepted job with no terminal record, and the supervisor
re-enqueues them.

Durable here means *survives the process*: every record is flushed to
the operating system, never fsynced, so a host crash or power loss can
lose the newest records (the same contract as the PIP WAL).

Same framing discipline as the PIP WAL — one CRC-framed JSON object per
line, a torn tail (the half-written line of a crash) detected and
ignored — so the PR 5 artifact linter's WAL rules apply unchanged.
"""

from __future__ import annotations

import json
import os
import zlib
from threading import Lock

from ..core.wal import _crc, _dumps_sorted, _trim_torn_tail
from .jobs import Job, JobState

__all__ = ["JobJournal", "iter_journal", "recover_jobs"]

JOURNAL_VERSION = 1


def _frame(payload: dict) -> str:
    """``payload`` as one line: sorted-key JSON with ``crc`` in its place.

    Every journal key (``ev``, ``job``, ``job_id``, ``jobwal``,
    ``state``) sorts after ``crc``, so the field opens the line.  The
    payload is encoded once, and the CRC covers that text, which is what
    :func:`~repro.core.wal._crc` computes.
    """
    text = _dumps_sorted(payload)
    return f'{{"crc": {zlib.crc32(text.encode("ascii"))}, {text[1:]}\n'


class JobJournal:
    """Append-only accepted/terminal log with size-triggered compaction.

    Normal operation only ever appends; :meth:`compact` (driven by the
    supervisor when :meth:`size` crosses a threshold) atomically
    rewrites the file keeping just the open promises, so a long-lived
    daemon's journal stays bounded instead of growing forever.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = Lock()
        _trim_torn_tail(path)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._bytes = 0 if fresh else os.path.getsize(path)
        self._fh = open(path, "a", encoding="ascii")
        if fresh:
            self._write({"jobwal": JOURNAL_VERSION})

    def _write(self, payload: dict) -> None:
        line = _frame(payload)
        self._fh.write(line)
        self._fh.flush()
        self._bytes += len(line)

    def accepted(self, job: Job) -> None:
        with self._lock:
            self._write({"ev": "accepted", "job": job.to_wire()})

    def terminal(self, job: Job) -> None:
        with self._lock:
            self._write(
                {
                    "ev": "terminal",
                    "job_id": job.job_id,
                    "state": job.state.value,
                }
            )

    def drained(self) -> None:
        """Mark a graceful drain: everything accepted has gone terminal."""
        with self._lock:
            self._write({"ev": "drain"})

    def size(self) -> int:
        """Bytes appended so far (compaction trigger input)."""
        with self._lock:
            return self._bytes

    def compact(self) -> dict:
        """Atomically rewrite the journal keeping only open promises.

        Replays the file under the lock (writers are quiescent), keeps
        the ``accepted`` frames of jobs with no terminal record — the
        only records :func:`recover_jobs` needs — plus any drain
        marker, writes them to a temp file (flush + fsync + rename) and
        resumes appending.  Settled jobs' accepted/terminal history is
        dropped: bounded disk beats a full audit trail for a long-lived
        daemon (audits that need the full history run with compaction
        disabled).  Returns ``{"kept": .., "dropped": ..}``.
        """
        with self._lock:
            self._fh.flush()
            events, _torn = iter_journal(self.path)
            accepted: dict[str, dict] = {}
            terminal: set[str] = set()
            drained = False
            for ev in events:
                kind = ev.get("ev")
                if kind == "accepted":
                    accepted[ev["job"]["job_id"]] = ev
                elif kind == "terminal":
                    terminal.add(ev["job_id"])
                elif kind == "drain":
                    drained = True
            live = [
                ev for jid, ev in accepted.items() if jid not in terminal
            ]
            lines = [_frame({"jobwal": JOURNAL_VERSION})]
            lines += [_frame(ev) for ev in live]
            if drained:
                lines.append(_frame({"ev": "drain"}))
            tmp = self.path + ".compact"
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write("".join(lines))
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            self._fh = open(self.path, "a", encoding="ascii")
            self._bytes = os.path.getsize(self.path)
            return {"kept": len(live), "dropped": len(terminal)}

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_journal(path: str) -> tuple[list[dict], bool]:
    """All intact events in ``path``; ``torn`` flags a damaged tail.

    Only a *trailing* damaged record is tolerated (the signature of a
    crash mid-append); corruption followed by intact records means the
    file was tampered with and raises.
    """
    events: list[dict] = []
    torn = False
    if not os.path.exists(path):
        return events, torn
    with open(path, encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        try:
            frame = json.loads(line)
            crc = frame.pop("crc")
            ok = crc == _crc(frame)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            if i != len(lines) - 1:
                raise ValueError(
                    f"{path}: corrupt record at line {i + 1} is not the tail"
                )
            torn = True
            break
        events.append(frame)
    return events, torn


def recover_jobs(path: str) -> tuple[list[Job], dict]:
    """Jobs accepted but not terminal, plus accounting for the report.

    Returns ``(orphans, stats)`` where ``orphans`` are rebuilt
    :class:`~repro.service.jobs.Job` objects ready to re-enqueue and
    ``stats`` counts ``accepted`` / ``terminal`` / ``torn`` / ``drained``
    for the recovery log line.
    """
    events, torn = iter_journal(path)
    accepted: dict[str, dict] = {}
    terminal: set[str] = set()
    drained = False
    for ev in events:
        kind = ev.get("ev")
        if kind == "accepted":
            job = ev["job"]
            accepted[job["job_id"]] = job
        elif kind == "terminal":
            terminal.add(ev["job_id"])
        elif kind == "drain":
            drained = True
    orphans = [
        Job.from_wire(d)
        for jid, d in accepted.items()
        if jid not in terminal
    ]
    for job in orphans:
        job.state = JobState.QUEUED
    stats = {
        "accepted": len(accepted),
        "terminal": len(terminal),
        "orphans": len(orphans),
        "torn": torn,
        "drained": drained,
    }
    return orphans, stats
