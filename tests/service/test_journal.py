"""Job journal durability: torn tails, orphan recovery, tamper detection."""

from pathlib import Path

import pytest

from repro.service.jobs import Job, JobState
from repro.service.journal import JobJournal, iter_journal, recover_jobs


def _job(**kw) -> Job:
    return Job(tenant="t", source=(2, 3, 4), sink=(5, 6, 7), **kw)


class TestRoundTrip:
    def test_accepted_and_terminal_events(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        job = _job(priority=2, deadline_ms=1000.0)
        with JobJournal(path) as journal:
            journal.accepted(job)
            job.state = JobState.SUCCEEDED
            journal.terminal(job)
        events, torn = iter_journal(path)
        assert not torn
        kinds = [e.get("ev") for e in events]
        assert kinds == [None, "accepted", "terminal"]  # header first
        assert events[0]["jobwal"] == 1
        assert events[1]["job"]["job_id"] == job.job_id
        assert events[2]["state"] == "succeeded"

    def test_resume_append_keeps_history(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        a, b = _job(), _job()
        with JobJournal(path) as journal:
            journal.accepted(a)
        with JobJournal(path) as journal:  # reopen: append, don't truncate
            journal.accepted(b)
        events, _ = iter_journal(path)
        ids = [e["job"]["job_id"] for e in events if e.get("ev") == "accepted"]
        assert ids == [a.job_id, b.job_id]

    def test_missing_file_is_empty(self, tmp_path):
        events, torn = iter_journal(str(tmp_path / "nope"))
        assert events == [] and not torn


class TestTornTail:
    def test_half_written_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        with JobJournal(path) as journal:
            journal.accepted(_job())
            journal.accepted(_job())
        with open(path, "rb+") as fh:
            fh.truncate(fh.seek(0, 2) - 9)  # crash mid-append
        events, torn = iter_journal(path)
        assert torn
        assert sum(1 for e in events if e.get("ev") == "accepted") == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        with JobJournal(path) as journal:
            journal.accepted(_job())
            journal.accepted(_job())
        lines = Path(path).read_text().splitlines()
        lines[1] = lines[1][:-4] + "zzz}"  # damage a non-tail record
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not the tail"):
            iter_journal(path)


class TestRecoverJobs:
    def test_orphans_are_accepted_minus_terminal(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        done, lost = _job(), _job(priority=4)
        with JobJournal(path) as journal:
            journal.accepted(done)
            journal.accepted(lost)
            done.state = JobState.SUCCEEDED
            journal.terminal(done)
        orphans, stats = recover_jobs(path)
        assert [j.job_id for j in orphans] == [lost.job_id]
        assert orphans[0].state is JobState.QUEUED
        assert orphans[0].priority == 4
        assert stats == {
            "accepted": 2, "terminal": 1, "orphans": 1,
            "torn": False, "drained": False,
        }

    def test_clean_drain_leaves_no_orphans(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        job = _job()
        with JobJournal(path) as journal:
            journal.accepted(job)
            job.state = JobState.FAILED
            journal.terminal(job)
            journal.drained()
        orphans, stats = recover_jobs(path)
        assert orphans == []
        assert stats["drained"]

    def test_restart_ids_never_collide_with_journal_history(self, tmp_path):
        # the journal outlives the process: jobs created after a restart
        # must never reuse an id that already has a terminal record, or
        # recovery silently drops a crashed new job as "already done"
        path = str(tmp_path / "jobs.journal")
        with JobJournal(path) as journal:
            old = _job()
            journal.accepted(old)
            old.state = JobState.SUCCEEDED
            journal.terminal(old)
        with JobJournal(path) as journal:  # daemon restart
            fresh = _job()
            assert fresh.job_id != old.job_id
            journal.accepted(fresh)
        orphans, _stats = recover_jobs(path)
        assert [j.job_id for j in orphans] == [fresh.job_id]

    def test_kill9_between_accept_and_terminal_loses_nothing(self, tmp_path):
        # the durable-promise ordering: accepted is on disk before the
        # client response, so a crash at ANY later byte leaves the job
        # recoverable (a torn tail only ever eats an unacknowledged write)
        path = str(tmp_path / "jobs.journal")
        job = _job()
        with JobJournal(path) as journal:
            journal.accepted(job)
            job.state = JobState.SUCCEEDED
            journal.terminal(job)
        with open(path, "rb+") as fh:
            fh.truncate(fh.seek(0, 2) - 3)  # tear the terminal record
        orphans, stats = recover_jobs(path)
        assert [j.job_id for j in orphans] == [job.job_id]
        assert stats["torn"]


class TestTornTailResume:
    def test_resume_append_after_torn_tail_stays_scannable(self, tmp_path):
        # a crash leaves an unterminated partial line; the reopened
        # journal must not weld its next append onto it (that would turn
        # a tolerated torn tail into mid-file "tampering")
        path = str(tmp_path / "jobs.journal")
        a = _job()
        with JobJournal(path) as journal:
            journal.accepted(a)
        with open(path, "a", encoding="ascii") as fh:
            fh.write('{"ev": "accepted", "job":')  # torn, no newline
        with JobJournal(path) as journal:
            b = _job()
            journal.accepted(b)
        events, torn = iter_journal(path)
        assert not torn
        ids = [e["job"]["job_id"] for e in events if e.get("ev") == "accepted"]
        assert ids == [a.job_id, b.job_id]


class TestCompaction:
    def test_compact_keeps_open_promises_drops_settled(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        journal = JobJournal(path)
        done, open_a, open_b = _job(), _job(priority=7), _job()
        for j in (done, open_a, open_b):
            journal.accepted(j)
        done.state = JobState.SUCCEEDED
        journal.terminal(done)
        before = journal.size()
        report = journal.compact()
        assert report == {"kept": 2, "dropped": 1}
        assert journal.size() < before
        orphans, stats = recover_jobs(path)
        assert sorted(j.job_id for j in orphans) == sorted(
            [open_a.job_id, open_b.job_id]
        )
        assert {j.job_id: j.priority for j in orphans}[open_a.job_id] == 7
        assert not stats["torn"]
        journal.close()

    def test_appends_resume_after_compact(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        journal = JobJournal(path)
        a = _job()
        journal.accepted(a)
        a.state = JobState.SUCCEEDED
        journal.terminal(a)
        journal.compact()
        b = _job()
        journal.accepted(b)
        journal.close()
        orphans, stats = recover_jobs(path)
        assert [j.job_id for j in orphans] == [b.job_id]
        assert stats["accepted"] == 1  # a's history is gone

    def test_compact_preserves_drain_marker(self, tmp_path):
        path = str(tmp_path / "jobs.journal")
        journal = JobJournal(path)
        a = _job()
        journal.accepted(a)
        a.state = JobState.SUCCEEDED
        journal.terminal(a)
        journal.drained()
        journal.compact()
        journal.close()
        _orphans, stats = recover_jobs(path)
        assert stats["drained"]
        assert stats["orphans"] == 0
