"""Admission control: bounded depth, tenant quotas, priority, delays."""

import pytest

from repro.service.jobs import Job, JobState
from repro.service.queue import AdmissionQueue


def _job(tenant: str = "t", priority: int = 0) -> Job:
    return Job(
        tenant=tenant, source=(0, 0, 0), sink=(1, 1, 1), priority=priority
    )


class TestOffer:
    def test_accepts_until_depth_then_sheds(self):
        q = AdmissionQueue(max_depth=3, tenant_quota=10, retry_after=0.25)
        assert all(q.offer(_job()).accepted for _ in range(3))
        adm = q.offer(_job())
        assert not adm.accepted
        assert adm.reason == "shed"
        assert adm.retry_after == 0.25
        assert q.shed == 1

    def test_tenant_quota_protects_other_tenants(self):
        q = AdmissionQueue(max_depth=16, tenant_quota=2)
        assert q.offer(_job("hog")).accepted
        assert q.offer(_job("hog")).accepted
        adm = q.offer(_job("hog"))
        assert not adm.accepted and adm.reason == "quota"
        assert q.offer(_job("polite")).accepted
        assert q.quota_refused == 1

    def test_quota_counts_in_flight_until_release(self):
        q = AdmissionQueue(max_depth=16, tenant_quota=1)
        job = _job("t")
        assert q.offer(job).accepted
        q.publish(job)
        assert q.take(1, 0.0)  # dequeued, but still outstanding
        assert not q.offer(_job("t")).accepted
        q.release("t")
        assert q.offer(_job("t")).accepted

    def test_draining_refuses_everything(self):
        q = AdmissionQueue(max_depth=16)
        q.start_draining()
        adm = q.offer(_job())
        assert not adm.accepted and adm.reason == "draining"


class TestOrdering:
    def test_higher_priority_dequeues_first(self):
        q = AdmissionQueue(max_depth=16)
        low, high = _job(priority=0), _job(priority=5)
        for j in (low, high):
            q.offer(j)
            q.publish(j)
        assert q.take(2, 0.0) == [high, low]

    def test_fifo_within_a_priority_class(self):
        q = AdmissionQueue(max_depth=16)
        jobs = [_job() for _ in range(4)]
        for j in jobs:
            q.offer(j)
            q.publish(j)
        assert q.take(4, 0.0) == jobs

    def test_take_returns_empty_on_timeout(self):
        q = AdmissionQueue(max_depth=4)
        assert q.take(1, 0.01) == []


class TestTwoPhaseAdmission:
    def test_offered_job_is_invisible_until_published(self):
        q = AdmissionQueue(max_depth=4)
        job = _job()
        assert q.offer(job).accepted
        assert q.depth() == 1  # holds its depth slot already
        assert q.take(1, 0.0) == []
        q.publish(job)
        assert q.take(1, 0.0) == [job]

    def test_held_jobs_count_against_the_depth_bound(self):
        q = AdmissionQueue(max_depth=2, tenant_quota=10)
        assert q.offer(_job()).accepted
        assert q.offer(_job()).accepted
        adm = q.offer(_job())
        assert not adm.accepted and adm.reason == "shed"

    def test_withdraw_frees_depth_and_quota(self):
        q = AdmissionQueue(max_depth=1, tenant_quota=1)
        job = _job("t")
        assert q.offer(job).accepted
        q.withdraw(job)
        assert q.depth() == 0 and q.outstanding("t") == 0
        assert q.offer(_job("t")).accepted


class TestRequeue:
    def test_requeue_bypasses_depth_bound(self):
        q = AdmissionQueue(max_depth=1)
        assert q.offer(_job()).accepted
        lost = _job()
        q.requeue(lost)  # already-promised jobs are never refused
        assert q.depth() == 2

    def test_requeue_restores_quota_slot_after_restart(self):
        # restart recovery: the process (and its quota map) is new
        q = AdmissionQueue(max_depth=16, tenant_quota=4)
        q.requeue(_job("t"))
        assert q.outstanding("t") == 1

    def test_delayed_requeue_matures(self):
        q = AdmissionQueue(max_depth=16)
        job = _job()
        q.requeue(job, delay=0.05)
        assert q.take(1, 0.0) == []          # not ready yet
        assert q.take(1, 2.0) == [job]       # matures within the wait

    def test_immediate_and_delayed_interleave(self):
        q = AdmissionQueue(max_depth=16)
        slow, fast = _job(), _job()
        q.requeue(slow, delay=0.05)
        q.requeue(fast)
        assert q.take(1, 0.0) == [fast]
        assert q.take(1, 2.0) == [slow]


def test_rejected_is_terminal_without_acceptance():
    job = _job()
    job.finish(JobState.REJECTED, reason="shed", retry_after=0.5)
    assert job.state.terminal
    assert not job.mark_dispatched()


def test_depth_validation():
    with pytest.raises(ValueError):
        AdmissionQueue(max_depth=0)
