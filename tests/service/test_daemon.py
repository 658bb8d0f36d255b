"""Supervisor end-to-end: real spawned workers, a real SIGKILL, a drain.

Slower than the unit files (each test boots process workers) but still
small; the full HTTP stack and the chaos cadence are exercised by
``benchmarks/bench_e20_service.py`` and the E20 experiment.  The
``TestSupervisorUnits`` class at the bottom exercises supervisor logic
that needs no worker pool (probe accounting, kill reentrancy, bounds).
"""

import contextlib
import os
import signal
import sys
import threading
import time

import pytest

from repro.arch.virtex import VirtexArch
from repro.bench.workloads import random_p2p_nets
from repro.service import RoutingSupervisor, ServiceConfig
from repro.service import supervisor as supervisor_mod
from repro.service.jobs import JobState
from repro.service.journal import JobJournal
from repro.service.loadgen import audit_journal


def _pairs(n: int, seed: int = 5):
    arch = VirtexArch("XCV50")
    return [
        (
            (net.source.row, net.source.col, net.source.wire),
            (net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire),
        )
        for net in random_p2p_nets(arch, n, seed=seed, min_span=2, max_span=8)
    ]


def _config(**kw) -> ServiceConfig:
    defaults = dict(
        workers=1,
        queue_depth=32,
        heartbeat_s=0.2,
        heartbeat_misses=8,
        default_deadline_ms=60_000.0,
        job_max_attempts=4,
    )
    defaults.update(kw)
    return ServiceConfig(**defaults)


def _unsucceeded(jobs, sup=None) -> str:
    """Every job that did not succeed, with its state, attempts and
    error, then the supervisor's worker restarts and requeues."""
    lines = [
        f"{j.job_id}: {j.state.value}, {j.attempts} attempt(s), "
        f"error={j.result.get('error')!r}"
        for j in jobs
        if j.state is not JobState.SUCCEEDED
    ]
    if sup is not None:
        stats = sup.stats()
        lines.append(
            f"worker_restarts={stats['worker_restarts']} "
            f"requeued={stats['requeued']}"
        )
    return "\n".join(lines)


def _await_terminal(jobs, timeout: float = 60.0, sup=None) -> None:
    deadline = time.monotonic() + timeout
    for job in jobs:
        while not job.state.terminal:
            if time.monotonic() > deadline:
                pytest.fail(
                    f"{job.job_id} never went terminal\n"
                    + _unsucceeded(jobs, sup)
                )
            time.sleep(0.02)


def _await_ready(sup, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not all(w["ready"] for w in sup.stats()["workers"]):
        if time.monotonic() > deadline:
            pytest.fail("workers never became ready")
        time.sleep(0.02)


def _await_state(job, state: JobState, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while job.state is not state:
        if time.monotonic() > deadline:
            pytest.fail(f"{job.job_id} stuck in {job.state}")
        time.sleep(0.005)


def test_kill_midstream_loses_no_accepted_job(tmp_path):
    sup = RoutingSupervisor(_config(), str(tmp_path))
    sup.start()
    try:
        jobs = []
        for i, (src, sink) in enumerate(_pairs(8)):
            adm, job = sup.submit(f"tenant-{i % 2}", src, sink)
            assert adm.accepted
            jobs.append(job)
            if i == 3:  # SIGKILL the only worker with work in flight
                sup.kill_worker(0, reason="test-kill")
        _await_terminal(jobs)
        assert all(j.state is JobState.SUCCEEDED for j in jobs)
        stats = sup.stats()
        assert stats["workers"][0]["restarts"] >= 1
        assert stats["succeeded"] == 8
        assert sup.drain(timeout=30.0)
    finally:
        sup.stop()
    audit = audit_journal(str(tmp_path / "jobs.journal"))
    assert audit["accepted"] == 8
    assert audit["lost"] == [] and audit["duplicates"] == []
    assert audit["drained"]


class TestDispatch:
    """The dispatcher sends what is queued to an idle worker at once."""

    def test_job_is_not_dispatched_before_it_is_journaled(
        self, tmp_path, monkeypatch
    ):
        sup = RoutingSupervisor(_config(), str(tmp_path))
        seen, release = [], threading.Event()
        sup.start()
        try:
            _await_ready(sup)
            accepted = sup.journal.accepted

            def slow_accepted(job):
                seen.append(job)
                release.wait(10.0)
                accepted(job)

            monkeypatch.setattr(sup.journal, "accepted", slow_accepted)
            (src, sink), = _pairs(1)
            t = threading.Thread(target=sup.submit, args=("t", src, sink))
            t.start()
            time.sleep(0.3)  # the worker is idle all along
            assert seen and seen[0].state is JobState.QUEUED
            assert sup.counters["batches"] == 0
            release.set()
            t.join(10.0)
            assert not t.is_alive()
            _await_terminal(seen)
            assert seen[0].state is JobState.SUCCEEDED
            assert sup.counters["batches"] == 1
            assert sup.drain(timeout=30.0)
        finally:
            release.set()
            sup.stop()

    def test_jobs_queued_behind_busy_workers_leave_in_one_batch(
        self, tmp_path
    ):
        sup = RoutingSupervisor(_config(workers=2), str(tmp_path))
        sup.start()
        try:
            _await_ready(sup)
            # 0.5 s per batch, well inside the 1.6 s liveness window
            for wid in range(2):
                assert sup.send_chaos(wid, {"stall_s": 0.5})
            pairs = _pairs(6)
            jobs = []
            for src, sink in pairs[:2]:  # one per worker
                _, job = sup.submit("t", src, sink)
                _await_state(job, JobState.DISPATCHED)
                jobs.append(job)
            for src, sink in pairs[2:]:  # both workers stalled
                jobs.append(sup.submit("t", src, sink)[1])
            _await_terminal(jobs)
            assert all(j.state is JobState.SUCCEEDED for j in jobs)
            assert sup.counters["batches"] == 3
            assert sup.counters["worker_restarts"] == 0
            assert sup.drain(timeout=30.0)
        finally:
            sup.stop()

    def test_worker_reserved_for_expired_jobs_is_handed_back(
        self, tmp_path
    ):
        sup = RoutingSupervisor(_config(), str(tmp_path))  # one worker
        sup.start()
        try:
            _await_ready(sup)
            (src, sink), (src2, sink2) = _pairs(2)
            # expired before the dispatcher, holding the idle worker,
            # takes it: nothing is left to send
            _, dead = sup.submit("t", src, sink, deadline_ms=0.001)
            _await_terminal([dead])
            assert dead.state is JobState.FAILED
            assert dead.result["error_class"] == "timeout"
            _, job = sup.submit("t", src2, sink2)
            _await_terminal([job], timeout=10.0)
            assert job.state is JobState.SUCCEEDED
            assert sup.counters["batches"] == 1
            assert sup.drain(timeout=30.0)
        finally:
            sup.stop()

    def test_respawn_ends_the_dispatchers_reservation(self, tmp_path):
        # the dispatcher holds the idle worker while it waits for a job;
        # a kill and respawn during that wait must not let it send the
        # respawned worker a second batch while one is in flight
        sup = RoutingSupervisor(_config(), str(tmp_path))  # one worker
        sup.start()
        try:
            _await_ready(sup)
            time.sleep(0.1)  # the dispatcher now holds the idle worker
            sup.kill_worker(0, reason="test")
            _await_ready(sup)
            assert sup.send_chaos(0, {"stall_s": 0.5})
            (a_src, a_sink), (b_src, b_sink) = _pairs(2)
            _, a = sup.submit("t", a_src, a_sink)
            deadline = time.monotonic() + 10.0
            while sup.counters["batches"] < 1:
                assert time.monotonic() < deadline, "job a never sent"
                time.sleep(0.005)
            _, b = sup.submit("t", b_src, b_sink)
            time.sleep(0.2)
            assert b.state is JobState.QUEUED  # the worker still has a
            _await_terminal([a, b])
            assert a.state is b.state is JobState.SUCCEEDED
            assert sup.counters["batches"] == 2
            assert sup.drain(timeout=30.0)
        finally:
            sup.stop()

    def test_worker_sigkilled_behind_the_supervisors_back(
        self, tmp_path, monkeypatch
    ):
        # os.kill, not kill_worker: the supervisor learns of the death
        # from the pipe's EOF and the monitor's exitcode check
        sup = RoutingSupervisor(_config(workers=2), str(tmp_path))
        respawn, spawn = threading.Event(), sup._spawn
        sup.start()
        try:
            _await_ready(sup)
            waits = []
            real_wait = supervisor_mod.wait

            def counting_wait(conns, timeout=None):
                waits.append(len(conns))
                return real_wait(conns, timeout)

            monkeypatch.setattr(supervisor_mod, "wait", counting_wait)

            def held_spawn(w):  # keep the dead pipe current for a while
                respawn.wait(10.0)
                spawn(w)

            monkeypatch.setattr(sup, "_spawn", held_spawn)
            os.kill(sup._workers[0].proc.pid, signal.SIGKILL)
            jobs = [sup.submit("t", src, sink)[1] for src, sink in _pairs(8)]
            _await_terminal(jobs)
            assert all(j.state is JobState.SUCCEEDED for j in jobs)
            # worker 0's pipe is at EOF and not yet replaced; a
            # collector that kept watching it would spin
            n0 = len(waits)
            time.sleep(0.5)
            assert len(waits) - n0 < 25
            respawn.set()
            _await_ready(sup)
            assert sup.stats()["workers"][0]["restarts"] == 1
            threads = {t.name: t for t in sup._threads}
            assert threads["svc-dispatcher"].is_alive()
            assert threads["svc-collector"].is_alive()
            more = [sup.submit("t", s, k)[1] for s, k in _pairs(4, seed=9)]
            _await_terminal(more)
            assert all(j.state is JobState.SUCCEEDED for j in more)
            assert sup.drain(timeout=30.0)
        finally:
            respawn.set()
            sup.stop()


def test_kills_by_both_routes_under_thread_churn(tmp_path):
    # stress: more workers than CPUs, a tiny switch interval, and kills
    # through kill_worker and behind its back while jobs flow — a lost
    # reservation or in-flight handover leaves a job stuck or doubled
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    sup = RoutingSupervisor(
        _config(workers=3, queue_depth=64, job_max_attempts=10),
        str(tmp_path),
    )
    sup.start()
    try:
        _await_ready(sup)
        jobs = []
        for i, (src, sink) in enumerate(_pairs(36, seed=11)):
            jobs.append(sup.submit(f"t{i % 3}", src, sink)[1])
            if i % 12 == 5:
                sup.kill_worker(i % 3, reason="stress")
            elif i % 12 == 11:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(sup._workers[(i + 1) % 3].proc.pid,
                            signal.SIGKILL)
        _await_terminal(jobs, timeout=120.0, sup=sup)
        assert all(
            j.state is JobState.SUCCEEDED for j in jobs
        ), _unsucceeded(jobs, sup)
        assert sup.drain(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
        sup.stop()
    audit = audit_journal(str(tmp_path / "jobs.journal"))
    assert audit["accepted"] == 36
    assert audit["lost"] == [] and audit["duplicates"] == [], (
        f"lost={audit['lost']} duplicates={audit['duplicates']}"
    )


class _FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestSupervisorUnits:
    """Supervisor logic that needs no spawned workers (never start())."""

    def _sup(self, tmp_path, **kw):
        from repro.service import RoutingSupervisor

        return RoutingSupervisor(_config(**kw), str(tmp_path))

    def _open_probe(self, sup, tenant: str, clock: _FakeClock):
        """Force the tenant's breaker open and admit its half-open probe."""
        from repro.core.recovery import CircuitBreaker

        sup.breaker = CircuitBreaker(1, cooldown_s=1.0, clock=clock)
        sup.breaker.record_trip(tenant)
        assert sup.breaker.state(tenant) == "open"
        clock.t += 1.0
        # half-open: the NEXT submit() for the tenant admits the probe
        # (state() observes without consuming it)
        assert sup.breaker.state(tenant) == "half_open"

    def test_probe_refused_at_admission_is_returned(self, tmp_path):
        # the probe job gets shed by the bounded queue: the breaker must
        # get the probe back, or the tenant is locked out forever
        sup = self._sup(tmp_path, queue_depth=1)
        try:
            clock = _FakeClock()
            adm, _ = sup.submit("other", (0, 0, 0), (1, 1, 0))
            assert adm.accepted  # fills the queue
            self._open_probe(sup, "hot", clock)
            adm, _job = sup.submit("hot", (0, 0, 0), (1, 1, 0))
            assert not adm.accepted and adm.reason == "shed"
            assert sup.breaker.state("hot") == "open"  # probe returned
            clock.t += 1.0
            assert not sup.breaker.is_open("hot")  # a fresh probe flows
        finally:
            sup.journal.close()

    def test_permanent_failure_resolves_the_probe(self, tmp_path):
        from repro.service.jobs import JobState

        sup = self._sup(tmp_path)
        try:
            clock = _FakeClock()
            self._open_probe(sup, "hot", clock)
            adm, job = sup.submit("hot", (0, 0, 0), (1, 1, 0))
            assert adm.accepted  # this job IS the probe
            job.finish(
                JobState.FAILED, error="unroutable", error_class="permanent"
            )
            assert sup.breaker.state("hot") == "open"  # not stuck probing
            clock.t += 1.0
            assert not sup.breaker.is_open("hot")
        finally:
            sup.journal.close()

    def test_timeout_failure_still_escalates_not_aborts(self, tmp_path):
        sup = self._sup(tmp_path)
        try:
            clock = _FakeClock()
            self._open_probe(sup, "hot", clock)
            adm, job = sup.submit("hot", (0, 0, 0), (1, 1, 0))
            assert adm.accepted
            sup._fail_timeout(job, "deadline expired in queue")
            # record_trip resolved the probe (escalated), probe_abort in
            # _on_terminal must not have touched it first
            assert sup.breaker.state("hot") == "open"
            assert sup.breaker.retry_after("hot") == pytest.approx(2.0)
        finally:
            sup.journal.close()

    def test_abandoned_with_live_deadline_requeues_not_times_out(
        self, tmp_path
    ):
        # a grouped-batch clamp ran out but the job's OWN deadline is
        # far away: the promise stands — retry, and never charge the
        # tenant's breaker for a timeout it did not earn
        sup = self._sup(tmp_path)
        try:
            adm, job = sup.submit(
                "t", (0, 0, 0), (1, 1, 0), deadline_ms=60_000.0
            )
            assert adm.accepted and job.mark_dispatched()
            w = sup._workers[0]
            w.in_flight = {job.job_id: job}
            sup._absorb_results(
                w, [(job.job_id, False, 0, "maze", "search abandoned")]
            )
            assert job.state is JobState.QUEUED
            assert sup.counters["requeued"] == 1
            assert sup.counters["timeouts"] == 0
            assert sup.breaker.trips("t") == 0
        finally:
            sup.journal.close()

    def test_abandoned_past_own_deadline_is_a_timeout(self, tmp_path):
        sup = self._sup(tmp_path)
        try:
            adm, job = sup.submit(
                "t", (0, 0, 0), (1, 1, 0), deadline_ms=0.001
            )
            assert adm.accepted and job.mark_dispatched()
            time.sleep(0.01)
            w = sup._workers[0]
            w.in_flight = {job.job_id: job}
            sup._absorb_results(
                w, [(job.job_id, False, 0, "maze", "search abandoned")]
            )
            assert job.state is JobState.FAILED
            assert job.result["error_class"] == "timeout"
            assert sup.counters["timeouts"] == 1
            assert sup.breaker.trips("t") == 1
        finally:
            sup.journal.close()

    def test_kill_worker_concurrent_call_is_noop(self, tmp_path):
        sup = self._sup(tmp_path)
        try:
            w = sup._workers[0]

            class _DeadProc:
                exitcode = 0
                pid = 0

                def join(self, timeout=None):
                    pass

            w.proc = _DeadProc()
            spawned: list[int] = []
            entered, hold = threading.Event(), threading.Event()

            def fake_spawn(worker):
                spawned.append(worker.wid)
                entered.set()
                hold.wait(5.0)

            sup._spawn = fake_spawn
            t = threading.Thread(
                target=lambda: sup.kill_worker(0, reason="monitor")
            )
            t.start()
            assert entered.wait(5.0)
            sup.kill_worker(0, reason="chaos")  # concurrent: must no-op
            hold.set()
            t.join(5.0)
            assert spawned == [0]
            assert sup.counters["worker_restarts"] == 1
            sup.kill_worker(0, reason="later")  # cycle done: works again
            assert spawned == [0, 0]
        finally:
            sup.journal.close()

    def test_batch_sent_down_a_dead_pipe_is_left_for_the_monitor(
        self, tmp_path
    ):
        import multiprocessing

        sup = self._sup(tmp_path)
        w = sup._workers[0]
        w.conn, worker_end = multiprocessing.Pipe()
        worker_end.close()  # the worker died; its end of the pipe with it
        try:
            adm, job = sup.submit("t", (0, 0, 0), (1, 1, 0))
            assert adm.accepted
            assert sup.queue.take(1, 0.0) == [job] and job.mark_dispatched()
            w.ready = w.busy = True  # reserved by the dispatcher
            sup._send_batch(w, [job])  # must not raise
            assert w.in_flight == {job.job_id: job}
            assert sup.counters["batches"] == 0

            class _DeadProc:
                exitcode = -9
                pid = 0

                def join(self, timeout=None):
                    pass

            w.proc = _DeadProc()
            sup._spawn = lambda worker: None
            sup.kill_worker(0, reason="dead")  # what the monitor does
            assert job.state is JobState.QUEUED
            assert sup.counters["requeued"] == 1
        finally:
            w.conn.close()
            sup.journal.close()

    def test_terminal_jobs_evicted_after_ttl(self, tmp_path):
        from repro.service.jobs import JobState

        sup = self._sup(tmp_path, job_ttl_s=5.0)
        try:
            adm, job = sup.submit("t", (0, 0, 0), (1, 1, 0))
            assert adm.accepted
            job.finish(JobState.SUCCEEDED, pips_added=1)
            sup._enforce_bounds(time.monotonic())
            assert sup.get_job(job.job_id) is job  # inside the TTL
            job.finished_at -= 10.0
            sup._enforce_bounds(time.monotonic())
            assert sup.get_job(job.job_id) is None
            assert sup.stats()["evicted"] == 1
        finally:
            sup.journal.close()

    def test_open_jobs_survive_eviction_pass(self, tmp_path):
        sup = self._sup(tmp_path, job_ttl_s=0.0)
        try:
            adm, job = sup.submit("t", (0, 0, 0), (1, 1, 0))
            assert adm.accepted
            sup._enforce_bounds(time.monotonic() + 100.0)
            assert sup.get_job(job.job_id) is job  # never evict open jobs
        finally:
            sup.journal.close()

    def test_journal_compacts_past_size_threshold(self, tmp_path):
        from repro.service.jobs import JobState
        from repro.service.journal import recover_jobs

        sup = self._sup(tmp_path, journal_max_bytes=1)
        try:
            _, done = sup.submit("t", (0, 0, 0), (1, 1, 0))
            _, still_open = sup.submit("t", (0, 0, 0), (1, 1, 0))
            done.finish(JobState.SUCCEEDED)
            before = sup.journal.size()
            sup._enforce_bounds(time.monotonic())
            assert sup.stats()["compactions"] == 1
            assert sup.journal.size() < before
            orphans, _ = recover_jobs(sup.journal.path)
            assert [j.job_id for j in orphans] == [still_open.job_id]
        finally:
            sup.journal.close()


def test_restart_recovers_journaled_orphans(tmp_path):
    # forge the journal a kill -9'd daemon would leave behind: a job
    # accepted (promised to the client) with no terminal record
    (src, sink), = _pairs(1)
    from repro.service.jobs import Job

    orphan = Job(tenant="t", source=src, sink=sink, deadline_ms=60_000.0)
    with JobJournal(str(tmp_path / "jobs.journal")) as journal:
        journal.accepted(orphan)

    sup = RoutingSupervisor(_config(), str(tmp_path))
    report = sup.start()
    try:
        assert report["orphans"] == 1
        recovered = sup.get_job(orphan.job_id)
        assert recovered is not None
        _await_terminal([recovered])
        assert recovered.state is JobState.SUCCEEDED
        assert sup.drain(timeout=30.0)
    finally:
        sup.stop()
    audit = audit_journal(str(tmp_path / "jobs.journal"))
    assert audit["lost"] == [] and audit["duplicates"] == []
