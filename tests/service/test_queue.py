"""JobQueue lifecycle, cancellation, and cache-replay accounting."""

import threading
import time

import pytest

from repro.obs.ledger import RunLedger
from repro.service.jobs import JobQueue, JobState
from repro.service.spec import SweepSpec


def small_spec(**overrides):
    doc = {"kernels": ["convert"], "records": 8}
    doc.update(overrides)
    return SweepSpec.from_dict(doc)


def wait_terminal(q, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = q.get(job_id)
        if job.state in JobState.TERMINAL:
            return job
        time.sleep(0.02)
    raise AssertionError(
        f"job {job_id} still {q.get(job_id).state} after {timeout}s"
    )


@pytest.fixture()
def running_queue(tmp_path):
    q = JobQueue(
        cache_dir=str(tmp_path / "cache"),
        ledger_path=str(tmp_path / "service_ledger.sqlite"),
        jobs=1,
    ).start()
    yield q
    q.shutdown(wait=True, timeout=10.0)


@pytest.fixture()
def parked_queue(tmp_path):
    """A queue whose worker never starts: jobs stay QUEUED forever."""
    return JobQueue(cache_dir=str(tmp_path / "cache"))


class TestLifecycle:
    def test_job_runs_to_done(self, running_queue):
        job = running_queue.submit(small_spec())
        assert job.state == JobState.QUEUED
        job = wait_terminal(running_queue, job.job_id)
        assert job.state == JobState.DONE
        assert job.points_total == 1
        assert job.started_at is not None
        assert job.finished_at >= job.started_at

        doc = running_queue.status(job.job_id)
        assert doc["state"] == "done"
        assert doc["duration_seconds"] >= 0
        assert doc["progress"]["completed"] == 1
        assert doc["cache"] == {"miss": 1}

        results = running_queue.results(job.job_id)
        assert results["num_points"] == 1
        row = results["rows"][0]
        assert row["kernel"] == "convert"
        assert row["cycles"] > 0

    def test_unknown_job_raises_keyerror(self, running_queue):
        with pytest.raises(KeyError):
            running_queue.get("nope")
        with pytest.raises(KeyError):
            running_queue.results("nope")
        with pytest.raises(KeyError):
            running_queue.cancel("nope")

    def test_results_before_done_raise_lookuperror(self, parked_queue):
        job = parked_queue.submit(small_spec())
        with pytest.raises(LookupError, match="queued"):
            parked_queue.results(job.job_id)

    def test_counts_and_order(self, parked_queue):
        first = parked_queue.submit(small_spec())
        second = parked_queue.submit(small_spec(records=16))
        assert parked_queue.job_ids() == [first.job_id, second.job_id]
        assert parked_queue.counts() == {"queued": 2}


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, parked_queue):
        job = parked_queue.submit(small_spec())
        assert parked_queue.cancel(job.job_id) is True
        assert job.state == JobState.CANCELLED
        assert job.started_at is None
        # terminal jobs are not cancellable twice
        assert parked_queue.cancel(job.job_id) is False
        with pytest.raises(LookupError):
            parked_queue.results(job.job_id)

    def test_worker_skips_jobs_cancelled_while_queued(self, parked_queue):
        doomed = parked_queue.submit(small_spec())
        parked_queue.cancel(doomed.job_id)
        survivor = parked_queue.submit(small_spec(records=16))
        parked_queue.start()
        try:
            assert wait_terminal(
                parked_queue, survivor.job_id
            ).state == JobState.DONE
            assert doomed.state == JobState.CANCELLED
            assert doomed.started_at is None
        finally:
            parked_queue.shutdown(wait=True, timeout=10.0)

    def test_cancel_mid_sweep_leaves_queue_alive(self, running_queue):
        # Serial execution => chunk size 1, so the cancel event is
        # checked before every point and the sweep stops promptly.
        big = running_queue.submit(small_spec(
            kernels=["convert", "fft"],
            configs=["baseline", "S", "M", "S-O"],
            records=64,
        ))
        deadline = time.monotonic() + 60.0
        while (running_queue.get(big.job_id).state == JobState.QUEUED
               and time.monotonic() < deadline):
            time.sleep(0.005)
        running_queue.cancel(big.job_id)
        big = wait_terminal(running_queue, big.job_id)
        assert big.state == JobState.CANCELLED
        assert big.finished_at is not None
        with pytest.raises(LookupError, match="cancelled"):
            running_queue.results(big.job_id)

        # the queue survives and serves the next job
        after = running_queue.submit(small_spec())
        assert wait_terminal(
            running_queue, after.job_id
        ).state == JobState.DONE


class TestCacheReplay:
    def test_concurrent_clients_one_cold_then_hits(
        self, running_queue, tmp_path
    ):
        """N identical submissions: one cold sweep, N-1 cache replays."""
        n_clients, ids = 4, []
        lock = threading.Lock()

        def submit():
            job = running_queue.submit(small_spec(
                kernels=["convert", "fft"], records=16
            ))
            with lock:
                ids.append(job.job_id)

        threads = [threading.Thread(target=submit)
                   for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        jobs = [wait_terminal(running_queue, jid) for jid in ids]
        assert all(j.state == JobState.DONE for j in jobs)
        payloads = [running_queue.results(j.job_id) for j in jobs]
        assert all(p == payloads[0] for p in payloads)

        # single-worker queue serializes them: first executes, rest
        # replay every point from the run cache
        n_points = jobs[0].points_total
        ledger = RunLedger(str(tmp_path / "service_ledger.sqlite"))
        counts = ledger.cache_counts()
        assert counts.get("miss") == n_points
        assert counts.get("hit") == (n_clients - 1) * n_points

    def test_identical_resubmission_reports_all_hits(self, running_queue):
        spec = small_spec(records=12)
        cold = wait_terminal(
            running_queue, running_queue.submit(spec).job_id
        )
        warm = wait_terminal(
            running_queue, running_queue.submit(spec).job_id
        )
        assert cold.cache_counts == {"miss": cold.points_total}
        assert warm.cache_counts == {"hit": warm.points_total}
        assert running_queue.results(cold.job_id) == \
            running_queue.results(warm.job_id)


class TestStatusLocking:
    def test_progress_snapshot_runs_outside_the_queue_lock(self, parked_queue):
        """Status polls read the ledger without holding the queue lock,
        so submits and terminal transitions never wait on that I/O."""
        q = parked_queue

        class FakeSession:
            calls = 0

            def progress_snapshot(self, started_at):
                assert not q._lock.locked(), "snapshot under the queue lock"
                FakeSession.calls += 1
                return {"completed": 0, "total": 1}

        job = q.submit(small_spec())
        with q._lock:
            job.state = JobState.RUNNING
            job.started_at = time.time()
            job.session = FakeSession()
        doc = q.status(job.job_id)
        assert FakeSession.calls == 1
        assert doc["state"] == "running"
        assert doc["progress"] == {"completed": 0, "total": 1}
