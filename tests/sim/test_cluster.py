"""Cluster queue model: FCFS + backfill + the per-user rule."""

import tracemalloc

import pytest

from repro.sim.cluster import ClusterSim
from repro.sim.job import Job


def job(job_id, user=0, cores=8, rt=100.0, machine="IC") -> Job:
    return Job(
        job_id=job_id,
        user=user,
        cores=cores,
        submit_s=0.0,
        runtime_s={machine: rt},
        energy_j={machine: 1000.0},
    )


@pytest.fixture
def cluster(sim_machines):
    return ClusterSim(sim_machines["IC"])  # 12 nodes x 48 cores = 576


class TestStartFinish:
    def test_start_consumes_cores(self, cluster):
        cluster.enqueue(job(1, cores=48))
        started = cluster.startable(0.0)
        assert [j.job_id for j in started] == [1]
        assert cluster.free_cores == 576 - 48

    def test_finish_releases(self, cluster):
        cluster.enqueue(job(1, cores=48))
        cluster.startable(0.0)
        cluster.finish(1)
        assert cluster.free_cores == 576

    def test_end_time(self, cluster):
        cluster.enqueue(job(1, rt=250.0))
        cluster.startable(10.0)
        assert cluster.end_time_of(1) == pytest.approx(260.0)

    def test_wrong_machine_rejected(self, cluster):
        with pytest.raises(ValueError, match="not eligible"):
            cluster.enqueue(job(1, machine="Theta"))

    def test_utilization(self, cluster):
        cluster.enqueue(job(1, cores=288))
        cluster.startable(0.0)
        assert cluster.utilization == pytest.approx(0.5)


class TestUserRule:
    def test_one_running_job_per_user(self, cluster):
        cluster.enqueue(job(1, user=7, cores=8))
        cluster.enqueue(job(2, user=7, cores=8))
        started = cluster.startable(0.0)
        assert [j.job_id for j in started] == [1]
        assert cluster.user_busy(7)

    def test_second_job_starts_after_first_finishes(self, cluster):
        cluster.enqueue(job(1, user=7))
        cluster.enqueue(job(2, user=7))
        cluster.startable(0.0)
        cluster.finish(1)
        started = cluster.startable(100.0)
        assert [j.job_id for j in started] == [2]

    def test_different_users_run_concurrently(self, cluster):
        cluster.enqueue(job(1, user=1))
        cluster.enqueue(job(2, user=2))
        assert len(cluster.startable(0.0)) == 2


class TestBackfill:
    def test_small_job_backfills_past_blocked_head(self, cluster):
        cluster.enqueue(job(1, user=1, cores=576))  # fills the machine
        cluster.enqueue(job(2, user=2, cores=576))  # blocked head
        cluster.enqueue(job(3, user=3, cores=8))    # can backfill? no cores
        assert len(cluster.startable(0.0)) == 1
        cluster.finish(1)
        # 576 free: job 2 starts; job 3 no longer fits? 576-576=0 -> queued.
        started = cluster.startable(100.0)
        assert [j.job_id for j in started] == [2]

    def test_backfill_when_head_blocked_by_user_rule(self, cluster):
        cluster.enqueue(job(1, user=1, cores=8))
        cluster.startable(0.0)
        cluster.enqueue(job(2, user=1, cores=8))  # head blocked (user busy)
        cluster.enqueue(job(3, user=2, cores=8))  # should backfill
        started = cluster.startable(1.0)
        assert [j.job_id for j in started] == [3]
        assert cluster.queue_length == 1

    def test_fcfs_order_among_startable(self, cluster):
        for i in range(1, 4):
            cluster.enqueue(job(i, user=i, cores=8))
        started = cluster.startable(0.0)
        assert [j.job_id for j in started] == [1, 2, 3]

    def test_backfill_window_bounds_scan(self, sim_machines):
        cluster = ClusterSim(sim_machines["IC"], backfill_window=2)
        cluster.enqueue(job(1, user=1, cores=576))
        cluster.startable(0.0)
        cluster.enqueue(job(2, user=2, cores=576))  # blocked
        cluster.enqueue(job(3, user=3, cores=576))  # blocked
        cluster.enqueue(job(4, user=4, cores=8))    # beyond window
        assert cluster.startable(0.0) == []

    def test_rejects_bad_window(self, sim_machines):
        with pytest.raises(ValueError):
            ClusterSim(sim_machines["IC"], backfill_window=0)


class TestScanIndex:
    """The buckets a scan files equal a rebuild under post-scan state."""

    def test_cores_blocked_job_refiled_when_its_user_starts(self, cluster):
        cluster.enqueue(job(1, user=0, cores=8))  # starts
        cluster.enqueue(job(2, user=1, cores=576))  # cores-blocked...
        cluster.enqueue(job(3, user=1, cores=8))  # ...until its user starts
        started = cluster.startable(0.0)
        assert [j.job_id for j in started] == [1, 3]
        ready = cluster._ready
        assert ready.synced
        assert ready.blocked_users == {1}
        assert ready.min_blocked_cores == float("inf")

    def test_shifted_in_job_that_fits_keeps_scan_needed(self, sim_machines):
        cluster = ClusterSim(sim_machines["IC"], backfill_window=2)
        cluster.enqueue(job(1, user=1, cores=8))  # starts
        cluster.enqueue(job(2, user=1, cores=8))  # user-blocked
        cluster.enqueue(job(3, user=2, cores=8))  # shifts in, never examined
        assert [j.job_id for j in cluster.startable(0.0)] == [1]
        assert not cluster._ready.synced
        assert [j.job_id for j in cluster.startable(0.0)] == [3]
        assert cluster._ready.synced
        assert cluster._ready.blocked_users == {1}


class TestScanWork:
    """One real scan costs O(backfill window), whatever the queue depth.

    Scan work is measured as the allocation peak of a single
    ``startable`` call, not as time: a scan that copies or rebuilds the
    queue allocates in proportion to its depth.
    """

    @staticmethod
    def _scan_peak(machine, depth):
        cluster = ClusterSim(machine)
        cluster.enqueue(job(0, user=0, cores=8))  # starts
        blocked = job(1, user=1, cores=576)  # never fits once job 0 runs
        for _ in range(depth - 1):
            cluster.enqueue(blocked)
        queue = cluster.queue
        tracemalloc.start()
        try:
            started = cluster.startable(0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [j.job_id for j in started] == [0]
        assert cluster.queue_length == depth - 1
        return peak, cluster.queue is queue

    def test_scan_memory_does_not_grow_with_queue_depth(self, sim_machines):
        shallow, _ = self._scan_peak(sim_machines["IC"], 1_000)
        deep, _ = self._scan_peak(sim_machines["IC"], 100_000)
        assert deep - shallow < 32 * 1024

    def test_scan_requeues_in_place(self, sim_machines):
        _, same_deque = self._scan_peak(sim_machines["IC"], 1_000)
        assert same_deque


class TestWaitEstimate:
    def test_empty_cluster_no_wait(self, cluster):
        assert cluster.estimated_wait_s(0.0) == 0.0

    def test_wait_grows_with_backlog(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        w1 = cluster.estimated_wait_s(0.0)
        cluster.enqueue(job(2, user=2, cores=576, rt=1000.0))
        assert cluster.estimated_wait_s(0.0) > w1 > 0

    def test_wait_shrinks_on_finish(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        before = cluster.estimated_wait_s(0.0)
        cluster.finish(1)
        assert cluster.estimated_wait_s(0.0) < before

    def test_running_jobs_count_only_their_remainder(self, cluster):
        """The docstring's promise, pinned: committed core-seconds are
        running *remainders* plus queued demand, over capacity."""
        cluster.enqueue(job(1, user=1, cores=288, rt=1000.0))
        cluster.startable(0.0)  # runs over [0, 1000]
        cluster.enqueue(job(2, user=2, cores=576, rt=500.0))  # queued
        capacity = 576
        # At t=400 the running job has 600 s left on 288 cores.
        expected = (288 * 600.0 + 576 * 500.0) / capacity
        assert cluster.estimated_wait_s(400.0) == pytest.approx(expected)
        # At t=0 (start) the remainder is the full runtime: the old
        # full-runtime accounting and the fix agree there.
        expected_at_start = (288 * 1000.0 + 576 * 500.0) / capacity
        assert cluster.estimated_wait_s(0.0) == pytest.approx(expected_at_start)

    def test_wait_decays_monotonically_as_time_passes(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        waits = [cluster.estimated_wait_s(t) for t in (0.0, 250.0, 500.0, 1000.0)]
        assert waits == sorted(waits, reverse=True)
        assert waits[-1] == 0.0

    def test_wait_never_negative_past_scheduled_end(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        assert cluster.estimated_wait_s(5000.0) == 0.0

    def test_reschedule_end_updates_remainder(self, cluster):
        cluster.enqueue(job(1, cores=576, rt=1000.0))
        cluster.startable(0.0)
        cluster.reschedule_end(1, 400.0)  # continuation carries less work
        assert cluster.end_time_of(1) == pytest.approx(400.0)
        assert cluster.estimated_wait_s(100.0) == pytest.approx(
            576 * 300.0 / 576
        )
        cluster.finish(1)
        assert cluster.estimated_wait_s(400.0) == 0.0
