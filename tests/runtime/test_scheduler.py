"""Tests for the backpressured JobScheduler."""

import gc
import threading
import time
import weakref

import pytest

from repro.core.errors import JobTimeout, MaintenanceError, SchedulerClosed
from repro.runtime import DEAD, SUCCEEDED, JobScheduler, RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.002, max_delay=0.01)


@pytest.fixture
def scheduler():
    scheduler = JobScheduler(workers=3, queue_size=32, default_retry=FAST_RETRY)
    yield scheduler
    scheduler.close()


class TestExecution:
    def test_submit_and_drain_returns_values(self, scheduler):
        ids = [scheduler.submit(lambda i=i: i * i, name=f"sq{i}") for i in range(10)]
        results = scheduler.drain()
        assert sorted(results[j].value for j in ids) == [i * i for i in range(10)]
        assert all(results[j].status == SUCCEEDED for j in ids)

    def test_results_and_wait(self, scheduler):
        job_id = scheduler.submit(lambda: "done", name="solo")
        assert scheduler.wait(job_id, timeout=5).value == "done"
        assert scheduler.result(job_id).ok
        with pytest.raises(MaintenanceError):
            scheduler.status("nope#0")

    def test_finished_job_answers_after_its_job_is_released(self, scheduler):
        class Payload:
            pass

        payload = Payload()
        held = weakref.ref(payload)
        job_id = scheduler.submit(lambda item: "done", args=(payload,), name="held")
        del payload
        scheduler.drain()
        gc.collect()
        # the scheduler keeps the result, not the job and its arguments
        assert held() is None
        assert scheduler.wait(job_id, timeout=5).value == "done"
        assert scheduler.result(job_id).ok
        assert scheduler.status(job_id) == SUCCEEDED
        for call in (scheduler.wait, scheduler.result, scheduler.status):
            with pytest.raises(MaintenanceError, match="unknown job"):
                call("ghost#99")


class TestRetry:
    def test_transient_failure_succeeds_after_backoff(self, scheduler):
        calls = []

        def flaky():
            calls.append(time.monotonic())
            if len(calls) < 3:
                raise ValueError("transient fault")
            return "recovered"

        job_id = scheduler.submit(flaky, name="flaky")
        result = scheduler.wait(job_id, timeout=10)
        assert result.status == SUCCEEDED
        assert result.value == "recovered"
        assert result.attempts == 3
        # backoff actually waited between attempts
        assert calls[1] - calls[0] >= FAST_RETRY.base_delay
        assert scheduler.dead_letter() == []

    def test_permanent_failure_lands_in_dead_letter(self, scheduler):
        def broken():
            raise RuntimeError("permanent fault")

        job_id = scheduler.submit(broken, name="broken")
        results = scheduler.drain()  # must return despite the dead job
        assert results[job_id].status == DEAD
        assert results[job_id].attempts == FAST_RETRY.max_attempts
        assert results[job_id].error_type == "RuntimeError"
        dead = scheduler.dead_letter()
        assert [r.job_id for r in dead] == [job_id]
        # the scheduler is not wedged: new work still runs
        assert scheduler.wait(scheduler.submit(lambda: 7), timeout=5).value == 7

    def test_non_retryable_error_dies_on_first_attempt(self, scheduler):
        policy = RetryPolicy(max_attempts=5, base_delay=0.001, retry_on=(ValueError,))
        job_id = scheduler.submit(lambda: 1 / 0, name="div", retry=policy)
        result = scheduler.wait(job_id, timeout=5)
        assert result.status == DEAD
        assert result.attempts == 1


class TestBackpressure:
    def test_blocking_submit_waits_for_capacity(self):
        scheduler = JobScheduler(workers=1, queue_size=1)
        gate = threading.Event()
        try:
            scheduler.submit(gate.wait, name="hold")
            unblocked = []

            def producer():
                scheduler.submit(lambda: unblocked.append(1), name="pushed")

            thread = threading.Thread(target=producer)
            thread.start()
            thread.join(0.05)
            assert thread.is_alive()  # submit is blocked on backpressure
            gate.set()
            thread.join(5)
            assert not thread.is_alive()
            scheduler.drain()
            assert unblocked == [1]
        finally:
            gate.set()
            scheduler.close()


class TestLifecycle:
    def test_stats_and_len(self, scheduler):
        ids = [scheduler.submit(lambda: None) for _ in range(5)]
        scheduler.drain()
        stats = scheduler.stats()
        assert stats["jobs"] == len(scheduler) == 5
        assert stats["outstanding"] == 0
        assert stats["by_state"] == {SUCCEEDED: 5}
        assert all(scheduler.status(i) == SUCCEEDED for i in ids)

    def test_finished_results_are_kept_for_the_last_queue_size_jobs(self):
        scheduler = JobScheduler(workers=2, queue_size=8)
        try:
            ids = [scheduler.submit(lambda i=i: i, name=f"n{i}") for i in range(20)]
            results = scheduler.drain()
            # which jobs finish last depends on the two workers' interleaving
            assert len(results) == 8 and set(results) <= set(ids)
            evicted = [job_id for job_id in ids if job_id not in results]
            assert len(evicted) == 12
            for job_id in evicted:
                for call in (scheduler.wait, scheduler.result, scheduler.status):
                    with pytest.raises(MaintenanceError, match="unknown job"):
                        call(job_id)
            for job_id, result in results.items():
                assert scheduler.wait(job_id, timeout=5) is result
                assert scheduler.status(job_id) == SUCCEEDED
            # the lifetime counts outlive the window
            stats = scheduler.stats()
            assert len(scheduler) == stats["jobs"] == 20
            assert stats["by_state"] == {SUCCEEDED: 20}
        finally:
            scheduler.close()

    def test_wait_on_a_job_evicted_while_it_waited_does_not_hang(self):
        scheduler = JobScheduler(workers=1, queue_size=1)
        gate, entered, wake = threading.Event(), threading.Event(), threading.Event()
        real_wait = scheduler._cv.wait

        def sleep_through_notifications(timeout=None):
            # the waiter stays asleep while its job finishes and is evicted
            if threading.current_thread() is not waiter:
                return real_wait(timeout)
            entered.set()
            while not wake.is_set():
                real_wait()
            return True

        outcome = []

        def wait_for_held():
            try:
                outcome.append(scheduler.wait(held, timeout=10))
            except MaintenanceError as exc:
                outcome.append(exc)

        held = scheduler.submit(gate.wait, name="held")
        waiter = threading.Thread(target=wait_for_held)
        scheduler._cv.wait = sleep_through_notifications
        try:
            waiter.start()
            assert entered.wait(5)
            gate.set()
            later = scheduler.submit(lambda: None, name="later")
            assert scheduler.wait(later, timeout=5).ok  # and "held" left the window
            with scheduler._cv:
                wake.set()
                scheduler._cv.notify_all()
            waiter.join(15)
            assert not waiter.is_alive()
            (error,) = outcome
            assert isinstance(error, MaintenanceError)
            assert not isinstance(error, JobTimeout)
            assert "unknown job" in str(error)
        finally:
            gate.set()
            wake.set()
            scheduler.close()

    def test_submit_after_close_raises(self, scheduler):
        scheduler.submit(lambda: 1)
        scheduler.drain()
        scheduler.close()
        scheduler.close()  # idempotent
        with pytest.raises(SchedulerClosed):
            scheduler.submit(lambda: 2)

    def test_context_manager_drains(self):
        hits = []
        with JobScheduler(workers=2, queue_size=8) as scheduler:
            for _ in range(4):
                scheduler.submit(lambda: hits.append(1))
        assert hits == [1, 1, 1, 1]

    def test_drain_timeout(self):
        scheduler = JobScheduler(workers=1, queue_size=4)
        gate = threading.Event()
        try:
            scheduler.submit(gate.wait, name="hold")
            with pytest.raises(JobTimeout):
                scheduler.drain(timeout=0.05)
        finally:
            gate.set()
            scheduler.drain()
            scheduler.close()
