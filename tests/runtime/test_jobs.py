"""Tests for Job, JobResult and the deterministic-jitter RetryPolicy."""

import functools

import pytest

from repro.runtime import NO_RETRY, Job, JobResult, RetryPolicy
from repro.runtime.jobs import DEAD, SUCCEEDED


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=10.0, jitter=0.0)
        assert policy.delay("j", 1) == pytest.approx(0.01)
        assert policy.delay("j", 2) == pytest.approx(0.02)
        assert policy.delay("j", 3) == pytest.approx(0.04)

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=10.0, max_delay=0.05, jitter=0.0)
        assert policy.delay("j", 5) == pytest.approx(0.05)

    def test_jitter_is_deterministic_per_job_and_attempt(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.5)
        assert policy.delay("j", 1) == policy.delay("j", 1)
        assert policy.delay("j", 1) != policy.delay("j", 2)
        assert policy.delay("a", 1) != policy.delay("b", 1)

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=1.0, jitter=0.25)
        for attempt in range(1, 20):
            delay = policy.delay("job", attempt)
            assert 0.01 <= delay <= 0.01 * 1.25

    def test_retries_honors_budget_and_types(self):
        policy = RetryPolicy(max_attempts=3, retry_on=(ValueError,))
        assert policy.retries(ValueError("x"), 1)
        assert policy.retries(ValueError("x"), 2)
        assert not policy.retries(ValueError("x"), 3)  # budget exhausted
        assert not policy.retries(TypeError("x"), 1)   # not retryable

    def test_no_retry_policy_runs_once(self):
        assert NO_RETRY.max_attempts == 1
        assert not NO_RETRY.retries(ValueError("x"), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestJob:
    def test_defaults_name_from_callable(self):
        def extract_metadata():
            return "ok"

        job = Job(fn=extract_metadata)
        assert job.name == "extract_metadata"
        assert job.run() == "ok"

    def test_runs_with_args_and_kwargs(self):
        # keyword arguments are bound into the callable
        job = Job(fn=functools.partial(lambda a, b=0: a + b, b=3), args=(2,))
        assert job.run() == 5

    def test_rejects_non_callable_and_negative_timeout(self):
        with pytest.raises(TypeError):
            Job(fn="not-callable")
        with pytest.raises(TypeError):  # a job has no deadline of its own
            Job(fn=lambda: None, timeout=-1)


class TestJobResult:
    def test_ok_and_dict_shape(self):
        good = JobResult(job_id="a#0", name="a", status=SUCCEEDED, value=1, attempts=1)
        bad = JobResult(job_id="b#1", name="b", status=DEAD,
                        error="boom", error_type="RuntimeError", attempts=3)
        assert good.ok and not bad.ok
        as_dict = bad.to_dict()
        assert as_dict["status"] == DEAD
        assert as_dict["error_type"] == "RuntimeError"
        assert as_dict["attempts"] == 3
