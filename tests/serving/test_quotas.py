"""Quotas and admission: token bucket refill, in-flight caps, shed counters."""

import pytest

from repro.core.errors import QuotaExceeded, Throttled
from repro.obs import get_registry
from repro.serving import AdmissionController, TenantQuota, TokenBucket


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTenantQuota:
    def test_defaults_are_sane(self):
        quota = TenantQuota()
        assert quota.max_in_flight >= 1
        assert quota.requests_per_sec > 0
        assert quota.bucket_capacity >= 1
        assert quota.max_result_rows >= 1

    def test_burst_defaults_to_rate(self):
        assert TenantQuota(requests_per_sec=40.0).bucket_capacity == 40.0
        assert TenantQuota(requests_per_sec=40.0, burst=5).bucket_capacity == 5

    def test_sub_one_rate_still_gets_a_token(self):
        assert TenantQuota(requests_per_sec=0.5).bucket_capacity == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"max_in_flight": 0},
        {"requests_per_sec": 0.0},
        {"requests_per_sec": -1.0},
        {"burst": 0.5},
        {"max_result_rows": 0},
        # values that passed the range checks and broke admission
        {"burst": float("nan")},
        {"requests_per_sec": float("nan")},
        {"max_result_rows": float("inf")},
        {"max_result_rows": 2.0},
        {"max_result_rows": True},
        {"max_in_flight": 2.5},
        {"max_in_flight": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False]
        clock.advance(0.5)  # 1 token back at 2/s
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.5)


class TestAdmissionController:
    def _controller(self, clock, **kwargs):
        return AdmissionController(clock=clock, **kwargs)

    def test_in_flight_cap_raises_quota_exceeded(self):
        clock = FakeClock()
        controller = self._controller(clock)
        controller.set_quota("acme", TenantQuota(
            max_in_flight=2, requests_per_sec=1000.0))
        first = controller.admit("acme")
        controller.admit("acme")
        with pytest.raises(QuotaExceeded, match="in-flight cap"):
            controller.admit("acme")
        first.release()  # finishing a request frees a slot
        controller.admit("acme")

    def test_rate_limit_raises_throttled_and_recovers_on_refill(self):
        clock = FakeClock()
        controller = self._controller(clock)
        controller.set_quota("acme", TenantQuota(
            max_in_flight=100, requests_per_sec=10.0, burst=2))
        controller.admit("acme").release()
        controller.admit("acme").release()
        with pytest.raises(Throttled, match="retry after backoff"):
            controller.admit("acme")
        clock.advance(0.1)  # one token refills at 10/s
        controller.admit("acme").release()
        with pytest.raises(Throttled):
            controller.admit("acme")

    def test_server_capacity_sheds_any_tenant(self):
        clock = FakeClock()
        controller = self._controller(clock, max_pending=2)
        tickets = [controller.admit("acme"), controller.admit("beta")]
        with pytest.raises(Throttled, match="server at capacity"):
            controller.admit("carol")
        tickets[0].release()
        controller.admit("carol")

    def test_rejections_count_the_labeled_throttle_metric(self):
        clock = FakeClock()
        controller = self._controller(clock)
        controller.set_quota("acme", TenantQuota(
            max_in_flight=1, requests_per_sec=1000.0))
        counter = get_registry().counter("serving.throttled", tenant="acme")
        before = counter.value
        ticket = controller.admit("acme")
        for _ in range(3):
            with pytest.raises(QuotaExceeded):
                controller.admit("acme")
        ticket.release()
        assert counter.value - before == 3

    def test_ticket_release_is_idempotent_and_context_managed(self):
        clock = FakeClock()
        controller = self._controller(clock)
        with controller.admit("acme") as ticket:
            assert controller.pending() == 1
        ticket.release()  # second release must not underflow
        assert controller.pending() == 0
        assert controller.stats()["tenants"]["acme"]["in_flight"] == 0

    def test_unknown_tenant_gets_the_default_quota(self):
        clock = FakeClock()
        default = TenantQuota(max_in_flight=3, requests_per_sec=7.0)
        controller = self._controller(clock, default_quota=default)
        assert controller.quota("anyone") == default

    def test_set_quota_resets_the_bucket_shape(self):
        clock = FakeClock()
        controller = self._controller(clock)
        controller.set_quota("acme", TenantQuota(
            max_in_flight=10, requests_per_sec=10.0, burst=1))
        controller.admit("acme").release()
        with pytest.raises(Throttled):
            controller.admit("acme")
        controller.set_quota("acme", TenantQuota(
            max_in_flight=10, requests_per_sec=10.0, burst=5))
        for _ in range(5):
            controller.admit("acme").release()

    def test_stats_shape(self):
        clock = FakeClock()
        controller = self._controller(clock, max_pending=9)
        controller.admit("acme")
        stats = controller.stats()
        assert stats["max_pending"] == 9
        assert stats["pending"] == 1
        assert stats["tenants"]["acme"]["admitted"] == 1
        assert stats["tenants"]["acme"]["rejected"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
