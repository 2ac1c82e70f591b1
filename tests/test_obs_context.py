"""RequestContext propagation: minting, binding, and thread hand-off."""

import threading

import pytest

from repro.obs import (
    bind_context,
    capture_context,
    current_context,
    new_context,
    request_context,
    reset,
    thread_request_id,
    with_context,
)


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    yield
    reset()


class TestRequestContext:
    def test_minted_ids_are_unique(self):
        ids = {new_context().request_id for _ in range(100)}
        assert len(ids) == 100

    def test_ids_carry_the_pid(self):
        import os

        assert f"-{os.getpid()}-" in new_context().request_id

    def test_explicit_request_id_wins(self):
        assert new_context(request_id="req-x").request_id == "req-x"

    def test_timeout_derives_a_deadline(self):
        ctx = new_context(timeout=10.0)
        remaining = ctx.remaining()
        assert 9.0 < remaining <= 10.0
        assert not ctx.expired()

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            new_context(timeout=-1)

    def test_zero_timeout_is_expired(self):
        assert new_context(timeout=0.0).expired()

    def test_no_deadline_never_expires(self):
        ctx = new_context()
        assert ctx.remaining() is None
        assert not ctx.expired()

    def test_baggage_and_tenant_in_to_dict(self):
        ctx = new_context(tenant="acme", shard="eu-1")
        out = ctx.to_dict()
        assert out["tenant"] == "acme"
        assert out["baggage"] == {"shard": "eu-1"}
        assert out["request_id"] == ctx.request_id
        assert "baggage" not in new_context().to_dict()

    def test_context_is_immutable(self):
        ctx = new_context(tenant="acme")
        with pytest.raises(AttributeError):
            ctx.tenant = "other"


class TestRecordingDecision:
    def test_each_root_draws_in_the_unit_interval(self):
        draws = {new_context().draw for _ in range(200)}
        assert len(draws) > 190
        assert all(0.0 <= draw < 1.0 for draw in draws)

    def test_nested_context_inherits_the_draw(self):
        with request_context() as outer:
            inner = new_context(tenant="t")
            with request_context() as nested:
                assert nested.request_id != outer.request_id
                assert nested.draw == outer.draw
        assert inner.draw == outer.draw

    def test_bound_context_keeps_its_draw_on_another_thread(self):
        seen = []
        with request_context() as ctx:
            thread = threading.Thread(
                target=with_context(lambda: seen.append(current_context())))
            thread.start()
            thread.join(5)
        assert not thread.is_alive()
        assert seen[0] == ctx


class TestActivation:
    def test_no_context_by_default(self):
        assert current_context() is None
        assert capture_context() is None

    def test_request_context_activates_and_restores(self):
        with request_context(tenant="t") as ctx:
            assert current_context() is ctx
            assert thread_request_id(threading.get_ident()) == ctx.request_id
        assert current_context() is None
        assert thread_request_id(threading.get_ident()) is None

    def test_nesting_restores_the_outer_context(self):
        with request_context() as outer:
            with request_context() as inner:
                assert current_context() is inner
                assert (thread_request_id(threading.get_ident())
                        == inner.request_id)
            assert current_context() is outer
            assert thread_request_id(threading.get_ident()) == outer.request_id

    def test_bind_none_clears_inherited_context(self):
        with request_context():
            with bind_context(None):
                assert current_context() is None
                assert thread_request_id(threading.get_ident()) is None
            assert current_context() is not None

    def test_bind_context_restores_on_exception(self):
        ctx = new_context()
        with pytest.raises(RuntimeError):
            with bind_context(ctx):
                raise RuntimeError("boom")
        assert current_context() is None


class TestThreadHandOff:
    def test_plain_thread_does_not_inherit(self):
        seen = []
        with request_context():
            thread = threading.Thread(target=lambda: seen.append(current_context()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_with_context_carries_across_threads(self):
        seen = []
        with request_context() as ctx:
            runner = with_context(lambda: seen.append(current_context()))
            thread = threading.Thread(target=runner)
            thread.start()
            thread.join()
        assert seen[0] is not None
        assert seen[0].request_id == ctx.request_id

    def test_with_context_explicit_ctx(self):
        ctx = new_context(tenant="x")
        seen = []
        with_context(lambda: seen.append(current_context()), ctx)()
        assert seen[0] is ctx
        assert current_context() is None  # unbound after the call

    def test_with_context_captures_none_outside_a_request(self):
        runner = with_context(lambda: current_context())
        assert runner.__obs_context__ is None
        assert runner() is None

    def test_with_context_preserves_name_and_passes_args(self):
        def compute(a, b=0):
            return a + b

        runner = with_context(compute)
        assert runner.__name__ == "compute"
        assert runner(2, b=3) == 5

    def test_worker_thread_map_is_per_thread(self):
        ids = {}
        barrier = threading.Barrier(2)

        def work(label):
            with request_context() as ctx:
                barrier.wait(timeout=5)
                ids[label] = (ctx.request_id,
                              thread_request_id(threading.get_ident()))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ids[0][0] == ids[0][1]
        assert ids[1][0] == ids[1][1]
        assert ids[0][0] != ids[1][0]
