"""Tracing spans: nesting, thread safety, decorator, and the no-op opt-out."""

import threading

import pytest

from repro.obs import (
    NOOP_RECORDER,
    MetricsRegistry,
    NoopRecorder,
    RequestContext,
    SpanRecorder,
    bind_context,
    disable,
    enable,
    get_recorder,
    get_registry,
    request_context,
    reset,
    traced,
)


@pytest.fixture(autouse=True)
def clean_obs():
    enable()
    reset()
    yield
    enable()
    reset()


class TestSpanNesting:
    def test_nested_spans_form_parent_child_tree(self):
        recorder = SpanRecorder()
        with recorder.span("root", tier="ingestion"):
            with recorder.span("child_a", tier="storage"):
                with recorder.span("grandchild"):
                    pass
            with recorder.span("child_b"):
                pass
        roots = recorder.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        assert root.children[1].children == []

    def test_sibling_roots_stay_separate(self):
        recorder = SpanRecorder()
        with recorder.span("first"):
            pass
        with recorder.span("second"):
            pass
        assert [r.name for r in recorder.roots()] == ["first", "second"]

    def test_duration_and_walk(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        outer = recorder.roots()[0]
        inner = outer.children[0]
        assert outer.duration_ms >= inner.duration_ms >= 0.0
        assert [s.name for s in outer.walk()] == ["outer", "inner"]
        assert len(recorder.all_spans()) == 2

    def test_counters_and_tags(self):
        recorder = SpanRecorder()
        with recorder.span("op", backend="relational") as span:
            span.add("rows", 10)
            span.add("rows", 5)
            span.tag(mode="bulk")
        finished = recorder.roots()[0]
        assert finished.counters == {"rows": 15}
        assert finished.tags == {"backend": "relational", "mode": "bulk"}

    def test_exception_marks_error_and_unwinds(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("outer"):
                with recorder.span("inner"):
                    raise ValueError("boom")
        assert recorder.current() is None
        outer = recorder.roots()[0]
        assert outer.status == "error"
        assert outer.children[0].status == "error"
        assert outer.children[0].tags["error"] == "ValueError"

    def test_bounded_roots(self):
        recorder = SpanRecorder(max_roots=4)
        for index in range(10):
            with recorder.span(f"s{index}"):
                pass
        assert [r.name for r in recorder.roots()] == ["s6", "s7", "s8", "s9"]

    def test_to_dict_recursive(self):
        recorder = SpanRecorder()
        with recorder.span("root", tier="storage", system="Constance") as span:
            span.add("bytes", 3)
            with recorder.span("inner"):
                pass
        data = recorder.roots()[0].to_dict()
        assert data["name"] == "root"
        assert data["tier"] == "storage"
        assert data["system"] == "Constance"
        assert data["counters"] == {"bytes": 3}
        assert data["children"][0]["name"] == "inner"


class TestThreadSafety:
    def test_concurrent_threads_do_not_corrupt_recorder(self):
        recorder = SpanRecorder(max_roots=10_000)
        num_threads, spans_per_thread = 8, 100
        errors = []

        def work(thread_id):
            try:
                for index in range(spans_per_thread):
                    with recorder.span(f"t{thread_id}", tier="storage") as span:
                        with recorder.span(f"t{thread_id}.child"):
                            pass
                        span.add("ops")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        roots = recorder.roots()
        assert len(roots) == num_threads * spans_per_thread
        # every root kept exactly its own child: no cross-thread adoption
        for root in roots:
            assert len(root.children) == 1
            assert root.children[0].name == f"{root.name}.child"
            assert root.counters == {"ops": 1}

    def test_thread_local_current_span(self):
        recorder = SpanRecorder()
        seen = {}

        def work():
            seen["other"] = recorder.current()

        with recorder.span("main_thread"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            assert recorder.current().name == "main_thread"
        assert seen["other"] is None


class TestRecordingShare:
    """A request is recorded when its draw is below the recorder's share;
    a span with no context, under a recorded span or heard by a listener
    is always recorded."""

    def test_unrecorded_request_opens_no_span(self):
        recorder = SpanRecorder(share=0.0)
        with request_context():
            with recorder.span("skipped") as span:
                assert span is None
                assert recorder.current() is None
        assert recorder.roots() == []

    def test_contextless_span_is_recorded(self):
        recorder = SpanRecorder(share=0.0)
        with recorder.span("no_context"):
            with recorder.span("child"):
                pass
        (plain,) = recorder.roots()
        assert plain.name == "no_context" and plain.request_id is None
        assert [child.name for child in plain.children] == ["child"]

    def test_span_under_a_recorded_span_is_recorded(self):
        recorder = SpanRecorder(share=0.0)
        with recorder.span("outer"):
            with request_context():
                with recorder.span("inner"):
                    pass
        (outer,) = recorder.roots()
        assert [child.name for child in outer.children] == ["inner"]

    def test_listener_records_every_request(self):
        recorder = SpanRecorder(share=0.0)
        seen = []
        recorder.add_listener(seen.append)
        with request_context():
            with recorder.span("heard"):
                pass
        recorder.remove_listener(seen.append)
        with request_context():
            with recorder.span("unheard"):
                pass
        assert [span.name for span in seen] == ["heard"]
        assert [root.name for root in recorder.roots()] == ["heard"]

    def test_share_is_applied_to_the_draw(self):
        recorder = SpanRecorder(share=0.5)
        for draw, recorded in ((0.49, True), (0.5, False)):
            with bind_context(RequestContext("req-draw", draw=draw)):
                with recorder.span("op") as span:
                    assert (span is not None) is recorded
                    with recorder.span("child"):
                        pass
        (root,) = recorder.roots()
        assert root.request_id == "req-draw"
        assert [child.name for child in root.children] == ["child"]

    def test_share_must_be_a_fraction(self):
        for share in (-0.1, 1.5):
            with pytest.raises(ValueError):
                SpanRecorder(share=share)

    def test_span_histogram_survives_a_registry_reset(self):
        registry = MetricsRegistry()
        recorder = SpanRecorder(registry=registry)
        with recorder.span("op"):
            pass
        registry.reset()
        with recorder.span("op"):
            pass
        assert registry.histogram("span_ms.op").count == 1


@pytest.mark.usefixtures("keep_every_span")
class TestTracedDecorator:
    def test_decorator_records_span_with_metadata(self):
        reset()

        @traced("test.op", tier="storage", system="X", function="storage_backend")
        def operation(value):
            return value * 2

        assert operation(21) == 42
        roots = get_recorder().roots()
        assert len(roots) == 1
        assert roots[0].name == "test.op"
        assert roots[0].tier == "storage"
        assert roots[0].system == "X"
        assert roots[0].function == "storage_backend"
        assert operation.__obs_span__["name"] == "test.op"

    def test_decorator_default_name(self):
        @traced()
        def some_operation():
            return 1

        assert some_operation() == 1
        assert any(r.name.endswith("some_operation") for r in get_recorder().roots())

    def test_decorator_preserves_exceptions(self):
        @traced("test.fail")
        def failing():
            raise KeyError("gone")

        with pytest.raises(KeyError):
            failing()
        assert get_recorder().roots()[-1].status == "error"


class TestNoopRecorder:
    def test_noop_is_a_true_noop(self):
        recorder = NoopRecorder()
        with recorder.span("anything", tier="storage") as span:
            assert span is None
        assert recorder.roots() == []
        assert recorder.all_spans() == []
        assert recorder.current() is None
        assert len(recorder) == 0
        assert not recorder.enabled

    def test_disable_stops_recording_and_registry_stays_empty(self):
        disable()
        try:
            assert get_recorder() is NOOP_RECORDER

            @traced("test.invisible", tier="storage")
            def operation():
                return "ok"

            assert operation() == "ok"
            assert get_recorder().roots() == []
            assert "span_ms.test.invisible" not in get_registry()
        finally:
            enable()
        # re-enabling restores the live recorder without losing history
        assert get_recorder().enabled

    def test_enable_preserves_prior_spans(self):
        reset()
        with get_recorder().span("kept"):
            pass
        disable()
        with get_recorder().span("dropped"):
            pass
        enable()
        assert [r.name for r in get_recorder().roots()] == ["kept"]
