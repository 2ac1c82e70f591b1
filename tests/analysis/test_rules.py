"""Per-rule fixtures: each rule fires on a seeded violation and stays
quiet on the idiomatic negative counterpart."""

import textwrap

from repro.analysis import LintEngine
from repro.analysis.rules import (
    BareExceptRule,
    BenchDeterminismRule,
    ExceptionHygieneRule,
    LockAcrossBlockingRule,
    LockDisciplineRule,
    RuntimeTracedRule,
    TracedManifestRule,
    default_rules,
)


def _tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def _run(rule, tmp_path):
    return LintEngine([rule]).run([tmp_path], root=tmp_path).findings


class TestLockDiscipline:
    COUNTER = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count: int = 0
                self._items = []

            def bump(self):
                {body}
    """

    def _fixture(self, tmp_path, body):
        source = self.COUNTER.format(body=body)
        return _tree(tmp_path, {"repro/runtime/counter.py": source})

    def test_unlocked_assignment_fires_with_file_and_line(self, tmp_path):
        self._fixture(tmp_path, "self._count += 1")
        findings = _run(LockDisciplineRule(), tmp_path)
        assert len(findings) == 1
        assert findings[0].path == "repro/runtime/counter.py"
        assert findings[0].line == 11
        assert "Counter.bump mutates lock-protected self._count" in findings[0].message

    def test_mutation_under_with_lock_is_clean(self, tmp_path):
        self._fixture(tmp_path, "with self._lock:\n                    self._count += 1")
        assert _run(LockDisciplineRule(), tmp_path) == []

    def test_container_mutator_call_fires(self, tmp_path):
        self._fixture(tmp_path, "self._items.append(1)")
        findings = _run(LockDisciplineRule(), tmp_path)
        assert len(findings) == 1 and "self._items" in findings[0].message

    def test_locked_suffix_helper_is_exempt(self, tmp_path):
        _tree(tmp_path, {"repro/runtime/counter.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def _bump_locked(self):
                    self._count += 1
        """})
        assert _run(LockDisciplineRule(), tmp_path) == []

    def test_class_without_lock_is_out_of_contract(self, tmp_path):
        _tree(tmp_path, {"repro/obs/plain.py": """
            class Plain:
                def __init__(self):
                    self._count = 0

                def bump(self):
                    self._count += 1
        """})
        assert _run(LockDisciplineRule(), tmp_path) == []

    def test_tuple_assigned_lock_is_recognized(self, tmp_path):
        # regression: `self._lock, self._count = threading.Lock(), 0` used
        # to classify nothing — no lock found, every mutation check muted
        _tree(tmp_path, {"repro/runtime/counter.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock, self._count = threading.Lock(), 0

                def bump(self):
                    self._count += 1
        """})
        findings = _run(LockDisciplineRule(), tmp_path)
        assert len(findings) == 1
        assert "self._count" in findings[0].message

    def test_tuple_assigned_lock_is_not_protected_state(self, tmp_path):
        # the lock element itself must land in `locks`, not `protected`
        _tree(tmp_path, {"repro/runtime/counter.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock, self._count = threading.Lock(), 0

                def bump(self):
                    with self._lock:
                        self._count += 1
        """})
        assert _run(LockDisciplineRule(), tmp_path) == []

    def test_multi_item_with_counts_as_held(self, tmp_path):
        _tree(tmp_path, {"repro/runtime/counter.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._count = 0

                def bump(self, other):
                    with other.guard(), self._a:
                        self._count += 1
        """})
        assert _run(LockDisciplineRule(), tmp_path) == []

    def test_tuple_unpack_from_call_stays_protected(self, tmp_path):
        # value shape unknown -> conservatively state, so mutations still flag
        _tree(tmp_path, {"repro/runtime/counter.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._head, self._tail = self._split()

                def bump(self):
                    self._head += 1
        """})
        findings = _run(LockDisciplineRule(), tmp_path)
        assert len(findings) == 1
        assert "self._head" in findings[0].message

    def test_out_of_scope_package_is_ignored(self, tmp_path):
        self._fixture(tmp_path, "self._count += 1")
        source = (tmp_path / "repro/runtime/counter.py").read_text()
        _tree(tmp_path, {"repro/discovery/counter.py": source})
        findings = _run(LockDisciplineRule(), tmp_path)
        assert {f.path for f in findings} == {"repro/runtime/counter.py"}


class TestBenchDeterminism:
    def _findings(self, tmp_path, source):
        _tree(tmp_path, {"benchmarks/bench_x.py": source})
        return _run(BenchDeterminismRule(), tmp_path)

    def test_seeded_rng_and_perf_counter_are_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            import random, time
            rng = random.Random(1234)
            start = time.perf_counter()
            value = rng.random()
            elapsed = time.perf_counter() - start
        """) == []

    def test_unseeded_random_constructor_fires(self, tmp_path):
        findings = self._findings(tmp_path, "import random\nrng = random.Random()\n")
        assert len(findings) == 1 and "unseeded `random.Random()`" in findings[0].message
        assert findings[0].line == 2

    def test_shared_module_rng_fires(self, tmp_path):
        findings = self._findings(tmp_path, "import random\nx = random.choice([1])\n")
        assert len(findings) == 1 and "shared module-level RNG" in findings[0].message

    def test_wall_clock_fires(self, tmp_path):
        findings = self._findings(tmp_path, "import time\nstamp = time.time()\n")
        assert len(findings) == 1 and "wall-clock" in findings[0].message

    def test_numpy_global_rng_fires_and_seeded_generator_passes(self, tmp_path):
        findings = self._findings(tmp_path, """
            import numpy as np
            bad = np.random.rand(3)
            ok = np.random.default_rng(7)
        """)
        assert len(findings) == 1 and "np.random.rand" in findings[0].message

    def test_non_benchmark_paths_are_out_of_scope(self, tmp_path):
        _tree(tmp_path, {"repro/util.py": "import time\nstamp = time.time()\n"})
        assert _run(BenchDeterminismRule(), tmp_path) == []


class TestExceptionHygiene:
    def _findings(self, tmp_path, body):
        source = f"""
            import logging
            log = logging.getLogger(__name__)

            def f():
                try:
                    work()
                except Exception as exc:
            {body}
        """
        _tree(tmp_path, {"repro/mod.py": textwrap.dedent(source)})
        return _run(ExceptionHygieneRule(), tmp_path)

    def test_silent_swallow_fires(self, tmp_path):
        findings = self._findings(tmp_path, "        result = None")
        assert len(findings) == 1
        assert findings[0].rule == "exception-hygiene"

    def test_logging_handler_is_clean(self, tmp_path):
        assert self._findings(tmp_path, '        log.warning("boom: %s", exc)') == []

    def test_reraising_handler_is_clean(self, tmp_path):
        assert self._findings(tmp_path, "        raise") == []

    def test_narrow_handler_is_not_flagged(self, tmp_path):
        _tree(tmp_path, {"repro/mod.py": """
            def f():
                try:
                    work()
                except KeyError:
                    pass
        """})
        assert _run(ExceptionHygieneRule(), tmp_path) == []


class TestBareExcept:
    def test_bare_except_fires_and_narrow_does_not(self, tmp_path):
        _tree(tmp_path, {"repro/mod.py": """
            def f():
                try:
                    work()
                except:
                    pass
                try:
                    work()
                except ValueError:
                    pass
        """})
        findings = _run(BareExceptRule(allowlist={}), tmp_path)
        assert len(findings) == 1 and findings[0].rule == "bare-except"

    def test_broad_member_of_a_tuple_fires(self, tmp_path):
        _tree(tmp_path, {"repro/mod.py": """
            try:
                work()
            except (ValueError, BaseException):
                pass
        """})
        findings = _run(BareExceptRule(allowlist={}), tmp_path)
        assert [f.line for f in findings] == [4]

    def test_reraising_broad_handler_is_sanctioned(self, tmp_path):
        _tree(tmp_path, {"repro/mod.py": """
            try:
                work()
            except Exception as exc:
                log(exc)
                raise
        """})
        assert _run(BareExceptRule(allowlist={}), tmp_path) == []

    def test_scheduler_worker_loop_is_allowlisted(self):
        assert "repro/runtime/scheduler.py" in BareExceptRule.DEFAULT_ALLOWLIST


class TestLockAcrossBlocking:
    RUNNER = """
        import threading

        class Runner:
            def __init__(self):
                self._lock = threading.Lock()
                self.pool = None

            def kick(self, fn):
                with self._lock:
                    self.pool.submit(fn)
    """

    def _findings(self, tmp_path, source, rel="runner.py"):
        _tree(tmp_path, {rel: source})
        return _run(LockAcrossBlockingRule(), tmp_path)

    def test_submit_under_lock_fires_at_exact_line(self, tmp_path):
        findings = self._findings(tmp_path, self.RUNNER)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "lock-across-blocking"
        assert (finding.path, finding.line) == ("runner.py", 11)
        assert "Runner._lock" in finding.message
        assert "submit" in finding.message

    def test_submit_outside_lock_is_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            import threading

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.pool = None

                def kick(self, fn):
                    with self._lock:
                        queued = fn
                    self.pool.submit(queued)
        """) == []

    def test_condition_wait_and_nested_def_are_clean(self, tmp_path):
        # cv.wait() releases the condition; a def body runs when called
        assert self._findings(tmp_path, """
            import threading

            class Queue:
                def __init__(self):
                    self._cv = threading.Condition()
                    self.pool = None

                def take(self):
                    with self._cv:
                        self._cv.wait()

                        def later():
                            self.pool.submit(print)
                        return later
        """) == []

    def test_rw_guard_body_and_lambda_are_checked(self, tmp_path):
        findings = self._findings(tmp_path, """
            class Reader:
                def scan(self, guard):
                    with self._rw.reading():
                        return guard(lambda: self.lake.sql("SELECT 1"))
        """)
        assert [(f.line, f.message) for f in findings] == [
            (5, "holding Reader._rw: backend I/O `self.lake.sql(...)`")]


class TestTracedRules:
    TRACED = """
        from repro.obs.instrument import traced

        class Engine:
            @traced("engine.run")
            def run(self):
                pass
    """

    def test_manifest_entry_satisfied(self, tmp_path):
        _tree(tmp_path, {"repro/engine.py": self.TRACED})
        rule = TracedManifestRule(manifest=[("repro/engine.py", "Engine", "run")])
        assert _run(rule, tmp_path) == []

    def test_missing_decorator_fires(self, tmp_path):
        bad = self.TRACED.replace('@traced("engine.run")\n            ', "")
        _tree(tmp_path, {"repro/engine.py": bad})
        rule = TracedManifestRule(manifest=[("repro/engine.py", "Engine", "run")])
        findings = _run(rule, tmp_path)
        assert len(findings) == 1
        assert "missing a @traced decorator" in findings[0].message

    def test_stale_manifest_entry_fires(self, tmp_path):
        _tree(tmp_path, {"repro/engine.py": self.TRACED})
        rule = TracedManifestRule(manifest=[("repro/gone.py", "Engine", "run")])
        findings = _run(rule, tmp_path)
        assert len(findings) == 1 and "stale manifest entry" in findings[0].message

    def test_missing_class_and_method_fire(self, tmp_path):
        _tree(tmp_path, {"repro/engine.py": self.TRACED})
        rule = TracedManifestRule(manifest=[("repro/engine.py", "Gone", "run"),
                                            ("repro/engine.py", "Engine", "gone")])
        messages = sorted(f.message for f in _run(rule, tmp_path))
        assert messages == ["Engine.gone not found", "class Gone not found"]

    def test_manifest_covers_lake_and_polystore_entry_points(self):
        from repro.obs import INSTRUMENTATION_MANIFEST

        methods = {(cls, method) for _, cls, method in INSTRUMENTATION_MANIFEST}
        assert {("DataLake", "ingest"), ("Polystore", "store"),
                ("Polystore", "fetch")} <= methods

    def test_runtime_entry_point_without_traced_fires(self, tmp_path):
        _tree(tmp_path, {"repro/runtime/worker.py": """
            class Worker:
                def submit(self, job):
                    pass

                def _submit_internal(self, job):
                    pass

                def helper(self):
                    pass

                def drain_all(self):
                    pass

            class _Internal:
                def submit(self, job):
                    pass
        """})
        findings = _run(RuntimeTracedRule(), tmp_path)
        assert len(findings) == 2
        assert "Worker.submit" in findings[0].message
        assert "Worker.drain_all" in findings[1].message

    def test_missing_runtime_package_reported(self, tmp_path):
        _tree(tmp_path, {"repro/other.py": "x = 1\n"})
        findings = _run(RuntimeTracedRule(), tmp_path)
        assert len(findings) == 1
        assert "package not found" in findings[0].message


class TestDefaultRules:
    def test_at_least_five_rules_and_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert len(first) >= 5
        names = [rule.name for rule in first]
        assert len(names) == len(set(names))
        assert {"traced-manifest", "runtime-traced", "bare-except",
                "exception-hygiene", "lock-discipline",
                "lock-across-blocking", "bench-determinism"} <= set(names)
        assert "lock-order" not in names  # the lockset witness checks order
        assert all(a is not b for a, b in zip(first, second))
