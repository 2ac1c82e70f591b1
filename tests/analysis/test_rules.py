"""Per-rule fixtures: each rule fires on a seeded violation and stays
quiet on the idiomatic negative counterpart."""

import textwrap

from repro.analysis import LintEngine
from repro.analysis.rules import (
    BareExceptRule,
    BenchDeterminismRule,
    BreakerGuardRule,
    CacheEpochRule,
    ContextPropagationRule,
    ExceptionHygieneRule,
    LockAcrossBlockingRule,
    LockDisciplineRule,
    RegistryCoordsRule,
    RuntimeTracedRule,
    ServingContextRule,
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


VOCAB = ({"METADATA_EXTRACTION", "DATA_DISCOVERY"}, {"INDEXING", "PROFILING"})


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


class TestRegistryCoords:
    def _rule(self, survey_map="searcher"):
        return RegistryCoordsRule(vocabulary=VOCAB, survey_map=survey_map)

    GOOD = """
        from repro.core.registry import Function, Method, SystemInfo, register_system

        @register_system(SystemInfo(
            name="searcher",
            functions=(Function.DATA_DISCOVERY,),
            methods=(Method.INDEXING,),
        ))
        class Searcher:
            pass
    """

    def test_valid_coordinates_are_clean(self, tmp_path):
        _tree(tmp_path, {"repro/discovery/searcher.py": self.GOOD})
        assert _run(self._rule(), tmp_path) == []

    def test_unknown_coordinate_fires_with_file_and_line(self, tmp_path):
        bad = self.GOOD.replace("Function.DATA_DISCOVERY", "Function.NOPE")
        _tree(tmp_path, {"repro/discovery/searcher.py": bad})
        findings = _run(self._rule(), tmp_path)
        assert len(findings) == 1
        assert findings[0].path == "repro/discovery/searcher.py"
        assert findings[0].line == 6
        assert "unknown function coordinate `Function.NOPE`" in findings[0].message

    def test_missing_functions_tuple_fires(self, tmp_path):
        bad = self.GOOD.replace("functions=(Function.DATA_DISCOVERY,),\n", "")
        _tree(tmp_path, {"repro/discovery/searcher.py": bad})
        findings = _run(self._rule(), tmp_path)
        assert any("registers no `functions=`" in f.message for f in findings)

    def test_duplicate_system_name_fires_on_second_site(self, tmp_path):
        _tree(tmp_path, {
            "repro/discovery/searcher.py": self.GOOD,
            "repro/storage/searcher2.py": self.GOOD,
        })
        findings = _run(self._rule(survey_map="searcher searcher2"), tmp_path)
        assert len(findings) == 1
        assert findings[0].path == "repro/storage/searcher2.py"
        assert "already registered at repro/discovery/searcher.py" in findings[0].message

    def test_stale_systems_import_fires(self, tmp_path):
        _tree(tmp_path, {
            "repro/discovery/empty.py": "class NotRegistered:\n    pass\n",
            "repro/systems.py": "import repro.discovery.empty\n",
        })
        findings = _run(self._rule(survey_map="empty"), tmp_path)
        assert len(findings) == 1
        assert "defines no @register_system" in findings[0].message

    def test_registered_module_missing_from_manifest_fires(self, tmp_path):
        _tree(tmp_path, {
            "repro/discovery/searcher.py": self.GOOD,
            "repro/systems.py": "import json\n",
        })
        findings = _run(self._rule(), tmp_path)
        assert len(findings) == 1
        assert "not imported by repro/systems.py" in findings[0].message

    def test_module_absent_from_survey_map_fires(self, tmp_path):
        _tree(tmp_path, {"repro/discovery/searcher.py": self.GOOD})
        findings = _run(self._rule(survey_map="other modules only"), tmp_path)
        assert len(findings) == 1
        assert "not referenced in docs/SURVEY_MAP.md" in findings[0].message


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


class TestBreakerGuarded:
    def _findings(self, tmp_path, body):
        source = "class Polystore:\n" + textwrap.indent(
            textwrap.dedent(body), "    ")
        _tree(tmp_path, {"repro/storage/polystore.py": source})
        return _run(BreakerGuardRule(), tmp_path)

    def test_raw_backend_call_fires(self, tmp_path):
        findings = self._findings(tmp_path, """
            def fetch(self, name):
                return self.relational.scan(name)
        """)
        assert len(findings) == 1
        assert findings[0].rule == "breaker-guard"
        assert "self.relational.scan" in findings[0].message

    def test_call_inside_guard_thunk_is_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            def fetch(self, name):
                return self._guarded("relational", "scan",
                                     lambda: self.relational.scan(name))
        """) == []

    def test_public_guard_receiver_is_clean(self, tmp_path):
        # the federation engine calls polystore.guarded(...)
        assert self._findings(tmp_path, """
            def subquery(self, name):
                return self.polystore.guarded(
                    "document", "find",
                    lambda: self.polystore.document.find(name))
        """) == []

    def test_dotted_receiver_fires_too(self, tmp_path):
        findings = self._findings(tmp_path, """
            def subquery(self, name):
                return self.polystore.document.find(name)
        """)
        assert len(findings) == 1
        assert "self.polystore.document.find" in findings[0].message

    def test_unguarded_helper_is_sanctioned_raw_access(self, tmp_path):
        assert self._findings(tmp_path, """
            def _replica_unguarded(self, name):
                return self.objects.get("fallback", name)
        """) == []

    def test_init_wiring_is_sanctioned(self, tmp_path):
        assert self._findings(tmp_path, """
            def __init__(self):
                self.objects.create_bucket("raw")
        """) == []

    def test_non_backend_receivers_ignored(self, tmp_path):
        assert self._findings(tmp_path, """
            def report(self):
                return self.health.snapshot()
        """) == []

    def test_out_of_scope_files_ignored(self, tmp_path):
        _tree(tmp_path, {"repro/cleaning/mod.py": """
            class C:
                def f(self):
                    return self.relational.scan("t")
        """})
        assert _run(BreakerGuardRule(), tmp_path) == []


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


class TestCacheEpoch:
    def _findings(self, tmp_path, body):
        source = "class DataLake:\n" + textwrap.indent(
            textwrap.dedent(body), "    ")
        _tree(tmp_path, {"repro/core/lake.py": source})
        return _run(CacheEpochRule(), tmp_path)

    def test_raw_engine_query_fires(self, tmp_path):
        findings = self._findings(tmp_path, """
            def discover_related(self, table, k=5):
                return self.discovery.related_tables(table, k=k)
        """)
        assert len(findings) == 1
        assert findings[0].rule == "cache-epoch"
        assert "related_tables" in findings[0].message
        assert findings[0].path == "repro/core/lake.py"

    def test_local_rebound_engine_fires_too(self, tmp_path):
        # receivers are routinely re-bound; the method name is the signal
        findings = self._findings(tmp_path, """
            def keyword_search(self, keywords, k=10):
                searcher = self._keyword_searcher()
                return searcher.search(keywords, k=k)
        """)
        assert len(findings) == 1
        assert "`search(...)`" in findings[0].message

    def test_call_inside_cached_thunk_is_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            def discover_related(self, table, k=5):
                return self._cached(
                    ("related", table, k),
                    lambda: self.discovery.related_tables(table, k=k))
        """) == []

    def test_uncached_helper_is_sanctioned(self, tmp_path):
        assert self._findings(tmp_path, """
            def _related_uncached(self, table, k):
                return self.discovery.related_tables(table, k=k)
        """) == []

    def test_non_query_methods_ignored(self, tmp_path):
        assert self._findings(tmp_path, """
            def warm(self):
                self.discovery.build()
                return self.maintainer.engine()
        """) == []

    def test_out_of_scope_files_ignored(self, tmp_path):
        # engine modules call their own query methods by design
        _tree(tmp_path, {"repro/discovery/table_union.py": """
            class TableUnionSearch:
                def search(self, query, k=5):
                    return self.top_k(query, k=k)
        """})
        assert _run(CacheEpochRule(), tmp_path) == []


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


class TestContextPropagation:
    def _findings(self, tmp_path, body, rel="repro/runtime/scheduler.py"):
        _tree(tmp_path, {rel: body})
        return _run(ContextPropagationRule(), tmp_path)

    def test_bare_pool_submit_fires(self, tmp_path):
        findings = self._findings(tmp_path, """
            def fan_out(pool, work):
                return [pool.submit(work, item) for item in range(4)]
        """)
        assert len(findings) == 1
        assert findings[0].rule == "context-propagation"
        assert "pool.submit(...)" in findings[0].message
        assert "RequestContext" in findings[0].message

    def test_bare_thread_spawn_fires(self, tmp_path):
        findings = self._findings(tmp_path, """
            import threading

            def spawn(fn):
                thread = threading.Thread(target=fn, daemon=True)
                thread.start()
        """)
        assert len(findings) == 1
        assert "threading.Thread(...)" in findings[0].message

    def test_with_context_wrapper_is_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            from repro.obs import with_context

            def fan_out(pool, work):
                runner = with_context(work)
                return [pool.submit(runner, item) for item in range(4)]
        """) == []

    def test_capture_and_bind_pair_is_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            import threading
            from repro.obs import bind_context, capture_context

            def spawn(fn):
                ctx = capture_context()

                def run():
                    with bind_context(ctx):
                        fn()

                threading.Thread(target=run, daemon=True).start()
        """) == []

    def test_helper_in_nested_lambda_satisfies_the_spawn_site(self, tmp_path):
        assert self._findings(tmp_path, """
            def fan_out(pool, work, obs):
                return pool.submit(lambda: obs.with_context(work)())
        """) == []

    def test_self_submit_delegation_is_exempt(self, tmp_path):
        assert self._findings(tmp_path, """
            class Scheduler:
                def enqueue(self, job):
                    return self.submit(job)
        """) == []

    def test_pragma_suppresses_with_rationale(self, tmp_path):
        assert self._findings(tmp_path, """
            import threading

            def spawn(fn):
                # worker loop re-binds per job, not per thread
                thread = threading.Thread(  # lakelint: disable=context-propagation
                    target=fn, daemon=True)
                thread.start()
        """) == []

    def test_out_of_scope_modules_ignored(self, tmp_path):
        findings = self._findings(tmp_path, """
            def fan_out(pool, work):
                return pool.submit(work)
        """, rel="repro/storage/mover.py")
        assert findings == []


class TestServingContext:
    def _findings(self, tmp_path, body, rel="repro/serving/server.py"):
        _tree(tmp_path, {rel: body})
        return _run(ServingContextRule(), tmp_path)

    def test_unguarded_lake_call_fires(self, tmp_path):
        findings = self._findings(tmp_path, """
            class LakeServer:
                def _handle_sql(self, tenant, request):
                    return self.lake.sql(request.query)
        """)
        assert len(findings) == 1
        assert findings[0].rule == "serving-context"
        assert "self.lake.sql" in findings[0].message
        assert "_guarded" in findings[0].message

    def test_lake_call_inside_guard_thunk_is_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            class LakeServer:
                def _handle_sql(self, tenant, request):
                    return self._guarded(tenant, lambda: self.lake.sql(request.query))
        """) == []

    def test_unguarded_helper_and_init_are_sanctioned(self, tmp_path):
        assert self._findings(tmp_path, """
            class LakeServer:
                def __init__(self, lake):
                    self.lake = lake
                    self.lake.health()

                def _catalog_unguarded(self, tenant):
                    return list(self.lake.datasets())
        """) == []

    def test_dispatcher_without_request_context_fires(self, tmp_path):
        findings = self._findings(tmp_path, """
            class LakeServer:
                def _run(self, tenant, request):
                    handlers = {"sql": self._handle_sql}
                    return handlers[request.op](tenant, request)
        """)
        assert len(findings) == 1
        assert "_run" in findings[0].message
        assert "request_context" in findings[0].message

    def test_dispatcher_opening_context_is_clean(self, tmp_path):
        assert self._findings(tmp_path, """
            from repro.obs import request_context

            class LakeServer:
                def _run(self, tenant, request):
                    with request_context(tenant=tenant):
                        handlers = {"sql": self._handle_sql}
                        return handlers[request.op](tenant, request)
        """) == []

    def test_anonymous_request_context_fires(self, tmp_path):
        findings = self._findings(tmp_path, """
            from repro.obs import request_context

            class LakeServer:
                def _run(self, tenant, request):
                    with request_context():
                        handlers = {"sql": self._handle_sql}
                        return handlers[request.op](tenant, request)
        """)
        assert len(findings) == 1
        assert "tenant=" in findings[0].message

    def test_out_of_scope_modules_ignored(self, tmp_path):
        assert self._findings(tmp_path, """
            class Anything:
                def query(self, q):
                    return self.lake.sql(q)
        """, rel="repro/core/lake_client.py") == []


class TestDefaultRules:
    def test_at_least_five_rules_and_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert len(first) >= 5
        names = [rule.name for rule in first]
        assert len(names) == len(set(names))
        assert {"traced-manifest", "runtime-traced", "bare-except",
                "exception-hygiene", "lock-discipline", "registry-coords",
                "bench-determinism", "breaker-guard",
                "lock-across-blocking",
                "cache-epoch", "context-propagation",
                "serving-context"} <= set(names)
        assert "lock-order" not in names  # the lockset witness checks order
        assert all(a is not b for a, b in zip(first, second))
