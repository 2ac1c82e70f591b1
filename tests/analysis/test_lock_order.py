"""Lock order, checked by running code under the lockset witness.

Each case writes a small package below a temporary witness root,
imports it and drives it on real threads.  An inversion among locks
created under the root's ``src/`` fails the session check
(``assert_clean(under="src/")``, what ``tests/conftest.py`` runs at
session end); the same inversion from a ``tests/`` module does not; a
plain ``Lock`` re-acquired by its holder raises instead of hanging.
The last case holds the session witness itself to the same check
while the lake's concurrent paths run.
"""

import importlib.util
import pathlib
import textwrap
import threading

import pytest

from repro.analysis.sanitizer import LockSanitizer, SelfDeadlock

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

PAIR = """
import threading

A = threading.Lock()
B = threading.Lock()


def forward():
    with A:
        with B:
            pass


def backward():
    with B:
        with A:
            pass
"""


def _load(root, rel, source):
    """Write *source* to ``root/rel`` and import it by path."""
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source).lstrip("\n"))
    spec = importlib.util.spec_from_file_location(
        "_witnessed_" + rel[:-3].replace("/", "_"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_thread(fn):
    """Run *fn* on a daemon thread with a bounded join; its exceptions."""
    errors = []

    def target():
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 — handed back to the test
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(5.0)
    assert not thread.is_alive(), "the thread hung instead of raising"
    return errors


class TestTwoLockCycle:
    def test_ab_ba_cycle_reported_with_both_witnesses(self, tmp_path):
        with LockSanitizer(root=str(tmp_path)) as witness:
            pair = _load(tmp_path, "src/pkg/pair.py", PAIR)
            assert _in_thread(pair.forward) == []
            assert _in_thread(pair.backward) == []
        (cycle,) = witness.inversions(under="src/")
        assert sorted(cycle) == ["src/pkg/pair.py:3", "src/pkg/pair.py:4"]
        with pytest.raises(AssertionError, match="inversion") as excinfo:
            witness.assert_clean(under="src/")
        assert "src/pkg/pair.py:9" in str(excinfo.value)  # B under A
        assert "src/pkg/pair.py:15" in str(excinfo.value)  # A under B

    def test_same_cycle_from_a_tests_module_passes_the_session_check(
            self, tmp_path):
        with LockSanitizer(root=str(tmp_path)) as witness:
            pair = _load(tmp_path, "tests/pair.py", PAIR)
            _in_thread(pair.forward)
            _in_thread(pair.backward)
        assert witness.inversions() != []  # observed ...
        assert witness.inversions(under="src/") == []  # ... but not counted
        witness.assert_clean(under="src/")

    def test_consistent_order_is_clean(self, tmp_path):
        with LockSanitizer(root=str(tmp_path)) as witness:
            pair = _load(tmp_path, "src/pkg/pair.py", PAIR)
            _in_thread(pair.forward)
            _in_thread(pair.forward)
        assert [(edge["held"], edge["acquired"], edge["count"])
                for edge in witness.report()["edges"]] == [
            ("src/pkg/pair.py:3", "src/pkg/pair.py:4", 2)]
        witness.assert_clean(under="src/")


class TestThreeModuleCallbackCycle:
    """``a.start`` holds LA into ``b.mid`` (LB), which hands ``a.finish``
    to ``c.bottom`` (LC); the callback re-takes LA."""

    FILES = {
        "src/pkg/a.py": """
            import threading

            LA = threading.Lock()


            def start(mid):
                with LA:
                    mid()


            def finish():
                with LA:
                    pass
        """,
        "src/pkg/b.py": """
            import threading

            LB = threading.Lock()


            def mid(bottom, callback):
                with LB:
                    bottom(callback)
        """,
        "src/pkg/c.py": """
            import threading

            LC = threading.Lock()


            def bottom(callback):
                with LC:
                    callback()
        """,
    }

    def _run(self, tmp_path):
        with LockSanitizer(root=str(tmp_path)) as witness:
            a, b, c = (_load(tmp_path, rel, source)
                       for rel, source in self.FILES.items())
            errors = _in_thread(
                lambda: a.start(lambda: b.mid(c.bottom, a.finish)))
        return witness, errors

    def test_cycle_through_callback_crosses_modules(self, tmp_path):
        witness, _errors = self._run(tmp_path)
        (cycle,) = witness.inversions(under="src/")
        assert {"src/pkg/a.py:3", "src/pkg/b.py:3"} <= set(cycle)
        edges = {(edge["held"], edge["acquired"]): edge["site"]
                 for edge in witness.report()["edges"]}
        # the callback hop through pkg.c is part of the graph
        assert edges[("src/pkg/b.py:3", "src/pkg/c.py:3")] == "src/pkg/c.py:7"
        assert edges[("src/pkg/c.py:3", "src/pkg/a.py:3")] == "src/pkg/a.py:12"

    def test_transitive_self_reacquire_also_reported(self, tmp_path):
        witness, errors = self._run(tmp_path)
        (error,) = errors
        assert isinstance(error, SelfDeadlock)
        assert "src/pkg/a.py:3" in str(error)
        assert witness.self_deadlocks(under="src/") == [
            ("src/pkg/a.py:3", "src/pkg/a.py:12")]


class TestReentrantNonFinding:
    SOURCE = """
        import threading


        class Maintainer:
            def __init__(self):
                self._r = threading.RLock()

            def outer(self):
                with self._r:
                    self.inner()

            def inner(self):
                with self._r:
                    pass
    """

    def test_rlock_reentry_is_clean(self, tmp_path):
        with LockSanitizer(root=str(tmp_path)) as witness:
            module = _load(tmp_path, "src/pkg/reent.py", self.SOURCE)
            assert _in_thread(module.Maintainer().outer) == []
        assert witness.report()["edges"] == []
        witness.assert_clean(under="src/")

    def test_plain_lock_same_shape_fires(self, tmp_path):
        with LockSanitizer(root=str(tmp_path)) as witness:
            module = _load(tmp_path, "src/pkg/reent.py",
                           self.SOURCE.replace("RLock", "Lock"))
            (error,) = _in_thread(module.Maintainer().outer)
        assert isinstance(error, SelfDeadlock)
        assert "src/pkg/reent.py:6" in str(error)  # the creation site
        with pytest.raises(AssertionError, match="self-deadlock"):
            witness.assert_clean(under="src/")


class TestRepoLockGraph:
    """The session witness is armed before ``import repro`` and sees no
    inversion among ``src/`` locks while the lake runs concurrently."""

    def test_repo_graph_is_cycle_free(self, lockset_witness):
        from repro.core.lake import DataLake

        lake = DataLake(async_maintenance=True)
        for index in range(4):
            lake.ingest_table(f"t{index}", {
                "id": list(range(20)),
                "name": [f"n{(row + index) % 7}" for row in range(20)]})
        with lake.server(workers=2) as server:
            session = server.connect(server.register_tenant("acme"))
            session.ingest("mine", {"id": list(range(5))}).raise_for_status()

            def client():
                for _ in range(3):
                    session.discover(kind="related", table="mine")
                    session.sql("SELECT id FROM mine WHERE id < 3")

            threads = [threading.Thread(target=client) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        lake.close()
        assert not any(thread.is_alive() for thread in threads)
        lockset_witness.assert_clean(under="src/")
        sites = {record["site"] for record in lockset_witness.report()["locks"]}
        # import-time locks prove the witness was armed before repro loaded
        crash = (REPO_ROOT / "src/repro/faults/crash.py").read_text()
        line = crash.splitlines().index("_registry_lock = threading.Lock()")
        assert f"src/repro/faults/crash.py:{line + 1}" in sites
        assert sum(site.startswith("src/") for site in sites) >= 10
