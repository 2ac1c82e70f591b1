"""The lockset witness: inversion detection, re-entrancy, Condition
compatibility, hold-time accounting, and a clean bill of health for the
real runtime under concurrent load.  Lock-order checks on seeded
packages live in ``test_lock_order.py``."""

import threading
import time

import pytest

from repro.analysis.sanitizer import LockSanitizer


@pytest.fixture
def sanitizer():
    witness = LockSanitizer()
    witness.install()
    yield witness
    witness.uninstall()


def _in_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(5.0)
    assert not thread.is_alive()


class TestInversionDetection:
    def test_opposite_acquisition_orders_are_an_inversion(self, sanitizer):
        a = threading.Lock()
        b = threading.Lock()

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        _in_thread(forward)
        _in_thread(backward)
        report = sanitizer.report()
        assert not report["clean"]
        assert len(report["inversions"]) == 1
        with pytest.raises(AssertionError, match="inversion"):
            sanitizer.assert_clean()

    def test_consistent_order_is_clean(self, sanitizer):
        a = threading.Lock()
        b = threading.Lock()
        for _ in range(3):
            with a:
                with b:
                    pass
        report = sanitizer.report()
        assert report["clean"] and report["inversions"] == []
        assert len(report["edges"]) == 1
        assert report["edges"][0]["count"] == 3
        sanitizer.assert_clean()

    def test_rlock_reentry_records_one_acquisition_and_no_self_edge(
            self, sanitizer):
        r = threading.RLock()
        with r:
            with r:
                with r:
                    pass
        report = sanitizer.report()
        (record,) = [rec for rec in report["locks"] if rec["kind"] == "RLock"]
        assert record["acquisitions"] == 1
        assert report["edges"] == [] and report["clean"]


class TestConditionCompatibility:
    def test_wait_releases_the_lock_for_other_threads(self, sanitizer):
        cond = threading.Condition()
        ready = []

        def waiter():
            with cond:
                while not ready:
                    cond.wait(1.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        with cond:  # acquirable because wait() released it
            ready.append(True)
            cond.notify_all()
        thread.join(5.0)
        assert not thread.is_alive()
        assert sanitizer.report()["clean"]

    def test_event_built_on_condition_still_works(self, sanitizer):
        event = threading.Event()
        _in_thread(event.set)
        assert event.wait(1.0)


class TestReporting:
    def test_identity_is_the_creation_site(self, sanitizer):
        lock = threading.Lock()
        with lock:
            pass
        (record,) = sanitizer.report()["locks"]
        path, _, line = record["site"].rpartition(":")
        assert path.endswith("test_sanitizer.py")
        assert int(line) > 0
        assert record["kind"] == "Lock" and record["instances"] == 1

    def test_max_hold_time_is_recorded(self, sanitizer):
        lock = threading.Lock()
        with lock:
            time.sleep(0.02)
        (record,) = sanitizer.report()["locks"]
        assert record["max_hold_ms"] >= 10.0


class TestInstallation:
    def test_uninstall_restores_the_factories(self):
        original_lock, original_rlock = threading.Lock, threading.RLock
        witness = LockSanitizer()
        with witness:
            assert threading.Lock is not original_lock
            assert threading.RLock is not original_rlock
        assert threading.Lock is original_lock
        assert threading.RLock is original_rlock

    def test_install_is_idempotent(self):
        witness = LockSanitizer()
        witness.install()
        patched = threading.Lock
        witness.install()
        assert threading.Lock is patched
        witness.uninstall()
        witness.uninstall()


class TestRuntimeUnderWitness:
    """The real scheduler + incremental maintainer run inversion-free."""

    def test_scheduler_stress_is_clean(self, sanitizer):
        from repro.runtime.scheduler import JobScheduler

        with JobScheduler(workers=4, queue_size=64) as scheduler:
            for index in range(40):
                scheduler.submit(lambda i=index: i * i)
            scheduler.drain(timeout=10.0)
        report = sanitizer.report()
        assert report["clean"], report["inversions"]
        assert any(rec["acquisitions"] for rec in report["locks"])

    def test_incremental_maintainer_is_clean(self, sanitizer):
        import types

        from repro.runtime.incremental import DirtySet, ReadWriteLock

        rw = ReadWriteLock()
        dirty = DirtySet()

        def writer():
            for index in range(50):
                dirty.mark(types.SimpleNamespace(name=f"t{index}"))
                with rw.writing():
                    pass

        def reader():
            for _ in range(50):
                with rw.reading():
                    len(dirty)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        sanitizer.assert_clean()
