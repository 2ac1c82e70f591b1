"""Shared fixtures, and the lockset witness armed for every test session.

Before anything imports ``repro``, this module arms the runtime lock
witness (:mod:`repro.analysis.sanitizer`): every ``threading.Lock`` /
``RLock`` created afterwards, the import-time locks of ``repro`` itself
included, is traced by creation site, and each held→acquired pair
becomes a lock-order edge.  The witness is loaded by path because
``import repro.analysis.sanitizer`` would run ``repro/__init__`` — and
create the process-wide recorder, registry and event-log locks —
before it is armed.

At session end the run fails if the observed graph has an order
inversion (a cycle: two paths taking the same locks in opposite
orders) that involves a lock created under ``src/``, or if a thread
re-acquired a held plain ``Lock`` created there.  Locks created by
tests themselves do not count.  The terminal summary prints the
witness's counts.  See ``docs/TESTING.md``.
"""

import importlib.util
import pathlib
import random

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_WITNESS_SCOPE = "src/"


def _arm_witness():
    path = _REPO_ROOT / "src" / "repro" / "analysis" / "sanitizer.py"
    spec = importlib.util.spec_from_file_location("_session_lockset_witness",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LockSanitizer(root=str(_REPO_ROOT)).install()


WITNESS = _arm_witness()
_WITNESS_FAILURES = []

from repro.core.dataset import Table  # noqa: E402
from repro.datagen import LakeGenerator  # noqa: E402


def pytest_sessionfinish(session, exitstatus):
    WITNESS.uninstall()
    try:
        WITNESS.assert_clean(under=_WITNESS_SCOPE)
    except AssertionError as exc:
        _WITNESS_FAILURES.append(str(exc))
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_line(WITNESS.summary(under=_WITNESS_SCOPE))
    for failure in _WITNESS_FAILURES:
        terminalreporter.write_line(failure, red=True)


@pytest.fixture(scope="session")
def lockset_witness():
    """The session's armed lockset witness."""
    return WITNESS


@pytest.fixture
def keep_every_span():
    """Install a recorder that records every request, for one test.

    The process recorder records one request in 64, so a test that reads
    the spans of plain lake calls opts in here.
    """
    from repro.obs import SpanRecorder, get_registry, set_recorder

    recorder = SpanRecorder(registry=get_registry())
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@pytest.fixture
def customers() -> Table:
    rng = random.Random(0)
    ids = [f"cust-{i:04d}" for i in range(150)]
    return Table.from_columns("customers", {
        "customer_id": ids,
        "name": [f"name {i}" for i in range(150)],
        "city": [rng.choice(["berlin", "paris", "london", "rome"]) for _ in range(150)],
        "age": [rng.randint(18, 90) for _ in range(150)],
    })


@pytest.fixture
def orders(customers) -> Table:
    rng = random.Random(1)
    ids = customers["customer_id"].values
    return Table.from_columns("orders", {
        "order_id": [f"ord-{i:04d}" for i in range(250)],
        "customer_id": [rng.choice(ids) for _ in range(250)],
        "amount": [round(rng.uniform(5, 500), 2) for _ in range(250)],
    })


@pytest.fixture
def products() -> Table:
    rng = random.Random(2)
    return Table.from_columns("products", {
        "sku": [f"sku-{i:04d}" for i in range(80)],
        "color": [rng.choice(["red", "blue", "green", "black"]) for _ in range(80)],
        "price": [round(rng.uniform(1, 99), 2) for _ in range(80)],
    })


@pytest.fixture
def small_lake(customers, orders, products):
    """Three related tables as a list."""
    return [customers, orders, products]


@pytest.fixture(scope="session")
def workload():
    """A generated lake workload with ground truth (session-cached)."""
    return LakeGenerator(seed=11).generate(
        num_pools=2, tables_per_pool=2, rows_per_table=80, pool_size=120,
    )
