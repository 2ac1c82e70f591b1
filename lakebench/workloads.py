"""Seeded inputs and closed-loop clients for the four lakebench workloads.

Every input is generated from ``repro.datagen`` with sub-seeds drawn from
one ``random.Random(seed)``, so the same seed gives the same corpus, the
same op schedule and the same oracles.  Nothing here reads a clock except
``time.perf_counter`` for latencies; :mod:`hostspeed` turns them into
host-speed-normalized times.

A workload has three parts:

- ``generate(seed, seconds, scale)`` builds its :class:`Inputs` (base
  corpus, op schedule with SQL/fetch oracles, sizes);
- ``setup(inputs, ingest_ms)`` builds a fresh ``DataLake()`` with its
  defaults, loads the base corpus and returns once the first query of
  every engine the workload uses has returned;
- ``measure(state, inputs, traced)`` runs the schedule as a closed loop
  (each client waits for every reply) and returns the op log.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import Dataset, Table
from repro.core.lake import DataLake
from repro.datagen import (EvolvingDocumentGenerator, LakeGenerator,
                           TextCorpusGenerator)
from repro.ml.text import tokenize
from repro.obs import get_recorder
from repro.serving.quotas import TenantQuota

from hostspeed import HostSpeed

#: op kinds reported as discovery latency
DISCOVER_KINDS = ("related", "joinable", "keyword", "union")

#: client threads may not outlive this many seconds (the run then fails)
JOIN_TIMEOUT_S = 150.0

#: sizes at scale 1.0; ``ops_per_s`` times ``--seconds`` gives the op count,
#: calibrated so that one measured phase takes about ``--seconds`` on a
#: 2-core x86 host; an untraced run sets up ``setups`` times (about 2 s of
#: set-up work) and reports the median
SIZES: Dict[str, Dict[str, float]] = {
    "read_mostly": {"pools": 20, "tables_per_pool": 4, "rows": 60, "noise": 4,
                    "json_collections": 4, "docs_per_epoch": 10,
                    "text_docs": 8, "ops_per_s": 9000, "setups": 3},
    "union_search": {"groups": 5, "tables_per_group": 3, "union_rows": 24,
                     "pools": 1, "tables_per_pool": 4, "rows": 30, "noise": 0,
                     "ops_per_s": 60, "setups": 15},
    "ingest_churn": {"pools": 8, "tables_per_pool": 5, "rows": 60, "noise": 2,
                     "json_docs_per_epoch": 6, "text_words": 80,
                     "hot_tables": 8, "ops_per_s": 50, "setups": 5},
    "served_mixed": {"pools": 7, "tables_per_pool": 5, "rows": 60, "noise": 2,
                     "write_rows": 20, "ops_per_s": 320, "setups": 3},
}


def setups(workload: str) -> int:
    """Set-ups per untraced run of *workload*; setup_s is their median."""
    return int(SIZES[workload]["setups"])


#: op-kind shares of read_mostly, in percent
READ_MOSTLY_MIX = (("discover", 60), ("sql", 25), ("fetch", 15))
TOP_K = (5, 10, 20)
SERVED_K = (5, 10)

#: each served client repeats this cycle: discover 45% (two thirds related,
#: one third joinable), sql 30%, fetch 15%, ingest 10%.  With ~125 writes
#: per client, drawing kinds at random would move the write count and its
#: timing against the other tenant with the seed, and the lock waits with it
SERVED_CYCLE = ("related", "sql", "fetch", "joinable", "related", "sql", "write",
                "related", "sql", "joinable", "related", "fetch", "sql", "related",
                "joinable", "sql", "write", "related", "sql", "fetch")

#: ingest_churn's write steps repeat this cycle (70% new tables, 20%
#: re-ingests, 10% documents, alternately JSON and text): the kinds sit at
#: the same positions for every seed, so the tail does not move with it
CHURN_CYCLE = ("new", "new", "reingest", "new", "new", "doc", "new",
               "reingest", "new", "new")


# -- inputs -----------------------------------------------------------------


@dataclass
class Op:
    """One scheduled operation; ``args`` are kind-specific."""

    kind: str
    args: Dict[str, Any]
    client: int = 0
    key: Optional[Tuple[Any, ...]] = None  # the query key, for repeat share


@dataclass
class Inputs:
    """A workload's generated inputs, identical for identical arguments."""

    workload: str
    seed: int
    base: List[Dataset]
    ops: List[Op]
    warmup: List[Op]  # the first query of each engine, run in set-up
    sizes: Dict[str, int]
    tenants: Dict[str, List[Dataset]] = field(default_factory=dict)

    def repeat_share(self) -> float:
        """Fraction of ops whose query key appeared earlier in the schedule."""
        seen = set()
        repeats = 0
        for op in self.ops:
            if op.key is None:
                continue
            key = (op.client, op.key)
            repeats += key in seen
            seen.add(key)
        return repeats / len(self.ops) if self.ops else 0.0

    def fingerprint(self) -> str:
        """sha256 over every generated payload and the whole schedule."""
        digest = hashlib.sha256()
        datasets = list(self.base)
        for name in sorted(self.tenants):
            datasets.extend(self.tenants[name])
        for dataset in datasets:
            digest.update(_dataset_bytes(dataset))
        for op in self.warmup + self.ops:
            args = {key: (_dataset_bytes(value).hex()
                          if isinstance(value, Dataset) else value)
                    for key, value in sorted(op.args.items())}
            digest.update(repr((op.kind, op.client, sorted(args.items()))).encode())
        return digest.hexdigest()


def _dataset_bytes(dataset: Dataset) -> bytes:
    payload = dataset.payload
    if isinstance(payload, Table):
        body = repr([(column.name, column.values) for column in payload.columns])
    elif isinstance(payload, list):
        body = json.dumps(payload, sort_keys=True)
    else:
        body = repr(payload)
    return f"{dataset.name}|{dataset.format}|{body}\n".encode("utf-8")


def _scaled(value: float, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(value * scale)))


def _lake_tables(seed: int, pools: int, tables_per_pool: int, rows: int,
                 noise: int, prefix: str = "") -> List[Table]:
    tables = LakeGenerator(seed).generate(
        num_pools=pools, tables_per_pool=tables_per_pool, rows_per_table=rows,
        pool_size=max(20, rows), noise_tables=noise).tables
    return [Table(prefix + table.name, table.columns) for table in tables]


def _json_collection(seed: int, name: str, docs_per_epoch: int) -> Dataset:
    generated = EvolvingDocumentGenerator(seed).generate(
        docs_per_epoch=docs_per_epoch)
    return Dataset(name, [document for _, document in generated.documents],
                   format="json")


def _text_docs(seed: int, count: int, words: int, prefix: str = "") -> List[Dataset]:
    corpus = TextCorpusGenerator(seed).generate(num_docs=count,
                                                words_per_doc=words)
    return [Dataset(prefix + name, corpus.documents[name], format="text")
            for name in sorted(corpus.documents)]


def _table_dataset(table: Table) -> Dataset:
    return Dataset(table.name, table, format="table")


def _is_numeric(column: Any) -> bool:
    return bool(column.values) and all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in column.values)


def _numeric_columns(table: Table) -> List[str]:
    return [column.name for column in table.columns if _is_numeric(column)]


def sql_op(rng: random.Random, table: Table) -> Dict[str, Any]:
    """A SQL query over *table* plus its row-count oracle from the payload."""
    numeric = _numeric_columns(table)
    if not numeric:
        return {"query": f"SELECT * FROM {table.name}", "oracle": len(table)}
    column = rng.choice(numeric)
    values = table[column].values
    # the SQL lexer reads plain decimals only: no exponent, no sign
    threshold = rng.choice([value for value in values
                            if value >= 0 and "e" not in repr(value)])
    oracle = sum(1 for value in values if value >= threshold)
    return {"query": f"SELECT * FROM {table.name} WHERE {column} >= {threshold!r}",
            "oracle": oracle}


def _zipf_draw(rng: random.Random, keys: Sequence[Any], count: int) -> List[Any]:
    """*count* draws over *keys* shuffled, weighting rank r by 1/(r+1)."""
    order = list(keys)
    rng.shuffle(order)
    cumulative = []
    total = 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1)
        cumulative.append(total)
    return rng.choices(order, cum_weights=cumulative, k=count)


def _mix(rng: random.Random, mix: Sequence[Tuple[str, int]], count: int) -> List[str]:
    kinds = [kind for kind, _ in mix]
    weights = [weight for _, weight in mix]
    return rng.choices(kinds, weights=weights, k=count)


def _discover_op(key: Tuple[Any, ...], client: int = 0) -> Op:
    kind = key[0]
    if kind == "joinable":
        return Op(kind, {"table": key[1], "column": key[2], "k": key[3]},
                  client, key)
    if kind == "keyword":
        return Op(kind, {"keywords": key[1], "k": key[2]}, client, key)
    return Op(kind, {"table": key[1], "k": key[2]}, client, key)


def _gen_read_mostly(seed: int, seconds: float, scale: float) -> Inputs:
    size = SIZES["read_mostly"]
    master = random.Random(seed)
    tables = _lake_tables(master.randrange(2**31), _scaled(size["pools"], scale),
                          int(size["tables_per_pool"]), int(size["rows"]),
                          _scaled(size["noise"], scale))
    collections = [_json_collection(master.randrange(2**31), f"jsoncol_{index:02d}",
                                    int(size["docs_per_epoch"]))
                   for index in range(_scaled(size["json_collections"], scale))]
    texts = _text_docs(master.randrange(2**31), _scaled(size["text_docs"], scale), 80)
    base = [_table_dataset(table) for table in tables] + collections + texts

    tabular = [(dataset.name, dataset.as_table()) for dataset in base
               if dataset.format in ("table", "json")]
    keys: List[Tuple[Any, ...]] = []
    terms = set()
    for name, table in tabular:
        keys.extend(("related", name, k) for k in TOP_K)
        for column in table.columns:
            keys.extend(("joinable", name, column.name, k) for k in TOP_K)
            terms.update(tokenize(column.name))
    for table in tables:
        for column in table.columns:
            if not _is_numeric(column):
                terms.update(token for value in sorted(column.distinct())[:3]
                             for token in tokenize(value))
    terms = sorted(terms)
    rng = random.Random(master.randrange(2**31))
    phrases = terms + [f"{left} {right}" for left, right in rng.sample(
        [(left, right) for left in terms for right in terms if left < right],
        min(len(terms) * 3, len(terms) * (len(terms) - 1) // 2))]
    keys.extend(("keyword", phrase, k) for phrase in phrases for k in TOP_K)

    count = _scaled(size["ops_per_s"] * seconds, scale, floor=20)
    kinds = _mix(rng, READ_MOSTLY_MIX, count)
    discover_keys = iter(_zipf_draw(rng, keys, kinds.count("discover")))
    by_name = {dataset.name: dataset for dataset in base}
    names = sorted(by_name)
    ops: List[Op] = []
    for kind in kinds:
        if kind == "discover":
            ops.append(_discover_op(next(discover_keys)))
        elif kind == "sql":
            ops.append(Op("sql", sql_op(rng, rng.choice(tables))))
        else:
            name = rng.choice(names)
            # a fetch returns rows, documents or characters
            ops.append(Op("fetch", {"name": name,
                                    "oracle": len(by_name[name].payload)}))
    first = tables[0]
    warmup = [_discover_op(("related", first.name, 5)),
              _discover_op(("joinable", first.name, first.columns[0].name, 5)),
              _discover_op(("keyword", terms[0], 5)),
              Op("sql", sql_op(rng, first)),
              Op("fetch", {"name": first.name, "oracle": len(first)})]
    sizes = {"tables": len(tables), "json_collections": len(collections),
             "text_docs": len(texts), "distinct_keys": len(keys), "ops": len(ops)}
    return Inputs("read_mostly", seed, base, ops, warmup, sizes)


def _gen_union_search(seed: int, seconds: float, scale: float) -> Inputs:
    size = SIZES["union_search"]
    master = random.Random(seed)
    unionable = LakeGenerator(master.randrange(2**31)).generate_unionable(
        num_groups=_scaled(size["groups"], scale),
        tables_per_group=int(size["tables_per_group"]),
        rows_per_table=int(size["union_rows"])).tables
    others = _lake_tables(master.randrange(2**31), _scaled(size["pools"], scale),
                          int(size["tables_per_pool"]), int(size["rows"]),
                          int(size["noise"]))
    tables = unionable + others
    base = [_table_dataset(table) for table in tables]
    # every table is the query table equally often, each time with a new k,
    # so the mix of query shapes is the same for every seed
    rounds = max(1, round(size["ops_per_s"] * seconds * scale / 3 / len(tables)))
    calls = rounds * len(tables)
    max_k = len(tables) + rounds
    rng = random.Random(master.randrange(2**31))
    pairs = [(table.name, k) for table in tables
             for k in rng.sample(range(1, max_k + 1), rounds)]
    rng.shuffle(pairs)
    by_name = {table.name: table for table in tables}
    ops: List[Op] = []
    for name, k in pairs:
        # the analyst searches, then inspects the table searched from
        ops.append(Op("union", {"table": name, "k": k}, 0, ("union", name, k)))
        ops.append(Op("sql", sql_op(rng, by_name[name])))
        ops.append(Op("fetch", {"name": name, "oracle": len(by_name[name])}))
    # k beyond every scheduled k: the warm-up answer is never a cache hit
    first = tables[0]
    warmup = [Op("union", {"table": first.name, "k": max_k + 1}),
              Op("sql", sql_op(rng, first)),
              Op("fetch", {"name": first.name, "oracle": len(first)})]
    sizes = {"tables": len(tables), "union_calls": calls, "ops": len(ops)}
    return Inputs("union_search", seed, base, ops, warmup, sizes)


def mutate(table: Table, rng: random.Random, share: float = 0.3) -> Table:
    """A new version of *table* with *share* of its rows' values changed."""
    rows = set(rng.sample(range(len(table)), max(1, round(share * len(table)))))
    columns = {}
    for column in table.columns:
        values = list(column.values)
        for row in rows:
            value = values[row]
            if isinstance(value, float):
                values[row] = round(value + rng.uniform(1.0, 9.0), 2)
            elif isinstance(value, int) and not isinstance(value, bool):
                values[row] = value + rng.randrange(1, 100)
            else:
                values[row] = f"{value}~{rng.randrange(10**6)}"
        columns[column.name] = values
    return Table.from_columns(table.name, columns)


def _gen_ingest_churn(seed: int, seconds: float, scale: float) -> Inputs:
    size = SIZES["ingest_churn"]
    master = random.Random(seed)
    tables = _lake_tables(master.randrange(2**31), _scaled(size["pools"], scale),
                          int(size["tables_per_pool"]), int(size["rows"]),
                          _scaled(size["noise"], scale))
    base = [_table_dataset(table) for table in tables]
    steps = _scaled(size["ops_per_s"] * seconds / 4, scale, floor=10)
    fresh_tables = iter(_lake_tables(master.randrange(2**31),
                                     max(2, math.ceil(steps / 4)), 3,
                                     int(size["rows"]), 0, prefix="new_"))
    doc_seed = master.randrange(2**31)
    rng = random.Random(master.randrange(2**31))
    hot = rng.sample([table.name for table in tables],
                     min(len(tables), int(size["hot_tables"])))
    current: Dict[str, Dataset] = {dataset.name: dataset for dataset in base}
    tabular = [table.name for table in tables]
    ops: List[Op] = []
    for step in range(steps):
        kind = CHURN_CYCLE[step % len(CHURN_CYCLE)]
        if kind == "new":
            dataset = _table_dataset(next(fresh_tables))
            tabular.append(dataset.name)
        elif kind == "reingest":
            old = current[rng.choice(tabular)]
            dataset = _table_dataset(mutate(old.payload, rng))
        elif step // len(CHURN_CYCLE) % 2 == 0:
            dataset = _json_collection(doc_seed + step, f"newcol_{step:04d}",
                                       int(size["json_docs_per_epoch"]))
        else:
            dataset = _text_docs(doc_seed + step, 1, int(size["text_words"]),
                                 prefix=f"s{step:04d}_")[0]
        current[dataset.name] = dataset
        ops.append(Op("write", {"dataset": dataset}))
        if dataset.format in ("table", "json"):
            ops.append(Op("related", {"table": dataset.name, "k": 5, "fresh": True},
                          0, ("related", dataset.name, 5)))
        hot_table = current[rng.choice(hot)].payload
        ops.append(Op("sql", sql_op(rng, hot_table)))
        name = rng.choice(hot)
        ops.append(Op("fetch", {"name": name, "oracle": len(current[name].payload)}))
    first = tables[0]
    warmup = [Op("related", {"table": first.name, "k": 5}),
              Op("sql", sql_op(rng, first)),
              Op("fetch", {"name": first.name, "oracle": len(first)})]
    sizes = {"base_tables": len(tables), "write_steps": steps,
             "hot_tables": len(hot), "ops": len(ops)}
    return Inputs("ingest_churn", seed, base, ops, warmup, sizes)


def _gen_served_mixed(seed: int, seconds: float, scale: float) -> Inputs:
    size = SIZES["served_mixed"]
    master = random.Random(seed)
    per_client = _scaled(size["ops_per_s"] * seconds / 2, scale, floor=10)
    tenants: Dict[str, List[Dataset]] = {}
    ops: List[Op] = []
    for client in range(2):
        tenant = f"tenant{client}"
        tables = _lake_tables(master.randrange(2**31), _scaled(size["pools"], scale),
                              int(size["tables_per_pool"]), int(size["rows"]),
                              int(size["noise"]))
        tenants[tenant] = [_table_dataset(table) for table in tables]
        fresh = iter(_lake_tables(master.randrange(2**31),
                                  max(2, math.ceil(per_client / 30)), 3,
                                  int(size["write_rows"]), 0, prefix="new_"))
        rng = random.Random(master.randrange(2**31))
        current = {table.name: table for table in tables}
        for step in range(per_client):
            kind = SERVED_CYCLE[step % len(SERVED_CYCLE)]
            if kind == "write":
                table = next(fresh)
                current[table.name] = table
                ops.append(Op("write", {"dataset": _table_dataset(table)}, client))
                continue
            name = rng.choice(sorted(current))
            table = current[name]
            if kind == "related":
                ops.append(_discover_op(("related", name, rng.choice(SERVED_K)), client))
            elif kind == "joinable":
                ops.append(_discover_op(("joinable", name, table.columns[0].name,
                                         rng.choice(SERVED_K)), client))
            elif kind == "sql":
                ops.append(Op("sql", sql_op(rng, table), client))
            else:
                ops.append(Op("fetch", {"name": name, "oracle": len(table)}, client))
    first = tenants["tenant0"][0].payload
    rng = random.Random(master.randrange(2**31))
    warmup = [_discover_op(("related", first.name, 5)),
              _discover_op(("joinable", first.name, first.columns[0].name, 5)),
              Op("sql", sql_op(rng, first)),
              Op("fetch", {"name": first.name, "oracle": len(first)})]
    sizes = {"tables_per_tenant": len(tenants["tenant0"]),
             "requests_per_client": per_client, "ops": len(ops)}
    return Inputs("served_mixed", seed, [], ops, warmup, sizes, tenants)


GENERATORS: Dict[str, Callable[[int, float, float], Inputs]] = {
    "read_mostly": _gen_read_mostly,
    "union_search": _gen_union_search,
    "ingest_churn": _gen_ingest_churn,
    "served_mixed": _gen_served_mixed,
}

WORKLOADS: Tuple[str, ...] = tuple(GENERATORS)


def generate(workload: str, seed: int, seconds: float, scale: float = 1.0) -> Inputs:
    return GENERATORS[workload](seed, seconds, scale)


# -- the op log --------------------------------------------------------------


class OpLog:
    """Latencies, answers and oracle results of one client's ops.

    Latencies and ``elapsed_s`` are host-speed-normalized
    (:mod:`hostspeed`); ``host_factors`` are each client's median factor.
    """

    def __init__(self) -> None:
        self.latency_ms: Dict[str, List[float]] = {}
        self.fresh_ms: List[float] = []
        self.answers = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.errors: List[str] = []
        self.elapsed_s = 0.0
        self.host_factors: List[float] = []

    def merge(self, other: "OpLog") -> None:
        """Fold in another client's log; the clients ran side by side."""
        for kind, values in other.latency_ms.items():
            self.latency_ms.setdefault(kind, []).extend(values)
        self.fresh_ms.extend(other.fresh_ms)
        self.answers.update(other.answers.hexdigest().encode())
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches.extend(other.mismatches)
        self.errors.extend(other.errors)
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)
        self.host_factors.extend(other.host_factors)

    def digest(self) -> str:
        return self.answers.hexdigest()


class Client:
    """Runs one client's ops in order, timing and checking each.

    Call :meth:`start` on the client's own thread just before its first
    op and :meth:`finish` after its last.  A traced client opens one
    ``op.<kind>`` span per op on the active ``repro.obs`` recorder,
    tagged with the op's schedule index.
    """

    def __init__(self, traced: bool = False) -> None:
        self.log = OpLog()
        self.traced = traced
        self.speed: Optional[HostSpeed] = None
        self._timed: List[Tuple[str, float, int]] = []  # kind, seconds, slice
        self._fresh: List[Tuple[int, int]] = []  # positions of (write, read back)
        self._last_write: Optional[int] = None

    def start(self) -> None:
        self.speed = HostSpeed()

    def run(self, index: int, op: Op, call: Callable[[], Any],
            check: Callable[[Any], Optional[str]]) -> None:
        log = self.log
        log.attempted += 1
        span = (get_recorder().span(f"op.{op.kind}", tier="bench", op=index)
                if self.traced else nullcontext())
        with span:
            started = time.perf_counter()
            try:
                answer = call()
            except Exception as exc:  # the op boundary: count it, keep the loop running
                log.failed += 1
                log.errors.append(f"{op.kind} {index}: {type(exc).__name__}: {exc}")
                self.speed.tick()
                return
            ended = time.perf_counter()
        position = len(self._timed)
        self._timed.append((op.kind, ended - started, self.speed.tick()))
        if op.kind == "write":
            self._last_write = position
        elif op.args.get("fresh") and self._last_write is not None:
            self._fresh.append((self._last_write, position))
            self._last_write = None
        problem = check(answer)
        if problem is not None:
            log.mismatches.append(f"{op.kind} {index}: {problem}")
        if op.kind in DISCOVER_KINDS:
            log.answers.update(repr(answer).encode("utf-8") + b"\n")

    def finish(self) -> OpLog:
        """Normalize the latencies by the host's speed; the finished log."""
        speed, log = self.speed, self.log
        speed.finish()
        normalized = [1000.0 * speed.normalized(seconds, slice_index)
                      for _, seconds, slice_index in self._timed]
        for (kind, _, _), value in zip(self._timed, normalized):
            log.latency_ms.setdefault(kind, []).append(value)
        # a table's freshness: its write, then the first read of it
        log.fresh_ms = [normalized[write] + normalized[read] for write, read in self._fresh]
        log.elapsed_s = speed.elapsed_s()
        log.host_factors.append(speed.median_factor())
        return log


def _expect(got: Any, want: Any, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got}, want {want}"


# -- direct-lake workloads ---------------------------------------------------


@dataclass
class LakeState:
    lake: DataLake

    def close(self) -> None:
        self.lake.close()


def setup_lake(inputs: Inputs, ingest_ms: List[float]) -> Tuple[LakeState, float]:
    """A loaded lake, and the normalized seconds it took to build."""
    speed = HostSpeed()
    lake = DataLake()
    ingests = []
    for dataset in inputs.base:
        started = time.perf_counter()
        lake.ingest(dataset)
        ingests.append((time.perf_counter() - started, speed.tick()))
    for op in inputs.warmup:
        _lake_call(lake, op)()
        speed.tick()
    speed.finish()
    ingest_ms.extend(1000.0 * speed.normalized(seconds, slice_index)
                     for seconds, slice_index in ingests)
    return LakeState(lake), speed.elapsed_s()


def _lake_call(lake: DataLake, op: Op) -> Callable[[], Any]:
    args = op.args
    if op.kind == "related":
        return lambda: lake.discover_related(args["table"], k=args["k"])
    if op.kind == "joinable":
        return lambda: lake.discover_joinable(args["table"], args["column"],
                                              k=args["k"])
    if op.kind == "keyword":
        return lambda: lake.keyword_search(args["keywords"], k=args["k"])
    if op.kind == "union":
        return lambda: lake.discover_union(args["table"], k=args["k"])
    if op.kind == "sql":
        return lambda: lake.sql(args["query"])
    if op.kind == "fetch":
        return lambda: lake.polystore.fetch(args["name"])
    return lambda: lake.ingest(args["dataset"])


def _lake_check(op: Op) -> Callable[[Any], Optional[str]]:
    if op.kind == "sql":
        return lambda table: _expect(len(table), op.args["oracle"], op.args["query"])
    if op.kind == "fetch":
        return lambda payload: _expect(len(payload), op.args["oracle"],
                                       f"fetch {op.args['name']}")
    return lambda answer: None


def measure_lake(state: LakeState, inputs: Inputs, traced: bool = False) -> OpLog:
    client = Client(traced)
    client.start()
    for index, op in enumerate(inputs.ops):
        client.run(index, op, _lake_call(state.lake, op), _lake_check(op))
    return client.finish()


# -- the served workload -----------------------------------------------------

#: quotas far above the offered load: nothing is ever shed
OPEN_QUOTA = TenantQuota(max_in_flight=64, requests_per_sec=1e9, burst=1e9)


@dataclass
class ServedState:
    lake: DataLake
    server: Any
    sessions: List[Any]

    def close(self) -> None:
        self.server.close()
        self.lake.close()


def _unwrap(response: Any) -> Any:
    response.raise_for_status()
    return response.value


def _session_call(session: Any, op: Op) -> Callable[[], Any]:
    args = op.args
    if op.kind == "related":
        return lambda: _unwrap(session.discover(kind="related", table=args["table"],
                                                k=args["k"]))
    if op.kind == "joinable":
        return lambda: _unwrap(session.discover(kind="joinable", table=args["table"],
                                                column=args["column"], k=args["k"]))
    if op.kind == "sql":
        return lambda: _unwrap(session.sql(args["query"]))
    if op.kind == "fetch":
        return lambda: _unwrap(session.fetch(args["name"]))
    dataset = args["dataset"]
    data = {column.name: column.values for column in dataset.payload.columns}
    return lambda: _unwrap(session.ingest(dataset.name, data))


def _session_check(op: Op) -> Callable[[Any], Optional[str]]:
    if op.kind == "sql":
        return lambda value: _expect(len(value["rows"]), op.args["oracle"],
                                     op.args["query"])
    if op.kind == "fetch":
        return lambda value: _expect(value["rows"], op.args["oracle"],
                                     f"fetch {op.args['name']}")
    return lambda value: None


def setup_served(inputs: Inputs, ingest_ms: List[float]) -> Tuple[ServedState, float]:
    """A served lake with every tenant's tables, and its normalized set-up time."""
    speed = HostSpeed()
    lake = DataLake()
    server = lake.server(workers=2)
    sessions = []
    for tenant in sorted(inputs.tenants):
        token = server.register_tenant(tenant, quota=OPEN_QUOTA)
        sessions.append(server.connect(token))
    ingests = []
    for session, tenant in zip(sessions, sorted(inputs.tenants)):
        for dataset in inputs.tenants[tenant]:
            write = Op("write", {"dataset": dataset})
            started = time.perf_counter()
            _session_call(session, write)()
            ingests.append((time.perf_counter() - started, speed.tick()))
    for op in inputs.warmup:
        _session_call(sessions[op.client], op)()
        speed.tick()
    speed.finish()
    ingest_ms.extend(1000.0 * speed.normalized(seconds, slice_index)
                     for seconds, slice_index in ingests)
    return ServedState(lake, server, sessions), speed.elapsed_s()


def measure_served(state: ServedState, inputs: Inputs, traced: bool = False) -> OpLog:
    clients = [Client(traced) for _ in state.sessions]
    barrier = threading.Barrier(len(clients))

    def drive(number: int) -> None:
        client = clients[number]
        session = state.sessions[number]
        barrier.wait()
        client.start()
        for index, op in enumerate(inputs.ops):
            if op.client == number:
                client.run(index, op, _session_call(session, op), _session_check(op))
        client.finish()

    threads = [threading.Thread(target=drive, args=(number,), daemon=True,
                                name=f"lakebench-client-{number}")
               for number in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
    log = OpLog()
    if any(thread.is_alive() for thread in threads):
        log.errors.append(f"a client thread ran past {JOIN_TIMEOUT_S:.0f}s")
        log.failed += 1
        return log
    for client in clients:
        log.merge(client.log)
    return log


def setup(inputs: Inputs, ingest_ms: List[float]) -> Tuple[Any, float]:
    """A loaded lake for *inputs*, and its normalized set-up seconds."""
    if inputs.workload == "served_mixed":
        return setup_served(inputs, ingest_ms)
    return setup_lake(inputs, ingest_ms)


def measure(state: Any, inputs: Inputs, traced: bool = False) -> OpLog:
    if inputs.workload == "served_mixed":
        return measure_served(state, inputs, traced)
    return measure_lake(state, inputs, traced)

