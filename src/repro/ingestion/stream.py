"""Streaming ingestion (survey Sec. 3.2).

"A data lake often needs to ingest a large volume of data, possibly also at
a high velocity or even as continuous data streams, which cannot be stored
in full in the data lake."  DLN's setting (Sec. 6.2.4) is the same:
"Consider a data lake with stream data.  DLN discovers related columns in
the streams with respect to a given column."

:class:`StreamIngester` consumes an unbounded stream of records without
retaining them; per column it maintains exactly the metadata discovery
needs:

- an **incremental MinHash sketch** (identical to the batch signature, so
  stream columns are directly comparable with indexed lake columns);
- a **reservoir sample** (uniform, deterministic) standing in for the
  column's values in profile-hungry consumers;
- running **numeric statistics** (count, mean, min, max via Welford) and
  null counts.

``as_profile_source`` exposes the sketch + reservoir to the discovery
engines; ``joinable_against`` runs the stream column against a JOSIE/LSH
index without ever materializing the stream.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.types import as_float, is_null
from repro.ml.lsh import LSHIndex
from repro.ml.minhash import IncrementalMinHash, MinHasher, MinHashSignature


class ColumnStream:
    """Streaming metadata for one column."""

    def __init__(self, name: str, hasher: MinHasher, reservoir_size: int, seed: int):
        self.name = name
        self.sketch: IncrementalMinHash = hasher.incremental()
        self.reservoir_size = reservoir_size
        self.reservoir: List[Any] = []
        self._rng = random.Random(seed)
        self.count = 0
        self.null_count = 0
        # Welford running statistics for numeric values
        self.numeric_count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def consume(self, value: Any) -> None:
        self.count += 1
        if is_null(value):
            self.null_count += 1
            return
        self.sketch.update(str(value))
        # reservoir sampling (Algorithm R)
        if len(self.reservoir) < self.reservoir_size:
            self.reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir_size:
                self.reservoir[slot] = value
        number = as_float(value)
        if number is None or isinstance(value, bool):
            return
        self.numeric_count += 1
        delta = number - self._mean
        self._mean += delta / self.numeric_count
        self._m2 += delta * (number - self._mean)
        self.minimum = number if self.minimum is None else min(self.minimum, number)
        self.maximum = number if self.maximum is None else max(self.maximum, number)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        if self.numeric_count < 2:
            return 0.0
        return self._m2 / self.numeric_count

    def signature(self) -> MinHashSignature:
        return self.sketch.signature()


class StreamIngester:
    """Bounded-memory metadata extraction over an unbounded record stream."""

    def __init__(
        self,
        name: str,
        num_perm: int = 128,
        reservoir_size: int = 100,
        seed: int = 7,
    ):
        self.name = name
        self.hasher = MinHasher(num_perm=num_perm)
        self.reservoir_size = reservoir_size
        self.seed = seed
        self._columns: Dict[str, ColumnStream] = {}
        self.records_seen = 0

    def consume(self, record: Mapping[str, Any]) -> None:
        """Fold one record into the per-column streaming metadata."""
        self.records_seen += 1
        for column_name, value in record.items():
            stream = self._columns.get(column_name)
            if stream is None:
                stream = ColumnStream(
                    column_name, self.hasher, self.reservoir_size,
                    seed=self.seed + len(self._columns),
                )
                self._columns[column_name] = stream
            stream.consume(value)

    def consume_many(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self.consume(record)

    def columns(self) -> List[str]:
        return sorted(self._columns)

    def column(self, name: str) -> ColumnStream:
        return self._columns[name]

    # -- discovery without materialization ----------------------------------------

    def joinable_against(
        self,
        index: LSHIndex,
        column: str,
        min_similarity: float = 0.4,
    ) -> List[Tuple[Any, float]]:
        """Query a lake LSH index with the stream column's live sketch.

        Requires the index to share the hasher geometry (same ``num_perm``);
        the stream never needs to be stored for this to work.
        """
        signature = self._columns[column].signature()
        return index.query(signature, min_similarity=min_similarity)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-column streaming metadata snapshot."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.columns():
            stream = self._columns[name]
            entry: Dict[str, Any] = {
                "count": stream.count,
                "nulls": stream.null_count,
                "distinct_estimate": stream.sketch.distinct_count,
                "reservoir": list(stream.reservoir[:5]),
            }
            if stream.numeric_count:
                entry.update(mean=round(stream.mean, 4),
                             min=stream.minimum, max=stream.maximum)
            out[name] = entry
        return out
