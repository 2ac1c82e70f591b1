"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the observability layer (spans are
the structural half): counts of operations, sizes of things, and latency
distributions with p50/p95/p99 summaries.  Everything is thread-safe via
per-instrument locks; histogram quantiles are estimated by linear
interpolation inside fixed buckets, so their error is bounded by the
bucket width (asserted by the test suite).

Instruments may carry **labels** (``registry.counter("serving.requests",
tenant="acme")``): each distinct label set is its own child instrument
under one *family* name, rendered Prometheus-style as
``serving.requests{tenant="acme"}``.  A family's kind (counter / gauge /
histogram) is fixed by its first registration regardless of labels.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: one label set, normalized: sorted ``(key, str(value))`` pairs
LabelSet = Tuple[Tuple[str, str], ...]


def normalize_labels(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def render_name(name: str, labels: LabelSet = ()) -> str:
    """``family{k="v",...}`` — the registry's stable instrument key."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"

#: default bucket upper bounds, tuned for millisecond latencies (spans) but
#: wide enough for counts and sizes; +Inf overflow bucket is implicit
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0,
)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value}

    def reset(self) -> None:
        """Count from zero again (what :meth:`MetricsRegistry.reset` does)."""
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up and down (queue depth, dataset count, ...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value}


class Histogram:
    """Fixed-bucket histogram with interpolated p50/p95/p99 quantiles."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 labels: LabelSet = ()):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(sorted(set(float(b) for b in buckets)))
        self._counts = [0] * (len(self.bounds) + 1)  # +1 = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget every observation (what :meth:`MetricsRegistry.reset` does)."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = None
            self._max = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    # -- derived statistics ------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1), exact to bucket resolution.

        The target rank's bucket is found from cumulative counts; the value
        is linearly interpolated between the bucket's bounds (clamped to the
        observed min/max at the distribution's edges).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo_edge = self._min
            hi_edge = self._max
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0.0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else (lo_edge or 0.0)
                upper = self.bounds[index] if index < len(self.bounds) else (hi_edge or lower)
                lower = max(lower, lo_edge if lo_edge is not None else lower)
                upper = min(upper, hi_edge if hi_edge is not None else upper)
                if upper < lower:
                    upper = lower
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return hi_edge if hi_edge is not None else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self._count,
            "sum": round(self._sum, 6),
            "min": round(self._min, 6) if self._min is not None else 0.0,
            "max": round(self._max, 6) if self._max is not None else 0.0,
            "mean": round(self.mean, 6),
            "p50": round(self.quantile(0.50), 6),
            "p95": round(self.quantile(0.95), 6),
            "p99": round(self.quantile(0.99), 6),
        }

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs, Prometheus-style."""
        out: List[Tuple[float, int]] = []
        cumulative = 0
        with self._lock:
            counts = list(self._counts)
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + counts[-1]))
        return out

    def snapshot(self) -> Dict[str, float]:
        return self.summary()


class MetricsRegistry:
    """Get-or-create home for every named metric in the process.

    ``**labels`` on the accessors select a child instrument of the named
    family — same family name, per-label-set state.  The family's kind
    is fixed on first use; registering the same family under a different
    kind raises regardless of labels.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, labels: Dict[str, Any], factory, kind: str):
        label_set = normalize_labels(labels) if labels else ()
        key = (name, label_set)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                known = self._kinds.get(name)
                if known is not None and known != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {known}, not {kind}"
                    )
                metric = self._metrics[key] = factory(label_set)
                self._kinds[name] = kind
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, not {kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(
            name, labels, lambda ls: Counter(name, ls), "counter")

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(
            name, labels, lambda ls: Gauge(name, ls), "gauge")

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        return self._get_or_create(
            name, labels,
            lambda ls: Histogram(name, buckets or DEFAULT_BUCKETS, labels=ls),
            "histogram")

    def metrics(self) -> Dict[str, object]:
        """Snapshot of rendered name -> metric object, sorted by name.

        Labeled instruments render as ``family{k="v"}``; the dict is
        sorted so label sets of one family stay adjacent.
        """
        with self._lock:
            items = [(render_name(name, labels), metric)
                     for (name, labels), metric in self._metrics.items()]
        return dict(sorted(items))

    def families(self) -> Dict[str, List[object]]:
        """Family name -> its instruments (label sets in sorted order)."""
        out: Dict[str, List[object]] = {}
        with self._lock:
            entries = sorted(self._metrics.items())
        for (name, _), metric in entries:
            out.setdefault(name, []).append(metric)
        return out

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready ``{name: {"type": ..., **stats}}`` for every metric."""
        out: Dict[str, Dict[str, float]] = {}
        for name, metric in self.metrics().items():
            entry: Dict[str, Any] = {"type": metric.kind}
            if metric.labels:
                entry["labels"] = dict(metric.labels)
            entry.update(metric.snapshot())
            out[name] = entry
        return out

    def reset(self) -> None:
        """Start a fresh window: zero every counter and histogram in place.

        Registrations survive, so an instrument a component bound at
        construction keeps counting and exporting.  Gauges keep their
        values: they describe state, not a window.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if metric.kind != "gauge":
                metric.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._kinds:  # family name, any label set
                return True
            return any(render_name(family, labels) == name
                       for family, labels in self._metrics)
