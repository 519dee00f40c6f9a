"""The metrics registry: labelled counters, gauges, and histograms.

One process-global default registry (:func:`get_registry`) is the sink for
every instrumented layer — parse timings, fixpoint iteration counts, cache
hit/miss tallies, lock wait/hold times, per-method request latency — so the
server's ``metrics`` method, the CLI, and the load harness all read the same
numbers without threading a registry through every constructor.  Tests and
benchmarks that need isolation take a *snapshot* before the work under
observation and diff afterwards (:func:`snapshot_delta`): series are
monotone counters/histograms, so deltas compose even on a shared registry.

Series identity is ``name`` plus a sorted label set, rendered in the
Prometheus idiom (``cache_get_total{kind="record",tier="memory"}``).
Metric *objects* are interned per series and never dropped — instrumented
modules may cache handles — so :meth:`MetricsRegistry.reset` zeroes values
in place instead of discarding the objects.

Every mutating operation checks the global observability switch
(:mod:`repro.obs.state`) first and takes a per-metric lock, so the registry
is safe under the concurrent server's thread pool.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import state

# Latency-shaped default buckets (seconds): 100µs to 10s, roughly 2.5× steps.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Count-shaped buckets for iteration/size histograms.
COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)

_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value (the Prometheus text-format rules)."""
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n"}


def series_name(name: str, labels: Dict[str, str]) -> str:
    """The canonical ``name{k="v",...}`` rendering of one series.

    Label values are escaped (``\\``, ``"``, newline), so any string —
    including adversarial ones carrying quotes or commas — round-trips
    through :func:`parse_series`.
    """
    if not labels:
        return name
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{body}}}"


def parse_series(series: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_name`, quote- and escape-aware.

    Values produced by :func:`series_name` are quoted with backslash
    escapes; the scanner honours them, so commas, quotes, braces, and
    newlines inside values parse back exactly.  Legacy unquoted values
    (pre-escaping snapshots) still parse as a fallback.
    """
    if "{" not in series:
        return series, {}
    name, _, rest = series.partition("{")
    body = rest[:-1] if rest.endswith("}") else rest
    labels: Dict[str, str] = {}
    index, length = 0, len(body)
    while index < length:
        equals = body.find("=", index)
        if equals == -1:
            break
        key = body[index:equals]
        index = equals + 1
        if index < length and body[index] == '"':
            index += 1
            chars: List[str] = []
            while index < length:
                char = body[index]
                if char == "\\" and index + 1 < length:
                    escaped = body[index + 1]
                    chars.append(_UNESCAPE.get(escaped, "\\" + escaped))
                    index += 2
                    continue
                if char == '"':
                    index += 1
                    break
                chars.append(char)
                index += 1
            labels[key] = "".join(chars)
        else:
            comma = body.find(",", index)
            if comma == -1:
                comma = length
            labels[key] = body[index:comma].strip('"')
            index = comma
        if index < length and body[index] == ",":
            index += 1
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not state.ENABLED:
            return
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Gauge:
    """A value that goes up and down (queue depths, open connections)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        if not state.ENABLED:
            return
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not state.ENABLED:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Histogram:
    """A bucketed distribution with count/sum/min/max.

    Buckets hold *per-bucket* counts internally; snapshots render them
    cumulatively (Prometheus ``le`` semantics, with the implicit ``+Inf``).
    """

    __slots__ = ("_lock", "buckets", "_bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(buckets))
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        if not state.ENABLED:
            return
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._bucket_counts[bisect_left(self.buckets, value)] += 1

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self.buckets) + 1)
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None

    def snapshot_dict(self) -> dict:
        with self._lock:
            cumulative: List[List[object]] = []
            running = 0
            for bound, bucket_count in zip(self.buckets, self._bucket_counts):
                running += bucket_count
                cumulative.append([bound, running])
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "mean": (self.sum / self.count) if self.count else None,
                "buckets": cumulative,
            }


class MetricsRegistry:
    """Thread-safe interning registry of labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[_SeriesKey, Counter] = {}
        self._gauges: Dict[_SeriesKey, Gauge] = {}
        self._histograms: Dict[_SeriesKey, Histogram] = {}
        # (table, name, label items as the caller passed them) -> metric.
        self._handles: Dict[tuple, object] = {}

    def _metric(self, table: dict, name: str, labels: Dict[str, str], make: Callable):
        """The metric ``table`` holds for ``name`` and ``labels``, made by
        ``make`` when the series is new: one dict read keyed on the labels as
        passed, and the canonical series key (names sorted, values as
        strings) built only the first time those labels are seen.  Label
        values Python holds equal (``1`` and ``True``) share one handle."""
        alias = (id(table), name, *labels.items())
        found = self._handles.get(alias)
        if found is not None:
            return found
        with self._lock:
            key = name, tuple(sorted((k, str(v)) for k, v in labels.items()))
            found = table.get(key)
            if found is None:
                found = table[key] = make()
            self._handles[alias] = found
            return found

    def counter(self, name: str, **labels: str) -> Counter:
        return self._metric(self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._metric(self._gauges, name, labels, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None, **labels: str
    ) -> Histogram:
        return self._metric(
            self._histograms, name, labels,
            lambda: Histogram(buckets if buckets is not None else DEFAULT_BUCKETS),
        )

    def snapshot(self) -> dict:
        """A point-in-time copy: ``{"counters": {series: value}, ...}``."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                series_name(name, dict(labels)): counter.value
                for (name, labels), counter in sorted(counters.items())
            },
            "gauges": {
                series_name(name, dict(labels)): gauge.value
                for (name, labels), gauge in sorted(gauges.items())
            },
            "histograms": {
                series_name(name, dict(labels)): histogram.snapshot_dict()
                for (name, labels), histogram in sorted(histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every series in place (interned handles stay valid)."""
        with self._lock:
            metrics = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for metric in metrics:
            metric.reset()


def snapshot_delta(before: dict, after: dict) -> dict:
    """What happened between two snapshots of the *same* registry.

    Counters and histogram count/sum subtract; gauges take their ``after``
    value (they are levels, not flows).  Series absent from ``before`` are
    treated as zero; unchanged counter series are dropped from the result.
    """
    counters = {}
    for series, value in after.get("counters", {}).items():
        diff = value - before.get("counters", {}).get(series, 0.0)
        if diff:
            counters[series] = diff
    histograms = {}
    for series, hist in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(series, {})
        count = hist.get("count", 0) - prior.get("count", 0)
        total = hist.get("sum", 0.0) - prior.get("sum", 0.0)
        if count:
            histograms[series] = {
                "count": count,
                "sum": total,
                "mean": total / count,
            }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry every layer records into."""
    return _DEFAULT_REGISTRY
