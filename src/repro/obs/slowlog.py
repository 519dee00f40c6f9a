"""Slow-request log with tail-based trace exemplars, plus a health tracker.

Tracing every request is cheap; *keeping* every trace is not.  The
:class:`SlowLog` applies tail-based sampling: the server traces each
request, hands the finished span tree here, and the log retains the full
tree only for requests that were actually slow — above an explicit
latency threshold, or above the rolling p99 once enough samples exist
(``adaptive`` mode, the default).  Retained exemplars live in a bounded
ring buffer, newest first, so the memory cost is fixed no matter how long
the server runs.

:class:`HealthTracker` is the cheap always-on sibling: per-method rolling
latency windows (bounded deques), request/error totals, and uptime — the
payload behind the ``health`` protocol method and ``repro metrics
--health``.

Both are deliberately lock-light (one mutex each, O(1) observes) and
neither consults the global kill switch: they are request accounting, not
tracing, and the server depends on ``health`` answering even when spans
are disabled.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class SlowLogEntry:
    """One retained slow request: identity, timing, and its span tree."""

    __slots__ = (
        "trace_id", "method", "workspace", "status", "duration_ms",
        "threshold_ms", "trace", "trace_path",
    )

    def __init__(
        self,
        trace_id: str,
        method: Optional[str],
        workspace: str,
        status: str,
        duration_ms: float,
        threshold_ms: float,
        trace: Optional[dict],
        trace_path: Optional[str] = None,
    ):
        self.trace_id = trace_id
        self.method = method
        self.workspace = workspace
        self.status = status
        self.duration_ms = duration_ms
        self.threshold_ms = threshold_ms
        self.trace = trace
        # Where the trace-dir writer persisted the full trace, so a slow
        # entry joins against its on-disk trace file by trace_id.
        self.trace_path = trace_path

    def to_dict(self, include_trace: bool = True) -> dict:
        entry = {
            "trace_id": self.trace_id,
            "method": self.method,
            "workspace": self.workspace,
            "status": self.status,
            "duration_ms": round(self.duration_ms, 3),
            "threshold_ms": round(self.threshold_ms, 3),
        }
        if self.trace_path is not None:
            entry["trace_path"] = self.trace_path
        if include_trace and self.trace is not None:
            entry["trace"] = self.trace
        return entry


class SlowLog:
    """Bounded ring of slow-request exemplars with an adaptive threshold.

    ``threshold_ms`` fixes the slowness bar explicitly; without it the bar
    is the rolling p99 of the last ``window`` requests, active only once
    ``min_samples`` have been seen (before that nothing is "slow" — the
    first requests of a cold server are not anomalies, they are warmup).
    """

    def __init__(
        self,
        capacity: int = 32,
        threshold_ms: Optional[float] = None,
        window: int = 512,
        min_samples: int = 50,
        tail_fraction: float = 0.99,
    ):
        self.capacity = max(1, capacity)
        self.explicit_threshold_ms = threshold_ms
        self.window = max(min_samples, window)
        self.min_samples = max(1, min_samples)
        self.tail_fraction = tail_fraction
        self._durations: Deque[float] = deque(maxlen=self.window)
        self._entries: Deque[SlowLogEntry] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self.observed = 0
        self.kept = 0

    def current_threshold_ms(self) -> Optional[float]:
        """The active slowness bar, or ``None`` while still calibrating."""
        if self.explicit_threshold_ms is not None:
            return self.explicit_threshold_ms
        with self._lock:
            if len(self._durations) < self.min_samples:
                return None
            ordered = sorted(self._durations)
        return _percentile(ordered, self.tail_fraction)

    def observe(
        self,
        method: Optional[str],
        duration_ms: float,
        trace_id: str,
        status: str = "ok",
        workspace: str = "default",
        trace: Optional[dict] = None,
        trace_path: Optional[str] = None,
    ) -> bool:
        """Record one finished request; returns whether it was retained.

        The threshold is read *before* this request's duration joins the
        rolling window, so a single outlier cannot hide itself by dragging
        the p99 up as it arrives.
        """
        threshold = self.current_threshold_ms()
        with self._lock:
            self.observed += 1
            self._durations.append(duration_ms)
            if threshold is None or duration_ms < threshold:
                return False
            self.kept += 1
            self._entries.append(
                SlowLogEntry(
                    trace_id=trace_id,
                    method=method,
                    workspace=workspace,
                    status=status,
                    duration_ms=duration_ms,
                    threshold_ms=threshold,
                    trace=trace,
                    trace_path=trace_path,
                )
            )
            return True

    def entries(self, limit: Optional[int] = None, include_traces: bool = True) -> List[dict]:
        """Retained exemplars, newest first."""
        with self._lock:
            snapshot = list(self._entries)
        snapshot.reverse()
        if limit is not None:
            snapshot = snapshot[: max(0, limit)]
        return [entry.to_dict(include_trace=include_traces) for entry in snapshot]

    def snapshot(self, limit: Optional[int] = None, include_traces: bool = True) -> dict:
        threshold = self.current_threshold_ms()
        return {
            "threshold_ms": round(threshold, 3) if threshold is not None else None,
            "adaptive": self.explicit_threshold_ms is None,
            "observed": self.observed,
            "kept": self.kept,
            "capacity": self.capacity,
            "entries": self.entries(limit=limit, include_traces=include_traces),
        }


class _MethodWindow:
    __slots__ = ("durations", "count", "errors")

    def __init__(self, window: int):
        self.durations: Deque[float] = deque(maxlen=window)
        self.count = 0
        self.errors = 0


class HealthTracker:
    """Always-on request accounting behind the ``health`` method.

    Tracks totals plus a rolling latency window per method; the snapshot
    reports p50/p95/p99/max over each window, overall error rate, and
    uptime.  ``now`` is injectable for tests — production uses wall time.
    """

    def __init__(self, window: int = 256, started_at: Optional[float] = None):
        self.window = max(8, window)
        self.started_at = started_at if started_at is not None else time.time()
        self._methods: Dict[str, _MethodWindow] = {}
        self._lock = threading.Lock()
        self.requests_total = 0
        self.errors_total = 0

    def observe(self, method: Optional[str], duration_ms: float, ok: bool = True) -> None:
        name = method if isinstance(method, str) else "(invalid)"
        with self._lock:
            self.requests_total += 1
            if not ok:
                self.errors_total += 1
            window = self._methods.get(name)
            if window is None:
                window = self._methods[name] = _MethodWindow(self.window)
            window.count += 1
            if not ok:
                window.errors += 1
            window.durations.append(duration_ms)

    def snapshot(self, now: Optional[float] = None, extra: Optional[dict] = None) -> dict:
        clock = now if now is not None else time.time()
        with self._lock:
            methods = {}
            for name, window in sorted(self._methods.items()):
                ordered = sorted(window.durations)
                methods[name] = {
                    "count": window.count,
                    "errors": window.errors,
                    "window": len(ordered),
                    "p50_ms": round(_percentile(ordered, 0.50), 3),
                    "p95_ms": round(_percentile(ordered, 0.95), 3),
                    "p99_ms": round(_percentile(ordered, 0.99), 3),
                    "max_ms": round(ordered[-1], 3) if ordered else 0.0,
                }
            total = self.requests_total
            errors = self.errors_total
        health = {
            "status": "ok",
            "uptime_seconds": round(max(0.0, clock - self.started_at), 3),
            "requests_total": total,
            "errors_total": errors,
            "error_rate": round(errors / total, 6) if total else 0.0,
            "methods": methods,
        }
        if extra:
            health.update(extra)
        return health
