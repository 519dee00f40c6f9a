"""repro.obs — tracing, metrics, and telemetry for the analysis pipeline.

Three pieces, one import surface:

* :mod:`repro.obs.trace` — hierarchical spans recorded through an ambient
  context variable; ``"trace": true`` on any protocol request returns the
  span tree in-band.
* :mod:`repro.obs.metrics` — a process-global registry of labelled
  counters/gauges/histograms with snapshot/delta semantics, exported by the
  server's ``metrics`` method.
* :mod:`repro.obs.export` — Prometheus text exposition, Chrome trace-event
  JSON, and rotated per-request trace files.

Plus the performance observatory built on top of them:

* :mod:`repro.obs.profile` — a sampling profiler attributing wall-time to
  span stacks, with collapsed-stack/flamegraph/Chrome-sample exports.
* :mod:`repro.obs.history` — the append-only benchmark ledger behind
  ``repro bench`` and its regression verdicts.
* :mod:`repro.obs.slowlog` — tail-sampled slow-request exemplars and the
  per-method health windows behind the server's ``slowlog``/``health``
  methods.
* :mod:`repro.obs.dashboard` — the ``repro top`` terminal dashboard frames
  built from a live server's metrics/health/slowlog responses.

``set_enabled(False)`` is the global kill switch; the disabled-path cost is
gated (≤5% on the fig2 workload) by ``benchmarks/test_obs_overhead.py``.
``docs/OBSERVABILITY.md`` catalogues every span and metric this package
records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.history import (
    BenchRecord,
    HistoryLedger,
    MetricPolicy,
    evaluate_metric,
)
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    parse_series,
    series_name,
    snapshot_delta,
)
from repro.obs.profile import (
    Profile,
    SamplingProfiler,
    flamegraph_html,
    flamegraph_svg,
)
from repro.obs.slowlog import HealthTracker, SlowLog
from repro.obs.state import is_enabled, set_enabled
from repro.obs.trace import (
    Span,
    Trace,
    active_span,
    filter_span_tree,
    new_trace_id,
    render_span_tree,
    span,
    start_trace,
)
from repro.obs.export import help_text, register_help

__all__ = [
    "BenchRecord",
    "HealthTracker",
    "HistoryLedger",
    "MetricPolicy",
    "MetricsRegistry",
    "Profile",
    "SamplingProfiler",
    "SlowLog",
    "Span",
    "Trace",
    "active_span",
    "evaluate_metric",
    "filter_span_tree",
    "flamegraph_html",
    "flamegraph_svg",
    "get_registry",
    "help_text",
    "is_enabled",
    "new_trace_id",
    "parse_series",
    "register_help",
    "render_span_tree",
    "series_name",
    "set_enabled",
    "snapshot_delta",
    "span",
    "stage",
    "start_trace",
]


@contextmanager
def stage(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Span + ``stage_seconds{stage=name}`` histogram in one context manager.

    The shared idiom for pipeline stages (parse, typecheck, mir_lower,
    fixpoint, borrowck, focus_table): the span records into the active trace
    (if any) and the wall time always lands in the stage histogram, so the
    per-stage latency breakdown exists even for untraced traffic.
    """
    started = time.perf_counter()
    with span(name, **attrs) as sp:
        try:
            yield sp
        finally:
            get_registry().histogram("stage_seconds", stage=name).observe(
                time.perf_counter() - started
            )
