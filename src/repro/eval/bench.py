"""The registered benchmark suite behind ``repro bench``.

This is the glue between the measurement functions that already exist in
:mod:`repro.eval.perf` / :mod:`repro.eval.load` and the persistent history
ledger in :mod:`repro.obs.history`.  It owns three things:

* **The suite registry** (:data:`BENCH_SUITE`): named benchmarks, each a
  function from a scale factor to a flat ``metric -> value`` dict.  Adding
  a benchmark means adding one entry here (plus its policies below) — the
  runner, ledger, report, and CI gate pick it up automatically.
* **The tracked-metric policies** (:data:`TRACKED`): direction, tolerance,
  baseline window, and whether the metric participates in the CI gate.
  Only *ratio* metrics (speedups) gate by default — they are
  machine-independent, so a laptop and a CI runner share one ledger
  without false alarms; absolute wall-time metrics are recorded and
  reported but never fail the build.  ``docs/BENCHMARKING.md`` is the
  policy's prose twin.
* **The report**: per-metric trajectories with a sparkline trend and a
  regression verdict from :func:`repro.obs.history.evaluate_metric`, plus
  the gate that turns ``regressed`` verdicts on gated metrics into a
  non-zero exit.
"""

from __future__ import annotations

import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.history import (
    BenchRecord,
    HistoryLedger,
    MetricPolicy,
    config_fingerprint,
    evaluate_metric,
    git_sha,
    sparkline,
)

# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------

BenchFn = Callable[[float], Dict[str, float]]


def _bench_theta_join(scale: float) -> Dict[str, float]:
    from repro.eval.perf import theta_join_microbenchmark

    joins = max(50, int(2000 * scale))
    bench = theta_join_microbenchmark(joins=joins)
    return {
        "theta_join.speedup": bench.speedup,
        "theta_join.object_us_per_join": bench.object_seconds / bench.joins * 1e6,
        "theta_join.bitset_us_per_join": bench.bitset_seconds / bench.joins * 1e6,
    }


def _bench_fig2(scale: float) -> Dict[str, float]:
    from repro.eval.perf import compare_engines

    cmp = compare_engines(scale=scale, rounds=2)
    return {
        "fig2.engine_speedup": cmp.speedup,
        "fig2.object_seconds": cmp.object_seconds,
        "fig2.bitset_seconds": cmp.bitset_seconds,
        "fig2.functions": float(cmp.functions),
    }


def _bench_focus(scale: float) -> Dict[str, float]:
    from repro.eval.perf import measure_focus_latency
    from repro.eval.stats import latency_summary_ms

    latency = measure_focus_latency(scale=scale)
    cold = latency_summary_ms(latency.cold_seconds, fractions=(0.50, 0.95))
    warm = latency_summary_ms(latency.warm_seconds, fractions=(0.50, 0.95))
    return {
        "focus.warm_speedup": latency.speedup,
        "focus.cold_p50_ms": cold["p50"],
        "focus.cold_p95_ms": cold["p95"],
        "focus.warm_p50_ms": warm["p50"],
        "focus.warm_p95_ms": warm["p95"],
        "focus.queries": float(latency.queries),
    }


def _bench_load(scale: float) -> Dict[str, float]:
    from repro.eval.load import run_load_study

    report = run_load_study(scale=scale, client_counts=(1, 4))
    top = report.runs[-1]
    return {
        "load.throughput_rps": top.throughput_rps,
        "load.p50_ms": top.latency_ms(0.50),
        "load.p99_ms": top.latency_ms(0.99),
        "load.errors": float(sum(run.errors for run in report.runs)),
        "load.consistent": 1.0 if report.cross_run_consistent else 0.0,
    }


BENCH_SUITE: Dict[str, BenchFn] = {
    "theta_join": _bench_theta_join,
    "fig2": _bench_fig2,
    "focus": _bench_focus,
    "load": _bench_load,
}


# ---------------------------------------------------------------------------
# Tracked-metric policies
# ---------------------------------------------------------------------------

def _ratio(metric: str, tolerance: float = 0.30) -> MetricPolicy:
    return MetricPolicy(
        metric, direction="higher", tolerance=tolerance, window=5, gate=True, unit="x"
    )


def _latency(metric: str, tolerance: float = 0.75) -> MetricPolicy:
    return MetricPolicy(
        metric, direction="lower", tolerance=tolerance, window=5, gate=False, unit="ms"
    )


TRACKED: Dict[str, MetricPolicy] = {
    policy.metric: policy
    for policy in (
        _ratio("theta_join.speedup"),
        _ratio("fig2.engine_speedup"),
        _ratio("focus.warm_speedup", tolerance=0.40),
        MetricPolicy(
            "load.throughput_rps", direction="higher", tolerance=0.75,
            window=5, gate=False, unit="req/s",
        ),
        MetricPolicy(
            "theta_join.object_us_per_join", direction="lower", tolerance=0.75, unit="us"
        ),
        MetricPolicy(
            "theta_join.bitset_us_per_join", direction="lower", tolerance=0.75, unit="us"
        ),
        MetricPolicy("fig2.object_seconds", direction="lower", tolerance=0.75, unit="s"),
        MetricPolicy("fig2.bitset_seconds", direction="lower", tolerance=0.75, unit="s"),
        _latency("focus.cold_p50_ms"),
        _latency("focus.warm_p50_ms"),
        _latency("load.p50_ms"),
        _latency("load.p99_ms"),
        # Mass-evaluation harness (`repro eval run`): the pass rate is a
        # machine-independent ratio, so it gates — any drop below the
        # baseline (normally 1.0) is a real oracle regression, not noise.
        # Throughput and latency are hardware-bound: report-only.
        MetricPolicy(
            "massrun.pass_rate", direction="higher", tolerance=0.001,
            window=5, gate=True, unit="",
        ),
        MetricPolicy(
            "massrun.programs_per_second", direction="higher", tolerance=0.75,
            window=5, gate=False, unit="prog/s",
        ),
        _latency("massrun.p50_ms"),
        _latency("massrun.p95_ms"),
    )
}

# Metrics outside TRACKED still get recorded and reported with this policy:
# visible trend, generous tolerance, never gated.
DEFAULT_POLICY = MetricPolicy("*", direction="lower", tolerance=1.0, window=5, gate=False)


def policy_for(metric: str) -> MetricPolicy:
    found = TRACKED.get(metric)
    if found is not None:
        return found
    return MetricPolicy(
        metric,
        direction=DEFAULT_POLICY.direction,
        tolerance=DEFAULT_POLICY.tolerance,
        window=DEFAULT_POLICY.window,
        gate=False,
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


def run_suite(
    scale: float = 0.15,
    only: Optional[List[str]] = None,
) -> Tuple[Dict[str, float], dict]:
    """Execute the (selected) suite; returns metrics plus the run config.

    Unknown ``--only`` names raise — a typo must not silently record an
    empty run into the ledger.
    """
    names = list(only) if only else sorted(BENCH_SUITE)
    unknown = [name for name in names if name not in BENCH_SUITE]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {unknown}; registered: {sorted(BENCH_SUITE)}"
        )
    metrics: Dict[str, float] = {}
    for name in names:
        metrics.update(BENCH_SUITE[name](scale))
    config = {"suite": sorted(names), "scale": scale}
    return metrics, config


def record_run(
    ledger: HistoryLedger,
    metrics: Dict[str, float],
    timestamp: float,
    run_id: Optional[str] = None,
    sha: Optional[str] = None,
    config: Optional[dict] = None,
) -> Tuple[str, int]:
    """Append one run's metrics to the ledger; returns (run_id, records)."""
    rid = run_id or new_run_id()
    sha = sha or git_sha()
    fingerprint = config_fingerprint(config)
    records = [
        BenchRecord(
            run_id=rid,
            timestamp=timestamp,
            git_sha=sha,
            metric=metric,
            value=value,
            unit=policy_for(metric).unit,
            config=fingerprint,
        )
        for metric, value in sorted(metrics.items())
    ]
    ledger.append(records)
    return rid, len(records)


# ---------------------------------------------------------------------------
# Report + gate
# ---------------------------------------------------------------------------

def bench_report(ledger: HistoryLedger) -> dict:
    """Trajectories, sparklines, and verdicts for every metric in a ledger.

    Each metric is judged only against records sharing the config
    fingerprint of its *latest* record — a smoke-scale CI run never gets
    compared against a full-scale local run.
    """
    trajectories = ledger.trajectories()
    rows = []
    for metric, records in sorted(trajectories.items()):
        latest_config = records[-1].config
        comparable = [record for record in records if record.config == latest_config]
        verdict = evaluate_metric(comparable, policy_for(metric))
        values = [record.value for record in comparable]
        rows.append(
            dict(
                verdict,
                trend=sparkline(values),
                values=[round(v, 6) for v in values[-10:]],
                config=latest_config,
                runs=len(comparable),
                tracked=metric in TRACKED,
            )
        )
    failures = [
        row["metric"]
        for row in rows
        if row["gate"] and row["verdict"] == "regressed"
    ]
    return {
        "metrics": rows,
        "gate": {"ok": not failures, "failures": failures},
    }


def render_bench_report(report: dict) -> str:
    """The human-readable ``repro bench report`` table."""
    lines = ["Benchmark history (ledger trajectories, baseline = median of last K):", ""]
    header = (
        f"  {'metric':34} {'runs':>4}  {'latest':>12}  {'baseline':>12}  "
        f"{'trend':24}  verdict"
    )
    lines.append(header)
    for row in report["metrics"]:
        latest = row["latest"]
        baseline = row["baseline"]
        unit = row.get("unit", "")
        gate_mark = "*" if row["gate"] else " "
        lines.append(
            "  {:34} {:>4}  {:>12}  {:>12}  {:24}  {}{}".format(
                row["metric"][:34],
                row["runs"],
                f"{latest:.4g}{unit}" if latest is not None else "-",
                f"{baseline:.4g}{unit}" if baseline is not None else "-",
                row["trend"][:24],
                row["verdict"],
                gate_mark,
            )
        )
    lines.append("")
    lines.append("  (* = gated metric: a 'regressed' verdict fails `repro bench report --gate`)")
    gate = report["gate"]
    if gate["ok"]:
        lines.append("  gate: ok")
    else:
        lines.append(f"  gate: FAILED — regressed: {', '.join(gate['failures'])}")
    return "\n".join(lines)
