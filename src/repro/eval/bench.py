"""The history-ledger policies and report behind ``repro bench report``.

Runs that feed the ledger (``repro eval run`` writes the ``massrun.*``
row; the server load study writes ``load.*``) append through
:func:`record_run`.  This module owns two things:

* **The tracked-metric policies** (:data:`TRACKED`): direction, tolerance,
  baseline window, and whether the metric participates in the CI gate.
  Only machine-independent metrics (the mass-evaluation pass rate) gate;
  absolute wall-time metrics are recorded and reported but never fail the
  build.  ``docs/BENCHMARKING.md`` is the policy's prose twin.
* **The report**: per-metric trajectories with a sparkline trend and a
  regression verdict from :func:`repro.obs.history.evaluate_metric`, plus
  the gate that turns ``regressed`` verdicts on gated metrics into a
  non-zero exit.
"""

from __future__ import annotations

import uuid
from typing import Dict, Optional, Tuple

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
# Tracked-metric policies
# ---------------------------------------------------------------------------

def _latency(metric: str, tolerance: float = 0.75) -> MetricPolicy:
    return MetricPolicy(
        metric, direction="lower", tolerance=tolerance, window=5, gate=False, unit="ms"
    )


TRACKED: Dict[str, MetricPolicy] = {
    policy.metric: policy
    for policy in (
        MetricPolicy(
            "load.throughput_rps", direction="higher", tolerance=0.75,
            window=5, gate=False, unit="req/s",
        ),
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
# Recording
# ---------------------------------------------------------------------------

def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


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
