"""Shared helpers for the benchmark/reproduction harness.

Kept out of ``conftest.py`` so benchmark modules can import them explicitly
(``from bench_utils import write_report``) without relying on the ambiguous
``import conftest`` resolution that broke test collection when both
``tests/`` and ``benchmarks/`` were on ``sys.path``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path


REPORT_DIR = Path(__file__).parent / "reports"
HISTORY_DIR = REPORT_DIR / "history"

# Module-load wall-clock origin: write_json_report stamps how long after
# import the report landed, a cheap monotonic "duration" that needs no
# cooperation from the benchmark code.
_IMPORTED_AT = time.perf_counter()


def bench_scale() -> float:
    """Corpus scale factor, adjustable via ``REPRO_BENCH_SCALE`` (default 0.35)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))


def latency_row(samples_seconds, fractions=(0.50, 0.95, 0.99)) -> dict:
    """Percentile row for a benchmark table; delegates to the one shared
    implementation in :func:`repro.eval.stats.latency_summary_ms`."""
    from repro.eval.stats import latency_summary_ms

    return latency_summary_ms(samples_seconds, fractions=fractions)


def write_report(report_dir: Path, name: str, text: str) -> Path:
    """Persist a rendered table/figure and echo it to stdout.

    Creates the report directory idempotently so callers can write without
    going through the ``report_dir`` fixture (CLI runs).
    """
    report_dir.mkdir(parents=True, exist_ok=True)
    path = report_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[report written to {path}]")
    return path


def write_json_report(report_dir: Path, name: str, data) -> Path:
    """Persist a machine-readable report next to its rendered twin.

    Dict payloads are stamped with a ``run_meta`` block (git sha, python
    version, hostname, monotonic duration since harness import) so every
    report carries the provenance the history ledger records.
    """
    import json

    from repro.obs.history import run_metadata

    if isinstance(data, dict) and "run_meta" not in data:
        data = dict(
            data,
            run_meta=run_metadata(
                duration_seconds=time.perf_counter() - _IMPORTED_AT
            ),
        )
    report_dir.mkdir(parents=True, exist_ok=True)
    path = report_dir / f"{name}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def record_history(metrics: dict, history_dir: Path = HISTORY_DIR) -> str:
    """Append one benchmark run's flat ``metric -> value`` dict to the ledger.

    The bridge between the pytest-driven benchmark files and the `repro
    bench` history: each benchmark calls this once with its headline
    numbers, so CI runs and local runs accumulate in the same trajectory.
    Returns the run id.
    """
    from repro.eval.bench import record_run
    from repro.obs.history import HistoryLedger

    run_id, _count = record_run(
        HistoryLedger(history_dir),
        {name: float(value) for name, value in metrics.items()},
        timestamp=time.time(),
        config={"source": "benchmarks", "scale": bench_scale()},
    )
    return run_id
