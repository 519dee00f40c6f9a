"""Persistent benchmark history: an append-only JSONL ledger plus verdicts.

Every benchmark run appends :class:`BenchRecord` lines to a ledger file
(canonically ``benchmarks/reports/history/ledger.jsonl``).  A record is one
measured metric from one run: run id, wall-clock timestamp (passed in by
the runner — the ledger never reads the clock itself), git sha, metric
name, value, unit, and a fingerprint of the configuration that produced it,
so values measured under different configs are never compared.

Appends are line-atomic under a cooperative lock file, so concurrent
runners (two ``repro eval run`` invocations, or CI shards) interleave whole
records rather than corrupting each other; reads tolerate and count
corrupt lines rather than failing, because a ledger that survived a crash
is still mostly good data.

Regression detection is deliberately simple and explainable: the baseline
for a metric is the **median of the previous up-to-K values** under the
same config fingerprint, and the latest value is compared against it with
a per-metric tolerance and direction (:class:`MetricPolicy`).  Verdicts
are ``ok`` / ``regressed`` / ``improved`` / ``insufficient`` (fewer than
two points).  ``docs/BENCHMARKING.md`` documents the policy knobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

LEDGER_FILENAME = "ledger.jsonl"

# Lock files older than this are presumed abandoned by a dead process and
# broken; benchmark appends take milliseconds, so 30s is generous.
STALE_LOCK_SECONDS = 30.0


def git_sha(repo_root: Optional[Union[str, Path]] = None) -> str:
    """The current commit's short sha, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata(duration_seconds: Optional[float] = None) -> dict:
    """Provenance stamped into benchmark reports: sha, interpreter, host."""
    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "hostname": socket.gethostname(),
        "platform": sys.platform,
    }
    if duration_seconds is not None:
        meta["duration_seconds"] = round(duration_seconds, 6)
    return meta


def config_fingerprint(config: Optional[dict]) -> str:
    """A short stable digest of a config dict; ``"-"`` for no config."""
    if not config:
        return "-"
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


class BenchRecord:
    """One measured metric from one benchmark run — one ledger line."""

    __slots__ = ("run_id", "timestamp", "git_sha", "metric", "value", "unit", "config")

    def __init__(
        self,
        run_id: str,
        timestamp: float,
        git_sha: str,
        metric: str,
        value: float,
        unit: str = "",
        config: str = "-",
    ):
        self.run_id = run_id
        self.timestamp = float(timestamp)
        self.git_sha = git_sha
        self.metric = metric
        self.value = float(value)
        self.unit = unit
        self.config = config

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "git_sha": self.git_sha,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        return cls(
            run_id=str(data["run_id"]),
            timestamp=float(data["timestamp"]),
            git_sha=str(data.get("git_sha", "unknown")),
            metric=str(data["metric"]),
            value=float(data["value"]),
            unit=str(data.get("unit", "")),
            config=str(data.get("config", "-")),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BenchRecord({self.metric}={self.value}{self.unit} @ {self.run_id})"


class FileLock:
    """A portable cooperative lock: ``O_CREAT | O_EXCL`` on a lock file.

    Works on every platform and filesystem the repo targets (no ``fcntl``
    dependency), and self-heals: a lock file older than
    ``STALE_LOCK_SECONDS`` is treated as abandoned and broken.
    """

    def __init__(self, path: Union[str, Path], timeout: float = 10.0, poll: float = 0.02):
        self.path = Path(path)
        self.timeout = timeout
        self.poll = poll
        self._held = False

    def acquire(self) -> None:
        deadline = time.monotonic() + self.timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(str(self.path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._break_if_stale()
                if time.monotonic() >= deadline:
                    raise TimeoutError(f"could not acquire lock {self.path}")
                time.sleep(self.poll)
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{os.getpid()}\n")
            self._held = True
            return

    def _break_if_stale(self) -> None:
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return
        if age > STALE_LOCK_SECONDS:
            try:
                self.path.unlink()
            except OSError:
                pass

    def release(self) -> None:
        if self._held:
            self._held = False
            try:
                self.path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class HistoryLedger:
    """The append-only JSONL benchmark ledger under one directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.path = self.directory / LEDGER_FILENAME
        self.lock_path = self.directory / (LEDGER_FILENAME + ".lock")

    def append(self, records: Union[BenchRecord, Iterable[BenchRecord]]) -> int:
        """Append records as whole lines under the lock; returns the count."""
        if isinstance(records, BenchRecord):
            records = [records]
        lines = [
            json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))
            for record in records
        ]
        if not lines:
            return 0
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = "".join(line + "\n" for line in lines)
        with FileLock(self.lock_path):
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
        return len(lines)

    def read(self) -> List[BenchRecord]:
        """Every valid record, in file order; corrupt lines are skipped."""
        records, _ = self.read_with_errors()
        return records

    def read_with_errors(self) -> "tuple[List[BenchRecord], int]":
        records: List[BenchRecord] = []
        corrupt = 0
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return records, corrupt
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(BenchRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                corrupt += 1
        return records, corrupt

    def trajectories(self, config: Optional[str] = None) -> Dict[str, List[BenchRecord]]:
        """Per-metric record lists, timestamp-ordered, optionally one config."""
        by_metric: Dict[str, List[BenchRecord]] = {}
        for record in self.read():
            if config is not None and record.config != config:
                continue
            by_metric.setdefault(record.metric, []).append(record)
        for series in by_metric.values():
            series.sort(key=lambda r: (r.timestamp, r.run_id))
        return by_metric


# ---------------------------------------------------------------------------
# Regression policy and verdicts
# ---------------------------------------------------------------------------


class MetricPolicy:
    """How one tracked metric is judged.

    ``direction`` is ``"lower"`` (latencies — smaller is better) or
    ``"higher"`` (speedups/throughput).  ``tolerance`` is the allowed
    relative drift before a verdict flips; ``window`` is K, the number of
    *previous* values whose median forms the baseline.  ``gate=False``
    metrics still appear in reports but never fail the CI gate — absolute
    wall-time metrics vary across machines, ratio metrics do not.
    """

    __slots__ = ("metric", "direction", "tolerance", "window", "gate", "unit", "note")

    def __init__(
        self,
        metric: str,
        direction: str = "lower",
        tolerance: float = 0.10,
        window: int = 5,
        gate: bool = False,
        unit: str = "",
        note: str = "",
    ):
        if direction not in ("lower", "higher"):
            raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
        self.metric = metric
        self.direction = direction
        self.tolerance = tolerance
        self.window = max(1, window)
        self.gate = gate
        self.unit = unit
        self.note = note


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def evaluate_metric(records: List[BenchRecord], policy: MetricPolicy) -> dict:
    """The regression verdict for one metric's timestamp-ordered records.

    The latest value is compared against the median of the up-to-``window``
    values immediately before it.  With fewer than two points there is
    nothing to compare, so the verdict is ``insufficient`` (never a gate
    failure — a brand-new metric must not break CI).
    """
    values = [record.value for record in records]
    if len(values) < 2:
        return {
            "metric": policy.metric,
            "verdict": "insufficient",
            "n": len(values),
            "latest": values[-1] if values else None,
            "baseline": None,
            "ratio": None,
            "tolerance": policy.tolerance,
            "direction": policy.direction,
            "unit": policy.unit,
            "gate": policy.gate,
        }
    latest = values[-1]
    window = values[max(0, len(values) - 1 - policy.window) : -1]
    baseline = _median(window)
    ratio = latest / baseline if baseline else None
    if baseline:
        drift, tolerance = (latest - baseline) / baseline, policy.tolerance
    else:
        # A zero baseline has no relative drift: judge by the sign alone, so
        # an error count of 0, 0, 3 reads as regressed.
        drift, tolerance = latest, 0.0
    # Positive when the latest value lies on the policy's worse side.
    worse = drift if policy.direction == "lower" else -drift
    verdict = "ok"
    if worse > tolerance:
        verdict = "regressed"
    elif worse < -tolerance:
        verdict = "improved"
    return {
        "metric": policy.metric,
        "verdict": verdict,
        "n": len(values),
        "latest": latest,
        "baseline": baseline,
        "ratio": round(ratio, 6) if ratio is not None else None,
        "tolerance": policy.tolerance,
        "direction": policy.direction,
        "unit": policy.unit,
        "gate": policy.gate,
    }


SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 24) -> str:
    """A unicode trend strip for a value series (last ``width`` points)."""
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return SPARK_GLYPHS[3] * len(tail)
    span = hi - lo
    return "".join(
        SPARK_GLYPHS[min(len(SPARK_GLYPHS) - 1, int((v - lo) / span * len(SPARK_GLYPHS)))]
        for v in tail
    )
