"""Export formats: Prometheus text exposition, Chrome trace files, trace dirs.

These are the boundary between the in-process recorders and everything that
reads them from outside — ``curl``-style scraping via ``repro metrics
--prometheus``, ``chrome://tracing`` / Perfetto via the Chrome trace-event
JSON, and ``repro serve --trace-dir`` which persists one rotated JSON file
per traced request.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.obs.metrics import escape_label_value, parse_series
from repro.obs.trace import Trace

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Metric names are repo-controlled, but sanitise defensively anyway."""
    return "repro_" + _NAME_OK.sub("_", name)


# ---------------------------------------------------------------------------
# Help-text registry (the `# HELP` lines of the exposition format)
# ---------------------------------------------------------------------------

#: Registered family help texts, keyed by the *registry* metric name (before
#: the ``repro_`` prefix).  Instrumented modules add theirs at import time
#: via :func:`register_help`; families without an entry fall back to a
#: generic line so every family still exposes exactly one ``# HELP``.
_HELP_TEXTS = {
    "requests_total": "Protocol requests handled, by method/status/protocol.",
    "request_seconds": "End-to-end request latency, by method.",
    "stage_seconds": "Pipeline stage wall time (parse, typecheck, fixpoint, ...).",
    "cache_get_total": "Summary-cache lookups, by kind and serving tier (miss = neither).",
    "cache_put_total": "Summary-cache writes, by kind.",
    "cache_corrupt_records_total": "Undecodable disk-cache records quarantined as *.corrupt.",
    "lock_wait_seconds": "Time spent waiting for a workspace lock, by mode.",
    "lock_hold_seconds": "Time a workspace lock was held, by mode.",
    "server_inflight": "Requests currently executing in the socket server.",
    "server_connections": "Open socket connections.",
    "scheduler_wave_size": "Functions per SCC wave scheduled by the batch scheduler.",
    "scheduler_batches_total": "Batches run by the batch scheduler.",
    "scheduler_fallbacks_total": "Process-pool fan-outs that fell back to serial on a pool failure.",
    "massrun_programs_total": "Mass-evaluation programs processed, by verdict.",
    "massrun_program_seconds": "Per-program wall time in mass evaluation.",
}


def register_help(name: str, text: str) -> None:
    """Register the ``# HELP`` text for a metric family (registry name)."""
    _HELP_TEXTS[name] = text


def help_text(name: str) -> Optional[str]:
    """The registered help text for a registry metric name, if any."""
    return _HELP_TEXTS.get(name)


def _escape_help(text: str) -> str:
    """HELP-line escaping: backslash and newline only (quotes stay)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def render_prometheus(snapshot: dict) -> str:
    """A registry snapshot in the Prometheus text exposition format.

    Counter and gauge series render verbatim; histograms expand into the
    conventional ``_bucket``/``_sum``/``_count`` triple with cumulative
    ``le`` buckets and the implicit ``+Inf``.

    Hardened per the exposition-format contract: label values are
    backslash-escaped (``\\``, ``"``, newline), and series are *grouped by
    family* — each family renders as one ``# HELP`` line (registered text
    via :func:`register_help`, escaped, generic fallback) and one ``# TYPE``
    line followed by every one of its series, even when the snapshot
    interleaves series of different families.  A family keeps the kind it was first seen with;
    a same-named series of a different kind is dropped rather than
    emitted under a contradictory ``# TYPE``.
    """
    # family name -> (kind, [series lines]); insertion-ordered, so output
    # order follows first appearance in the snapshot.
    families: "dict[str, tuple[str, List[str]]]" = {}
    raw_names: "dict[str, str]" = {}

    def family(name: str, kind: str, raw: str) -> Optional[List[str]]:
        known = families.get(name)
        if known is None:
            lines: List[str] = []
            families[name] = (kind, lines)
            raw_names[name] = raw
            return lines
        if known[0] != kind:
            return None
        return known[1]

    for series, value in snapshot.get("counters", {}).items():
        name, labels = parse_series(series)
        prom = _prom_name(name)
        lines = family(prom, "counter", name)
        if lines is not None:
            lines.append(f"{prom}{_prom_labels(labels)} {value:g}")
    for series, value in snapshot.get("gauges", {}).items():
        name, labels = parse_series(series)
        prom = _prom_name(name)
        lines = family(prom, "gauge", name)
        if lines is not None:
            lines.append(f"{prom}{_prom_labels(labels)} {value:g}")
    for series, hist in snapshot.get("histograms", {}).items():
        name, labels = parse_series(series)
        prom = _prom_name(name)
        lines = family(prom, "histogram", name)
        if lines is None:
            continue
        for bound, cumulative in hist.get("buckets", []):
            bucket_labels = dict(labels, le=f"{bound:g}")
            lines.append(f"{prom}_bucket{_prom_labels(bucket_labels)} {cumulative}")
        inf_labels = dict(labels, le="+Inf")
        lines.append(f"{prom}_bucket{_prom_labels(inf_labels)} {hist.get('count', 0)}")
        lines.append(f"{prom}_sum{_prom_labels(labels)} {hist.get('sum', 0.0):g}")
        lines.append(f"{prom}_count{_prom_labels(labels)} {hist.get('count', 0)}")

    out: List[str] = []
    for name, (kind, lines) in families.items():
        raw = raw_names.get(name, name)
        text = _HELP_TEXTS.get(raw) or f"repro metric {raw}."
        out.append(f"# HELP {name} {_escape_help(text)}")
        out.append(f"# TYPE {name} {kind}")
        out.extend(lines)
    return "\n".join(out) + "\n"


def chrome_trace_document(trace: Trace) -> dict:
    """The flamegraph-ready Chrome trace-event JSON document for one trace."""
    return {
        "traceEvents": trace.to_chrome_events(),
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace.trace_id},
    }


def write_chrome_trace(path: Union[str, Path], trace: Trace) -> Path:
    """Write one trace as a Chrome trace-event JSON file; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(chrome_trace_document(trace), sort_keys=True), encoding="utf-8"
    )
    return target


class TraceDirWriter:
    """Rotated per-request trace files for ``repro serve --trace-dir``.

    Each traced request becomes ``trace-<trace_id>.json`` (Chrome trace-event
    format plus the span tree, so one file serves both Perfetto and the CLI
    renderer).  Rotation keeps at most ``max_files`` on disk, dropping the
    oldest; writes are best-effort — a full disk must never fail a request.
    """

    def __init__(self, directory: Union[str, Path], max_files: int = 256):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_files = max(1, max_files)
        self._lock = threading.Lock()
        self.written = 0

    def write(self, trace: Optional[Trace]) -> Optional[Path]:
        if trace is None:
            return None
        document = chrome_trace_document(trace)
        document["spanTree"] = trace.to_dict()
        path = self.directory / f"trace-{trace.trace_id}.json"
        with self._lock:
            try:
                path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
            except OSError:
                return None
            self.written += 1
            self._rotate()
        return path

    def _rotate(self) -> None:
        try:
            files = sorted(
                self.directory.glob("trace-*.json"), key=lambda p: p.stat().st_mtime
            )
        except OSError:
            return
        for stale in files[: max(0, len(files) - self.max_files)]:
            try:
                stale.unlink()
            except OSError:
                pass
