"""The ``repro top`` terminal dashboard: a live fleet view of one server.

Each frame is built from the three telemetry endpoints a running ``repro
serve --port`` process already exposes — ``metrics`` (the registry
snapshot), ``health`` (uptime, error rate, per-method rolling latency), and
``slowlog`` (tail-sampled slow-request exemplars) — so the dashboard needs
no server-side changes and works against any server new enough to answer
those methods.

Frame construction is pure (:func:`build_frame` takes the three response
dicts plus per-method latency history and returns lines), so tests render
frames from canned responses without a socket.  :class:`TopState`
accumulates the short per-method p95 history between frames that feeds the
sparkline trend column (:func:`repro.obs.history.sparkline` glyphs).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.obs.history import sparkline
from repro.obs.metrics import parse_series

#: Points of per-method history kept for the trend sparkline.
HISTORY_POINTS = 32


class TopState:
    """Rolling per-method latency history across dashboard frames."""

    def __init__(self, points: int = HISTORY_POINTS):
        self.points = max(2, points)
        self._latency: Dict[str, Deque[float]] = {}

    def observe(self, method: str, p95_ms: float) -> None:
        window = self._latency.get(method)
        if window is None:
            window = self._latency[method] = deque(maxlen=self.points)
        window.append(p95_ms)

    def trend(self, method: str) -> str:
        return sparkline(list(self._latency.get(method, ())), width=self.points)


def _fmt_uptime(seconds: float) -> str:
    seconds = max(0, int(seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{secs}s"


def _cache_rates(counters: Dict[str, float]) -> List[str]:
    """Per-kind cache hit rates from ``cache_get_total{kind,tier}`` series."""
    by_kind: Dict[str, Dict[str, float]] = {}
    for series, value in counters.items():
        name, labels = parse_series(series)
        if name != "cache_get_total":
            continue
        kind = labels.get("kind", "?")
        tier = labels.get("tier", "?")
        tiers = by_kind.setdefault(kind, {})
        tiers[tier] = tiers.get(tier, 0.0) + value
    lines = []
    for kind in sorted(by_kind):
        tiers = by_kind[kind]
        total = sum(tiers.values())
        if total <= 0:
            continue
        hits = tiers.get("memory", 0.0) + tiers.get("disk", 0.0)
        lines.append(
            "  {:<10} {:>6.1f}% hit  ({:.0f} memory / {:.0f} disk / {:.0f} miss)".format(
                kind,
                100.0 * hits / total,
                tiers.get("memory", 0.0),
                tiers.get("disk", 0.0),
                tiers.get("miss", 0.0),
            )
        )
    return lines


def build_frame(
    metrics: dict,
    health: Optional[dict],
    slowlog: Optional[dict],
    state: Optional[TopState] = None,
    width: int = 78,
) -> List[str]:
    """Render one dashboard frame (a list of lines) from endpoint responses.

    ``metrics`` is a registry snapshot (``metrics`` method result);
    ``health``/``slowlog`` are their method results or ``None`` when the
    server has them disabled.  ``state``, when given, is fed this frame's
    per-method p95 and renders the trend sparkline column.
    """
    lines: List[str] = []
    counters = metrics.get("counters", {}) if metrics else {}
    gauges = metrics.get("gauges", {}) if metrics else {}

    header = "repro top"
    if health:
        header += "  up {}  {} req  {:.2f}% err".format(
            _fmt_uptime(health.get("uptime_seconds", 0.0)),
            health.get("requests_total", 0),
            100.0 * health.get("error_rate", 0.0),
        )
        header += "  inflight {}  conns {}".format(
            health.get("inflight", 0), health.get("open_connections", 0)
        )
    else:
        inflight = gauges.get("server_inflight", 0)
        header += f"  inflight {inflight:g}"
    lines.append(header[:width])
    lines.append("-" * min(width, len(header) + 2))

    methods = (health or {}).get("methods", {})
    if methods:
        lines.append("  {:<10} {:>7} {:>6} {:>9} {:>9} {:>9}  trend".format(
            "method", "count", "err", "p50", "p95", "p99"
        ))
        for method in sorted(methods):
            entry = methods[method]
            p95 = entry.get("p95_ms", 0.0)
            if state is not None:
                state.observe(method, p95)
            lines.append(
                "  {:<10} {:>7} {:>6} {:>7.1f}ms {:>7.1f}ms {:>7.1f}ms  {}".format(
                    method[:10],
                    entry.get("count", 0),
                    entry.get("errors", 0),
                    entry.get("p50_ms", 0.0),
                    p95,
                    entry.get("p99_ms", 0.0),
                    state.trend(method) if state is not None else "",
                )
            )

    cache_lines = _cache_rates(counters)
    if cache_lines:
        lines.append("cache")
        lines.extend(cache_lines)

    entries = (slowlog or {}).get("entries", [])
    if entries:
        lines.append("slow requests (threshold {} ms)".format(
            (slowlog or {}).get("threshold_ms", "?")
        ))
        for entry in entries[:5]:
            lines.append(
                "  {:>9.1f}ms  {:<8} {:<8} trace {}".format(
                    entry.get("duration_ms", 0.0),
                    str(entry.get("method", "?"))[:8],
                    str(entry.get("status", "?"))[:8],
                    entry.get("trace_id", "?"),
                )
            )
    return lines


def run_top(
    host: str,
    port: int,
    interval: float,
    frames: Optional[int],
    out,
    clear: bool = True,
) -> int:
    """Poll a live server and render dashboard frames until interrupted.

    One connection serves all frames (the mux keeps it open); ``frames``
    bounds the loop for scripted runs, ``None`` means run until ^C.
    """
    import json
    import socket as socket_module

    try:
        conn = socket_module.create_connection((host, port), timeout=10.0)
    except OSError as error:
        out.write(f"error: cannot connect to {host}:{port}: {error}\n")
        return 2
    state = TopState()
    rendered = 0
    try:
        with conn:
            rfile = conn.makefile("r", encoding="utf-8", newline="\n")
            wfile = conn.makefile("w", encoding="utf-8", newline="\n")
            hello = json.loads(rfile.readline())
            if "hello" not in hello:
                out.write(f"error: unexpected greeting: {hello}\n")
                return 2

            def ask(request: dict) -> Optional[dict]:
                wfile.write(json.dumps(request) + "\n")
                wfile.flush()
                response = json.loads(rfile.readline())
                return response.get("result") if response.get("ok") else None

            while frames is None or rendered < frames:
                metrics = ask({"id": 1, "method": "metrics"}) or {}
                health = ask({"id": 2, "method": "health"})
                slowlog = ask(
                    {"id": 3, "method": "slowlog", "params": {"traces": False}}
                )
                frame = build_frame(metrics, health, slowlog, state=state)
                if clear:
                    out.write("\x1b[2J\x1b[H")
                out.write("\n".join(frame) + "\n")
                if hasattr(out, "flush"):
                    out.flush()
                rendered += 1
                if frames is not None and rendered >= frames:
                    break
                time.sleep(max(0.1, interval))
    except KeyboardInterrupt:
        pass
    except OSError as error:
        out.write(f"error: connection lost: {error}\n")
        return 2
    return 0
