"""Server load harness: a synthetic client swarm over the corpus crates.

The ROADMAP's north star is a service that stays interactive under heavy
concurrent traffic.  This module measures that directly: it boots a real
:class:`~repro.service.server.ThreadedAnalysisServer` in-process, loads the
generated evaluation corpus into one workspace per crate, and fires a swarm
of socket clients at it — each client walking the same deterministic query
plan (``analyze`` / ``slice`` / ``focus`` over every crate's functions) so
that results are comparable across clients and across swarm sizes.

Reported per swarm size (1/4/16 clients by default):

* throughput (requests per second, wall clock over the whole swarm),
* per-request latency percentiles (p50/p95/p99),
* error count (any ``ok: false`` response),
* a **consistency digest**: the SHA-256 of every response's canonicalised
  result, per plan position.  Two runs agree iff every client of every swarm
  saw byte-identical semantic answers — the load benchmark's correctness
  assertion that concurrency never changes what a query returns.

Canonicalisation strips the fields that legitimately vary with cache state
and timing (``cache``, ``stats``, ``cache_hits``, ``trace_id``, ...), leaving
exactly the semantic payload (dependency sizes, slices, spans).

Each swarm is additionally bracketed by server-side metrics snapshots (the
``metrics`` protocol method), so the report breaks latency down by pipeline
stage as the *server* measured it and reconciles the server's per-method
request counters against what the clients sent — the two views must agree
exactly, request for request.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.stats import latency_summary_ms, percentile
from repro.obs import parse_series, snapshot_delta
from repro.service.server import ThreadedAnalysisServer

# Response fields that vary with cache temperature, timing, or server-side
# counters — everything else must be identical across clients and runs.
# ``trace_id`` is fresh per request and ``trace`` carries timings, so both
# are volatile by construction.
VOLATILE_KEYS = frozenset(
    {
        "cache",
        "stats",
        "cache_hits",
        "cache_misses",
        "seconds",
        "requests_handled",
        "trace",
        "trace_id",
    }
)


def canonicalize(value):
    """Strip volatile (cache/timing) fields from a response result, recursively."""
    if isinstance(value, dict):
        return {
            key: canonicalize(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [canonicalize(item) for item in value]
    return value


def result_digest(result: dict) -> str:
    """A short stable hash of a canonicalised result (the consistency unit)."""
    payload = json.dumps(canonicalize(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class PlannedQuery:
    """One step of the deterministic per-client query plan."""

    workspace: str
    method: str
    params: dict

    def label(self) -> str:
        target = self.params.get("function", "*")
        return f"{self.workspace}:{self.method}:{target}"


def build_query_plan(
    server: ThreadedAnalysisServer,
    max_functions_per_crate: int = 4,
    max_variables_per_function: int = 2,
) -> List[PlannedQuery]:
    """Derive the query mix from whatever workspaces the server holds.

    For each workspace (corpus crate): one workspace-wide ``analyze``, then
    per function an ``analyze``, a backward ``slice`` and a by-name ``focus``
    on its first variables — the interactive mix an IDE session produces.
    """
    plan: List[PlannedQuery] = []
    for name in server.registry.names():
        session = server.registry.handle(name).session
        plan.append(PlannedQuery(name, "analyze", {}))
        for fn_name in session.function_names()[:max_functions_per_crate]:
            plan.append(PlannedQuery(name, "analyze", {"function": fn_name}))
            for variable in session.variables_of(fn_name)[:max_variables_per_function]:
                plan.append(
                    PlannedQuery(
                        name,
                        "slice",
                        {"function": fn_name, "variable": variable,
                         "direction": "backward"},
                    )
                )
                plan.append(
                    PlannedQuery(
                        name,
                        "focus",
                        {"function": fn_name, "variable": variable,
                         "direction": "both"},
                    )
                )
    return plan


@dataclass
class ClientRun:
    """What one swarm client observed."""

    client_id: int
    latencies: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    errors: int = 0
    # Requests sent, by method (including mux-level ``workspace`` switches) —
    # reconciled against the server's own counters after the swarm.
    method_counts: Dict[str, int] = field(default_factory=dict)


class SwarmClient:
    """One synthetic client: a socket, the shared plan, a result log."""

    def __init__(self, address: Tuple[str, int], plan: Sequence[PlannedQuery], client_id: int):
        self.address = address
        self.plan = plan
        self.run = ClientRun(client_id=client_id)

    def __call__(self) -> ClientRun:
        sock = socket.create_connection(self.address)
        try:
            rfile = sock.makefile("r", encoding="utf-8", newline="\n")
            wfile = sock.makefile("w", encoding="utf-8", newline="\n")
            rfile.readline()  # the hello line

            def request(payload: dict) -> dict:
                method = str(payload.get("method"))
                counts = self.run.method_counts
                counts[method] = counts.get(method, 0) + 1
                wfile.write(json.dumps(payload, sort_keys=True) + "\n")
                wfile.flush()
                line = rfile.readline()
                return json.loads(line) if line else {"ok": False, "error": "eof"}

            current_workspace: Optional[str] = None
            for index, query in enumerate(self.plan):
                if query.workspace != current_workspace:
                    request({"id": f"ws-{index}", "method": "workspace",
                             "params": {"name": query.workspace}})
                    current_workspace = query.workspace
                start = time.perf_counter()
                response = request(
                    {"id": index, "method": query.method, "params": dict(query.params)}
                )
                self.run.latencies.append(time.perf_counter() - start)
                if response.get("ok"):
                    self.run.digests.append(result_digest(response["result"]))
                else:
                    self.run.errors += 1
                    self.run.digests.append("error")
        finally:
            try:
                sock.close()
            except OSError:
                pass
        return self.run


@dataclass
class LoadRunResult:
    """Aggregate measurements for one swarm size."""

    clients: int
    requests: int
    errors: int
    seconds: float
    latencies: List[float]
    digests: List[str]  # per plan position, after cross-client agreement
    consistent: bool  # every client produced the same digest sequence
    # Server-side telemetry for the swarm window (metrics-registry delta):
    # per-stage latency breakdown plus the request-count reconciliation.
    server: Optional[dict] = None

    @property
    def throughput_rps(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.requests / self.seconds

    def latency_ms(self, fraction: float) -> float:
        return percentile(self.latencies, fraction) * 1e3

    @property
    def counts_agree(self) -> bool:
        """Did the server count exactly the requests the clients sent?"""
        return bool(self.server and self.server.get("counts_agree"))

    def to_json_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "seconds": round(self.seconds, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "latency_ms": latency_summary_ms(self.latencies),
            "consistent": self.consistent,
            "plan_digest": hashlib.sha256(
                "".join(self.digests).encode("utf-8")
            ).hexdigest()[:16],
            "server": self.server,
        }


def fetch_server_metrics(address: Tuple[str, int]) -> dict:
    """One-shot ``metrics`` request against a live server; returns the result."""
    sock = socket.create_connection(address)
    try:
        rfile = sock.makefile("r", encoding="utf-8", newline="\n")
        wfile = sock.makefile("w", encoding="utf-8", newline="\n")
        rfile.readline()  # the hello line
        wfile.write(json.dumps({"id": "metrics", "method": "metrics"}) + "\n")
        wfile.flush()
        response = json.loads(rfile.readline())
    finally:
        try:
            sock.close()
        except OSError:
            pass
    if not response.get("ok"):
        raise RuntimeError(f"metrics request failed: {response.get('error')}")
    return response["result"]


def server_breakdown(delta: dict, client_counts: Dict[str, int]) -> dict:
    """Digest one swarm window's metrics delta into the load-report shape.

    ``requests_by_method`` merges the NDJSON dialect counters with the
    mux-level ``workspace`` counter so it is directly comparable to what the
    swarm clients sent.  The harness's own ``metrics`` probes are excluded:
    the *before* probe's counter increment lands after its snapshot is taken,
    so exactly one such request falls inside every window by construction.
    """
    requests_by_method: Dict[str, int] = {}
    server_errors = 0
    for series, value in delta.get("counters", {}).items():
        name, labels = parse_series(series)
        if name != "requests_total" or labels.get("protocol") not in ("ndjson", "mux"):
            continue
        method = labels.get("method", "?")
        if method == "metrics":
            continue
        requests_by_method[method] = requests_by_method.get(method, 0) + int(value)
        if labels.get("status") == "error":
            server_errors += int(value)

    stage_ms: Dict[str, dict] = {}
    request_ms: Dict[str, dict] = {}
    for series, hist in delta.get("histograms", {}).items():
        name, labels = parse_series(series)
        row = {
            "count": hist["count"],
            "total_ms": round(hist["sum"] * 1e3, 3),
            "mean_ms": round(hist["mean"] * 1e3, 4),
        }
        if name == "stage_seconds":
            stage_ms[labels.get("stage", "?")] = row
        elif name == "request_seconds" and labels.get("method") != "metrics":
            request_ms[labels.get("method", "?")] = row

    return {
        "requests_by_method": requests_by_method,
        "client_requests_by_method": dict(client_counts),
        "counts_agree": requests_by_method == client_counts,
        "errors": server_errors,
        "stage_ms": stage_ms,
        "request_ms": request_ms,
    }


def run_swarm(
    server: ThreadedAnalysisServer, plan: Sequence[PlannedQuery], clients: int
) -> LoadRunResult:
    """Run ``clients`` concurrent plan walkers against a live server.

    Brackets the swarm with server-side metrics snapshots so the result
    carries the per-stage latency breakdown for exactly this window, and the
    server's request counters can be reconciled against what the clients sent.
    """
    workers = [SwarmClient(server.address, plan, i) for i in range(clients)]
    threads = [
        threading.Thread(target=worker, name=f"swarm-{worker.run.client_id}")
        for worker in workers
    ]
    before = fetch_server_metrics(server.address)
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    after = fetch_server_metrics(server.address)

    runs = [worker.run for worker in workers]
    latencies = [lat for run in runs for lat in run.latencies]
    digests = runs[0].digests if runs else []
    consistent = all(run.digests == digests for run in runs)
    client_counts: Dict[str, int] = {}
    for run in runs:
        for method, count in run.method_counts.items():
            client_counts[method] = client_counts.get(method, 0) + count
    return LoadRunResult(
        clients=clients,
        requests=sum(len(run.latencies) for run in runs),
        errors=sum(run.errors for run in runs),
        seconds=seconds,
        latencies=latencies,
        digests=list(digests),
        consistent=consistent,
        server=server_breakdown(snapshot_delta(before, after), client_counts),
    )


@dataclass
class LoadReport:
    """The full load study: one result per swarm size plus cross-run checks."""

    plan_size: int
    workspaces: List[str]
    runs: List[LoadRunResult]
    cross_run_consistent: bool  # every swarm size agreed on every answer

    @property
    def telemetry_consistent(self) -> bool:
        """Server request counters matched client-side counts in every swarm."""
        return all(run.counts_agree for run in self.runs)

    def to_json_dict(self) -> dict:
        return {
            "plan_size": self.plan_size,
            "workspaces": self.workspaces,
            "runs": [run.to_json_dict() for run in self.runs],
            "cross_run_consistent": self.cross_run_consistent,
            "telemetry_consistent": self.telemetry_consistent,
        }


def start_corpus_server(
    corpus,
    workers: int = 16,
    persist_dir: Optional[str] = None,
    warm: bool = False,
) -> ThreadedAnalysisServer:
    """Boot a server pre-loaded with one workspace per corpus crate."""
    server = ThreadedAnalysisServer(
        port=0, workers=workers, persist_dir=persist_dir
    )
    for crate in corpus:
        handle = server.registry.handle(crate.name)
        with handle.lock.write_locked():
            handle.session.local_crate = crate.name
            handle.session.open_unit(crate.name, crate.source)
            if warm:
                handle.session.warm()
            server.registry.note_mutation(handle)
    return server.start()


def run_load_study(
    corpus=None,
    client_counts: Sequence[int] = (1, 4, 16),
    scale: float = 0.15,
    workers: int = 16,
    persist_dir: Optional[str] = None,
    max_functions_per_crate: int = 4,
    max_variables_per_function: int = 2,
) -> LoadReport:
    """The headline study: the same plan at every swarm size, one server.

    The single-client run doubles as the correctness baseline: every larger
    swarm must produce digest-identical answers at every plan position.
    """
    from repro.eval.corpus import generate_corpus

    if corpus is None:
        corpus = generate_corpus(scale=scale)
    server = start_corpus_server(corpus, workers=workers, persist_dir=persist_dir)
    try:
        plan = build_query_plan(
            server,
            max_functions_per_crate=max_functions_per_crate,
            max_variables_per_function=max_variables_per_function,
        )
        runs = [run_swarm(server, plan, clients) for clients in client_counts]
        baseline = runs[0].digests
        cross = all(run.digests == baseline for run in runs) and all(
            run.consistent for run in runs
        )
        return LoadReport(
            plan_size=len(plan),
            workspaces=server.registry.names(),
            runs=runs,
            cross_run_consistent=cross,
        )
    finally:
        server.shutdown()


def render_load_report(report: LoadReport) -> str:
    """Text rendering of the load study (the benchmark's report artifact)."""
    lines = [
        "Concurrent server load study "
        f"({report.plan_size} queries/client over {len(report.workspaces)} workspaces):",
        "",
        "  clients  requests  errors  throughput     p50 ms     p95 ms     p99 ms  consistent",
    ]
    for run in report.runs:
        row = run.to_json_dict()
        lat = row["latency_ms"]
        lines.append(
            f"  {run.clients:7d}  {run.requests:8d}  {run.errors:6d}  "
            f"{row['throughput_rps']:7.1f}/s  {lat['p50']:9.3f}  {lat['p95']:9.3f}  "
            f"{lat['p99']:9.3f}  {str(run.consistent).lower()}"
        )
    lines.append("")
    lines.append(
        "  cross-swarm results identical to single-client baseline: "
        + str(report.cross_run_consistent).lower()
    )
    lines.append(
        "  server request counters match client-side counts: "
        + str(report.telemetry_consistent).lower()
    )
    last = report.runs[-1] if report.runs else None
    if last is not None and last.server:
        lines.append("")
        lines.append(
            f"  server-side stage breakdown ({last.clients}-client swarm):"
        )
        lines.append("    stage           count   total ms    mean ms")
        for stage, row in sorted(last.server["stage_ms"].items()):
            lines.append(
                f"    {stage:<14} {row['count']:6d}  {row['total_ms']:9.1f}  "
                f"{row['mean_ms']:9.3f}"
            )
        counts = last.server["requests_by_method"]
        rendered = ", ".join(f"{m}={counts[m]}" for m in sorted(counts))
        lines.append(f"    requests (server-counted): {rendered}")
    return "\n".join(lines)
