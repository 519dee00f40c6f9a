"""Tests for the observability subsystem: tracing, metrics, request-scoped
telemetry, exports, the trace noise filter, HELP lines, and the serve
access log."""

from __future__ import annotations

import gc
import json
import logging
import time

import pytest

from helpers import GET_COUNT_SOURCE

from repro.obs import (
    MetricsRegistry,
    Trace,
    active_span,
    filter_span_tree,
    get_registry,
    is_enabled,
    new_trace_id,
    parse_series,
    render_span_tree,
    series_name,
    set_enabled,
    snapshot_delta,
    span,
    stage,
    start_trace,
)
from repro.obs.export import (
    TraceDirWriter,
    chrome_trace_document,
    render_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import COUNT_BUCKETS
from repro.service.protocol import AnalysisService


def walk_tree(tree: dict):
    """Preorder walk over a ``Span.to_dict`` tree."""
    yield tree
    for child in tree.get("children", ()):
        yield from walk_tree(child)


@pytest.fixture(autouse=True)
def _obs_enabled():
    """Every test starts (and leaves) the switch in its default-on state."""
    set_enabled(True)
    yield
    set_enabled(True)


# ---------------------------------------------------------------------------
# Tracing core
# ---------------------------------------------------------------------------


class TestTraceCore:
    def test_span_outside_trace_is_inert(self):
        assert active_span() is None
        with span("orphan") as sp:
            assert sp is None
        assert active_span() is None

    def test_nesting_follows_dynamic_structure(self):
        with start_trace("request") as trace:
            with span("outer", layer=1):
                with span("inner", layer=2) as inner:
                    inner.set(extra=True)
            with span("sibling"):
                pass
        root = trace.to_dict()["root"]
        assert [c["name"] for c in root["children"]] == ["outer", "sibling"]
        inner = root["children"][0]["children"][0]
        assert inner["name"] == "inner"
        assert inner["attrs"] == {"layer": 2, "extra": True}

    def test_self_times_telescope_to_root_duration(self):
        with start_trace("request") as trace:
            with span("a"):
                with span("a1"):
                    time.sleep(0.002)
                time.sleep(0.002)
            with span("b"):
                time.sleep(0.002)
        spans = trace.spans()
        total_self = sum(sp.self_ms for sp in spans)
        assert total_self == pytest.approx(trace.root.duration_ms, abs=1e-6)
        # The serialised tree preserves the invariant (modulo rounding).
        tree = trace.to_dict()["root"]
        tree_self = sum(node["self_ms"] for node in walk_tree(tree))
        assert tree_self == pytest.approx(tree["duration_ms"], abs=1e-3)

    def test_disabled_switch_disables_tracing(self):
        set_enabled(False)
        assert not is_enabled()
        with start_trace("request") as trace:
            assert trace is None
            with span("child") as sp:
                assert sp is None

    def test_trace_id_is_honoured_and_generated(self):
        with start_trace("r", trace_id="deadbeef00000000") as trace:
            pass
        assert trace.trace_id == "deadbeef00000000"
        with start_trace("r") as fresh:
            pass
        assert len(fresh.trace_id) == 16
        assert new_trace_id() != new_trace_id()

    def test_chrome_events_shape(self):
        with start_trace("request") as trace:
            with span("work", fn="f"):
                time.sleep(0.001)
        events = trace.to_chrome_events()
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        root, work = events
        assert root["ts"] == 0
        assert work["args"] == {"fn": "f"}
        # µs timestamps: the child starts within the root and fits inside it.
        assert 0 <= work["ts"] <= root["dur"]
        assert work["dur"] <= root["dur"]
        document = chrome_trace_document(trace)
        assert document["otherData"]["trace_id"] == trace.trace_id
        assert document["traceEvents"] == events

    def test_chrome_events_stay_on_one_lane(self):
        with start_trace("analyze") as trace:
            with span("fixpoint"):
                pass
        events = trace.to_chrome_events()
        assert [e["ph"] for e in events] == ["X", "X"]
        assert all(e["tid"] == 1 for e in events)

    def test_render_span_tree(self):
        with start_trace("request") as trace:
            with span("child", fn="f"):
                pass
        text = render_span_tree(trace.to_dict()["root"])
        assert "request" in text and "child" in text and "fn=f" in text

    def test_stage_records_histogram_even_untraced(self):
        registry = get_registry()
        before = registry.histogram("stage_seconds", stage="test_stage").count
        with stage("test_stage") as sp:
            assert sp is None  # no active trace
        after = registry.histogram("stage_seconds", stage="test_stage").count
        assert after == before + 1


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_series_identity(self):
        registry = MetricsRegistry()
        registry.counter("hits", kind="a").inc()
        registry.counter("hits", kind="a").inc(2)
        registry.counter("hits", kind="b").inc()
        snap = registry.snapshot()
        assert snap["counters"] == {'hits{kind="a"}': 3.0, 'hits{kind="b"}': 1.0}

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert registry.snapshot()["gauges"] == {"depth": 3.0}

    def test_histogram_statistics_and_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            hist.observe(value)
        snap = hist.snapshot_dict()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(555.5)
        assert snap["min"] == 0.5 and snap["max"] == 500
        assert snap["mean"] == pytest.approx(555.5 / 4)
        # Cumulative le-buckets; the +Inf observation only shows in count.
        assert snap["buckets"] == [[1, 1], [10, 2], [100, 3]]

    def test_series_name_round_trip(self):
        series = series_name("cache_get_total", {"tier": "memory", "kind": "record"})
        assert series == 'cache_get_total{kind="record",tier="memory"}'
        assert parse_series(series) == (
            "cache_get_total",
            {"kind": "record", "tier": "memory"},
        )
        assert parse_series("plain") == ("plain", {})

    def test_snapshot_delta(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.histogram("h").observe(1.0)
        before = registry.snapshot()
        registry.counter("a").inc(2)
        registry.counter("b").inc()
        registry.gauge("g").set(7)
        registry.histogram("h").observe(3.0)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == {"a": 2.0, "b": 1.0}
        assert delta["gauges"] == {"g": 7.0}
        assert delta["histograms"]["h"] == {"count": 1, "sum": 3.0, "mean": 3.0}

    def test_reset_keeps_interned_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc(3)
        registry.reset()
        assert counter.value == 0.0
        counter.inc()
        # The registry still reads through the same object.
        assert registry.snapshot()["counters"] == {"a": 1.0}

    def test_kill_switch_stops_mutation(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        hist = registry.histogram("h")
        gauge = registry.gauge("g")
        set_enabled(False)
        counter.inc()
        hist.observe(1.0)
        gauge.set(3)
        assert counter.value == 0.0 and hist.count == 0 and gauge.value == 0.0
        set_enabled(True)
        counter.inc()
        assert counter.value == 1.0

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("cache_get_total", kind="record", tier="memory").inc(3)
        registry.gauge("server_inflight").set(2)
        registry.histogram("request_seconds", buckets=(0.1, 1.0), method="analyze").observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_cache_get_total counter" in text
        assert 'repro_cache_get_total{kind="record",tier="memory"} 3' in text
        assert "repro_server_inflight 2" in text
        assert 'repro_request_seconds_bucket{le="0.1",method="analyze"} 0' in text
        assert 'repro_request_seconds_bucket{le="1",method="analyze"} 1' in text
        assert 'repro_request_seconds_bucket{le="+Inf",method="analyze"} 1' in text
        assert 'repro_request_seconds_count{method="analyze"} 1' in text

    def test_count_buckets_cover_iteration_shapes(self):
        assert COUNT_BUCKETS[0] == 1 and COUNT_BUCKETS[-1] >= 100

    @pytest.mark.parametrize(
        "value",
        [
            'quo"ted',
            "back\\slash",
            "new\nline",
            'all="three",\\n\n',
            "{braces}",
            "trailing,comma,",
        ],
    )
    def test_adversarial_label_values_round_trip(self, value):
        series = series_name("m_total", {"key": value, "plain": "x"})
        name, labels = parse_series(series)
        assert name == "m_total"
        assert labels == {"key": value, "plain": "x"}

    def test_adversarial_labels_render_escaped_in_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("evil_total", path='a"b\\c\nd').inc()
        text = render_prometheus(registry.snapshot())
        # Exposition format: backslash, quote, and newline escaped; the
        # physical line must not be broken by the embedded newline.
        line = [l for l in text.splitlines() if l.startswith("repro_evil_total{")]
        assert line == ['repro_evil_total{path="a\\"b\\\\c\\nd"} 1']

    def test_type_line_once_per_family_even_interleaved(self):
        # Interleave two counter families in insertion order; each family
        # must render as exactly one # TYPE line followed by all its series.
        registry = MetricsRegistry()
        registry.counter("alpha_total", kind="a").inc()
        registry.counter("beta_total").inc()
        registry.counter("alpha_total", kind="b").inc()
        text = render_prometheus(registry.snapshot())
        lines = text.splitlines()
        assert lines.count("# TYPE repro_alpha_total counter") == 1
        assert lines.count("# TYPE repro_beta_total counter") == 1
        alpha_type = lines.index("# TYPE repro_alpha_total counter")
        assert lines[alpha_type + 1].startswith("repro_alpha_total{")
        assert lines[alpha_type + 2].startswith("repro_alpha_total{")

    def test_conflicting_family_kind_is_dropped_not_contradicted(self):
        snapshot = {
            "counters": {"dual": 1.0},
            "gauges": {"dual": 2.0},
            "histograms": {},
        }
        text = render_prometheus(snapshot)
        assert text.count("# TYPE repro_dual") == 1
        assert "# TYPE repro_dual counter" in text
        assert text.splitlines().count("repro_dual 2") == 0


# ---------------------------------------------------------------------------
# Request-scoped telemetry (the acceptance path)
# ---------------------------------------------------------------------------


class TestRequestTelemetry:
    def test_traced_analyze_covers_pipeline_and_telescopes(self):
        """One NDJSON ``analyze`` with an inline source and ``"trace": true``
        must return a span tree covering parse → fixpoint → cache whose
        self-times sum to the root duration, which in turn accounts for the
        measured request wall time, and whose named stages cover at least
        75% of it."""
        service = AnalysisService()
        # A collector pause inside the request would land in the root's
        # self time, so collect first and keep the collector off meanwhile.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            response = service.handle(
                {
                    "id": 1,
                    "method": "analyze",
                    "trace": True,
                    "params": {"source": GET_COUNT_SOURCE},
                }
            )
            wall_ms = (time.perf_counter() - started) * 1e3
        finally:
            gc.enable()
        assert response["ok"], response
        assert response["trace_id"]
        tree = response["trace"]["root"]
        names = {node["name"] for node in walk_tree(tree)}
        assert {"analyze", "parse", "typecheck", "mir_lower", "cache_get",
                "fixpoint", "cache_put"} <= names
        # Self-times telescope exactly to the root duration...
        total_self = sum(node["self_ms"] for node in walk_tree(tree))
        assert total_self == pytest.approx(tree["duration_ms"], abs=1e-3)
        # ...and the root accounts for the request wall time: it can only be
        # smaller (dispatch overhead outside the trace), not larger.
        assert 0 < tree["duration_ms"] <= wall_ms
        assert wall_ms - tree["duration_ms"] < max(5.0, 0.9 * wall_ms)
        # Span coverage: the root's own self time is at most a quarter of
        # its duration, so the named stages attribute the rest.
        assert tree["self_ms"] <= 0.25 * tree["duration_ms"], (
            f"root self {tree['self_ms']:.3f}ms of {tree['duration_ms']:.3f}ms"
        )

    def test_fixpoint_spans_carry_engine_and_density(self):
        service = AnalysisService()
        response = service.handle(
            {"id": 1, "method": "analyze", "trace": True,
             "params": {"source": GET_COUNT_SOURCE}}
        )
        fixpoints = [
            node for node in walk_tree(response["trace"]["root"])
            if node["name"] == "fixpoint"
        ]
        assert fixpoints
        for node in fixpoints:
            assert node["attrs"]["engine"]
            assert node["attrs"]["iterations"] >= 1
            assert 0.0 <= node["attrs"]["density"] <= 1.0

    def test_untraced_request_has_trace_id_but_no_tree(self):
        service = AnalysisService()
        service.handle({"id": 1, "method": "open",
                        "params": {"source": GET_COUNT_SOURCE}})
        response = service.handle({"id": 2, "method": "analyze", "params": {}})
        assert response["ok"]
        assert response["trace_id"]
        assert "trace" not in response
        # Unknown top-level keys are ignored: a request still asking for the
        # removed ``profile`` field is answered, without one.
        response = service.handle(
            {"id": 3, "method": "analyze", "profile": True, "params": {}}
        )
        assert response["ok"]
        assert "profile" not in response

    def test_client_supplied_trace_id_is_echoed(self):
        service = AnalysisService()
        response = service.handle(
            {"id": 1, "method": "ping", "trace_id": "cafe0000cafe0000"}
        )
        assert response["trace_id"] == "cafe0000cafe0000"

    def test_error_responses_carry_trace_ids_and_count_as_errors(self):
        service = AnalysisService()
        registry = get_registry()
        # An unknown method is counted under `invalid`, so a client cannot
        # add series to the process-wide registry by making names up.
        series = 'requests_total{method="invalid",protocol="ndjson",status="error"}'
        before = registry.snapshot()["counters"].get(series, 0)
        response = service.handle({"id": 1, "method": "nope"})
        assert not response["ok"]
        assert response["trace_id"]
        snapshot = registry.snapshot()
        assert snapshot["counters"][series] == before + 1
        named = [key for kind in ("counters", "histograms") for key in snapshot[kind]]
        assert not [key for key in named if 'method="nope"' in key]
        # A line that is not a JSON object is one failed request too.
        response = service.handle_line("[not, json")
        assert response["error_code"] == "parse_error"
        assert response["trace_id"]
        assert registry.snapshot()["counters"][series] == before + 2

    def test_metrics_method_returns_registry_and_session_views(self):
        service = AnalysisService()
        service.handle({"id": 1, "method": "open",
                        "params": {"source": GET_COUNT_SOURCE}})
        response = service.handle({"id": 2, "method": "metrics"})
        assert response["ok"]
        snapshot = response["result"]
        assert set(snapshot) == {"counters", "gauges", "histograms", "session"}
        assert any(s.startswith("stage_seconds") for s in snapshot["histograms"])
        assert any(s.startswith("request_seconds") for s in snapshot["histograms"])
        assert "counters" in snapshot["session"] and "store" in snapshot["session"]


# ---------------------------------------------------------------------------
# Load-harness consumption of server-side metrics
# ---------------------------------------------------------------------------


class _Crate:
    def __init__(self, name, source):
        self.name = name
        self.source = source


class TestLoadTelemetry:
    def test_swarm_reconciles_counts_and_breaks_down_stages(self):
        from repro.eval.load import build_query_plan, run_swarm, start_corpus_server

        server = start_corpus_server([_Crate("ws", GET_COUNT_SOURCE)], workers=4)
        try:
            plan = build_query_plan(server)
            result = run_swarm(server, plan, clients=2)
        finally:
            server.shutdown()
        assert result.errors == 0 and result.consistent
        # The server counted exactly the requests the clients sent.
        assert result.counts_agree, result.server
        assert result.server["requests_by_method"] == (
            result.server["client_requests_by_method"]
        )
        assert sum(result.server["requests_by_method"].values()) == (
            result.requests + 2  # plus one workspace switch per client
        )
        # Per-stage server-side latency: the cold analyses ran fixpoints.
        assert result.server["stage_ms"].get("fixpoint", {}).get("count", 0) > 0
        assert result.server["request_ms"]["analyze"]["count"] > 0
        assert result.to_json_dict()["server"]["counts_agree"] is True


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


class TestExports:
    def test_write_chrome_trace(self, tmp_path):
        with start_trace("request") as trace:
            with span("work"):
                pass
        path = write_chrome_trace(tmp_path / "out" / "trace.json", trace)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        assert [e["name"] for e in document["traceEvents"]] == ["request", "work"]

    def test_trace_dir_writer_rotates(self, tmp_path):
        writer = TraceDirWriter(tmp_path, max_files=3)
        assert writer.write(None) is None
        for index in range(5):
            trace = Trace("request", trace_id=f"{index:016x}")
            trace.finish()
            path = writer.write(trace)
            assert path is not None and path.exists()
        files = sorted(tmp_path.glob("trace-*.json"))
        assert len(files) == 3
        assert writer.written == 5
        document = json.loads(files[-1].read_text(encoding="utf-8"))
        assert "traceEvents" in document and "spanTree" in document


# ---------------------------------------------------------------------------
# Serve access log
# ---------------------------------------------------------------------------


class _ListHandler(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record.getMessage())


class TestAccessLog:
    @pytest.fixture()
    def capture(self):
        logger = logging.getLogger("repro.access")
        handler = _ListHandler()
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            yield handler
        finally:
            logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)

    def test_one_structured_line_per_request(self, capture):
        from repro.service.server import ConnectionHandler, WorkspaceRegistry

        handler = ConnectionHandler(WorkspaceRegistry(), log_level="info")
        handler.handle_line(json.dumps({"id": 1, "method": "ping"}))
        handler.handle_line(json.dumps({"id": 2, "method": "nope"}))
        assert len(capture.records) == 2
        ok_line, err_line = (json.loads(r) for r in capture.records)
        assert ok_line["method"] == "ping" and ok_line["status"] == "ok"
        assert ok_line["workspace"] == "default"
        assert ok_line["duration_ms"] >= 0
        assert len(ok_line["trace_id"]) == 16
        assert err_line["method"] == "nope" and err_line["status"] == "error"

    @pytest.mark.parametrize("client_id", ["", "abc"])
    def test_response_and_log_line_share_the_trace_id(self, capture, client_id):
        from repro.service.server import ConnectionHandler, WorkspaceRegistry

        handler = ConnectionHandler(WorkspaceRegistry(), log_level="info")
        response = handler.handle_line(
            json.dumps({"id": 1, "method": "ping", "trace_id": client_id})
        )
        (line,) = (json.loads(record) for record in capture.records)
        assert response["trace_id"] == line["trace_id"]
        assert response["trace_id"] == (client_id or response["trace_id"])
        assert response["trace_id"]

    def test_quiet_default_emits_nothing(self, capture):
        from repro.service.server import ConnectionHandler, WorkspaceRegistry

        handler = ConnectionHandler(WorkspaceRegistry())
        response = handler.handle_line(json.dumps({"id": 1, "method": "ping"}))
        assert response["ok"]
        assert capture.records == []

    def test_trace_dir_writes_one_file_per_request(self, tmp_path):
        from repro.service.server import ConnectionHandler, WorkspaceRegistry

        writer = TraceDirWriter(tmp_path)
        handler = ConnectionHandler(WorkspaceRegistry(), trace_writer=writer)
        response = handler.handle_line(json.dumps({"id": 1, "method": "ping"}))
        files = list(tmp_path.glob("trace-*.json"))
        assert len(files) == 1
        assert response["trace_id"] in files[0].name


# ---------------------------------------------------------------------------
# Trace noise filter
# ---------------------------------------------------------------------------


class TestFilterSpanTree:
    def _tree(self):
        with start_trace("root") as trace:
            from repro.obs import span

            with span("big"):
                with span("tiny"):
                    pass
            with span("small"):
                pass
        tree = trace.to_dict()["root"]
        # Stamp deterministic self times: structure is what matters here.
        tree["self_ms"] = 10.0
        big, small = tree["children"]
        big["self_ms"] = 5.0
        small["self_ms"] = 0.001
        big["children"][0]["self_ms"] = 0.002
        return tree

    def test_min_self_ms_drops_insignificant_leaves(self):
        tree = self._tree()
        pruned, hidden = filter_span_tree(tree, min_self_ms=1.0)
        assert hidden == 2
        assert [c["name"] for c in pruned["children"]] == ["big"]
        assert pruned["children"][0]["children"] == []

    def test_structure_survives_when_descendant_is_significant(self):
        tree = self._tree()
        tree["children"][0]["self_ms"] = 0.001  # "big" now insignificant...
        tree["children"][0]["children"][0]["self_ms"] = 3.0  # ...but "tiny" is not
        pruned, hidden = filter_span_tree(tree, min_self_ms=1.0)
        assert hidden == 1  # only "small" hidden
        assert [c["name"] for c in pruned["children"]] == ["big"]
        assert [c["name"] for c in pruned["children"][0]["children"]] == ["tiny"]

    def test_max_depth_counts_whole_dropped_subtrees(self):
        tree = self._tree()
        pruned, hidden = filter_span_tree(tree, max_depth=1)
        assert hidden == 1  # "tiny" below depth 1
        assert [c["name"] for c in pruned["children"]] == ["big", "small"]
        pruned0, hidden0 = filter_span_tree(tree, max_depth=0)
        assert pruned0["children"] == [] and hidden0 == 3

    def test_root_always_survives_and_original_untouched(self):
        tree = self._tree()
        pruned, _ = filter_span_tree(tree, min_self_ms=1e9)
        assert pruned["name"] == "root" and pruned["children"] == []
        assert len(tree["children"]) == 2  # input not mutated
        assert render_span_tree(pruned).startswith("root")


# ---------------------------------------------------------------------------
# Prometheus HELP lines
# ---------------------------------------------------------------------------


class TestPrometheusHelp:
    def test_every_family_gets_one_help_line_before_type(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", method="analyze").inc()
        registry.counter("made_up_total").inc()
        registry.histogram("request_seconds", method="analyze").observe(0.01)
        lines = render_prometheus(registry.snapshot()).splitlines()
        for family in ("repro_requests_total", "repro_made_up_total", "repro_request_seconds"):
            helps = [l for l in lines if l.startswith(f"# HELP {family} ")]
            assert len(helps) == 1, f"{family}: {helps}"
            assert lines[lines.index(helps[0]) + 1].startswith(f"# TYPE {family} ")
        # Registered text for known families, generic fallback otherwise.
        assert any(
            l.startswith("# HELP repro_requests_total Protocol requests")
            for l in lines
        )
        assert "# HELP repro_made_up_total repro metric made_up_total." in lines

    def test_help_text_is_escaped(self):
        from repro.obs.export import register_help

        registry = MetricsRegistry()
        registry.counter("weird_total").inc()
        register_help("weird_total", "line one\nline two \\ done")
        try:
            text = render_prometheus(registry.snapshot())
        finally:
            from repro.obs.export import _HELP_TEXTS

            _HELP_TEXTS.pop("weird_total", None)
        assert "# HELP repro_weird_total line one\\nline two \\\\ done\n" in text

    def test_exposition_still_parses_round_trip(self):
        """The quote-aware parser reads label values back despite HELP lines."""
        from repro.obs.metrics import parse_series

        registry = MetricsRegistry()
        registry.counter("cache_get_total", kind='tricky"name', tier="memory").inc(2)
        text = render_prometheus(registry.snapshot())
        series_lines = [
            l for l in text.splitlines() if l.startswith("repro_cache_get_total{")
        ]
        assert len(series_lines) == 1
        series = series_lines[0].rsplit(" ", 1)[0]
        name, labels = parse_series(series[len("repro_"):])
        assert name == "cache_get_total"
        assert labels == {"kind": 'tricky"name', "tier": "memory"}
