"""Tests for the NDJSON protocol and the `repro serve` / `repro query` CLI."""

from __future__ import annotations

import io
import json

import pytest

from helpers import GET_COUNT_SOURCE, HELPER_CALLER_SOURCE

from repro.cli import main
from repro.obs import get_registry
from repro.service.protocol import (
    BOOLEAN,
    CONDITION,
    INTEGER,
    PARAMS,
    STRING,
    STRINGS,
    AnalysisService,
    condition_from_params,
    serve,
)
from repro.service.server import ConnectionHandler, WorkspaceRegistry
from repro.service.session import AnalysisSession


def run_requests(requests, session=None):
    """Feed requests through the serve loop; returns parsed responses."""
    in_stream = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    out_stream = io.StringIO()
    code = serve(in_stream, out_stream, session)
    assert code == 0
    return [json.loads(line) for line in out_stream.getvalue().splitlines()]


class TestConditionParsing:
    def test_default_is_none(self):
        assert condition_from_params({}) is None

    def test_flags_round_trip(self):
        config = condition_from_params({"condition": {"whole_program": True}})
        assert config.whole_program and not config.mut_blind

    # (condition, the key its error must name): only the paper's three flags,
    # each a JSON boolean, are accepted.
    INVALID_CONDITIONS = [
        ({"bogus": True}, "bogus"),
        ({"whole_program": "no"}, "whole_program"),
        ({"mut_blind": None}, "mut_blind"),
        ({"ref_blind": 1}, "ref_blind"),
        ({"max_whole_program_depth": -1, "whole_program": True}, "max_whole_program_depth"),
        ({"max_whole_program_depth": "x", "whole_program": True}, "max_whole_program_depth"),
        ({"engine": "object"}, "engine"),
    ]

    def test_unknown_flag_rejected(self):
        service = AnalysisService()
        service.handle({"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}})
        assert service.handle({"id": 2, "method": "warm"})["ok"]
        engines = dict(service.session._engines)
        for condition, key in self.INVALID_CONDITIONS:
            for method in ("analyze", "warm"):
                line = json.dumps(
                    {"id": 9, "method": method, "params": {"condition": condition}}
                )
                response = service.handle_line(line)
                assert not response["ok"], (method, condition)
                assert response["error_code"] == "invalid_params", (method, condition)
                assert key in response["error"], (method, condition)
                # Refused before the session made an engine for the condition.
                assert service.session._engines == engines, (method, condition)


# `main` passes a field of its secret-typed argument to the sink `leak`.
IFC_LEAK_SOURCE = """
struct Secret { v: u32 }
extern fn leak(x: u32);
fn main(s: Secret) { leak(s.v); }
"""


class TestIfcParams:
    @staticmethod
    def ifc(params):
        service = AnalysisService()
        service.handle({"id": 1, "method": "open", "params": {"source": IFC_LEAK_SOURCE}})
        return service.handle_line(
            json.dumps({"id": 2, "method": "ifc", "params": params})
        )

    @pytest.mark.parametrize(
        "params",
        [
            {"secret_types": ["Secret"], "sinks": ["leak"]},
            {"secret_variables": ["main:s"], "sinks": ["leak"]},
        ],
    )
    def test_arrays_of_strings_find_the_leak(self, params):
        response = self.ifc(params)
        assert response["ok"] and response["result"]["count"] == 1

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"secret_types": "Secret", "sinks": "leak"}, "secret_types"),
            ({"secret_types": ["Secret"], "sinks": "leak"}, "sinks"),
            ({"secret_types": 5}, "secret_types"),
            ({"sinks": [1, 2]}, "sinks"),
            ({"secret_variables": "main:s", "sinks": ["leak"]}, "secret_variables"),
            ({"secret_types": None}, "secret_types"),
        ],
    )
    def test_list_params_must_be_arrays_of_strings(self, params, key):
        response = self.ifc(params)
        assert response["ok"] is False
        assert response["error_code"] == "invalid_params"
        assert f"`{key}`" in response["error"]


# A value of another JSON type for each param type (`direction`'s one-of
# types get an array).
WRONG_TYPE = {
    STRING: 7, INTEGER: True, BOOLEAN: "no", STRINGS: "x", CONDITION: {"engine": "object"},
}

# Requests a hand-written param reader once misread (as a default, a
# coercion, or a silently ignored typo), each with the param it must name.
MISREADS = [
    ("analyze", {"functon": "get_count"}, "functon"),
    ("warm", {"conditon": {"whole_program": True}}, "conditon"),
    ("open", {"unit": 7, "source": GET_COUNT_SOURCE}, "unit"),
    ("open", {"local_crate": 5, "source": GET_COUNT_SOURCE}, "local_crate"),
    ("focus", {"line": True, "col": True}, "line"),
    ("focus", {"direction": ["both"], "function": "get_count", "variable": "k"}, "direction"),
    ("close", {"unit": ["a"]}, "unit"),
    ("analyze", {"function": 5}, "function"),
    ("workspace", {"name": "typo", "create": "no"}, "create"),
    ("workspace", {"nmae": "x"}, "nmae"),
]


def schema_cases():
    """For every method an unknown param, and for every param a value of
    the wrong type and ``null``; then the misreads."""
    for method, schema in sorted(PARAMS.items()):
        yield method, {"no_such_param": 1}, "no_such_param"
        for name, (kind, _) in schema.items():
            yield method, {name: WRONG_TYPE.get(kind, ["both"])}, name
            yield method, {name: None}, name
    yield from MISREADS


class TestRequestSchema:
    def test_every_served_method_has_one_entry(self):
        handlers = {name[len("_method_"):] for name in dir(AnalysisService)
                    if name.startswith("_method_")}
        assert set(PARAMS) == handlers | {"workspace"}

    @pytest.mark.parametrize("method, params, named", list(schema_cases()))
    def test_bad_params_are_refused_before_anything_happens(self, method, params, named):
        registry = WorkspaceRegistry()
        handler = ConnectionHandler(registry)
        handler.handle_message({"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}})
        handler.handle_message({"id": 2, "method": "warm"})
        session = handler.handle_ref.session

        def state():
            return (
                registry.names(), handler.handle_ref.name, session.unit_names(),
                session.local_crate, session.generation, sorted(session._engines),
                dict(session.counters), len(session.store), handler.done,
            )

        before = state()
        response = handler.handle_line(
            json.dumps({"id": 3, "method": method, "params": params})
        )
        assert response["ok"] is False
        assert response["error_code"] == "invalid_params", response
        assert f"`{method}`" in response["error"] and f"`{named}`" in response["error"]
        assert state() == before

    @pytest.mark.parametrize("params", ["x", None, ["name"]])
    @pytest.mark.parametrize("method", ["workspace", "analyze"])
    def test_params_that_are_not_an_object_break_the_envelope(self, method, params):
        handler = ConnectionHandler(WorkspaceRegistry())
        response = handler.handle_line(json.dumps({"id": 1, "method": method, "params": params}))
        assert response["error_code"] == "protocol_error"
        assert handler.registry.names() == ["default"]


# Unit `a` holds lines 1-3 of the joined workspace, so unit `b` starts on
# line 4: a position in `b` names its own line, never the joined one.
UNIT_A_SOURCE = "fn f(x: u32) -> u32 {\n    x + 1\n}"
UNIT_B_SOURCE = "fn g(y: u32) -> u32 {\n    let w = y + 1;\n    w\n}"


class TestUnitPositions:
    @staticmethod
    def service_with_unit_a():
        service = AnalysisService()
        opened = service.handle(
            {"id": 1, "method": "open", "params": {"unit": "a", "source": UNIT_A_SOURCE}}
        )
        assert opened["ok"]
        return service

    @pytest.mark.parametrize(
        "source, error",
        [
            ("y @ 1", "error in unit 'b' at 1:3: unexpected character '@'"),
            (
                "fn g(y: u32) -> u32 {\n    y +\n}",
                "error in unit 'b' at 3:1: expected expression, found '}'",
            ),
            (
                "fn g(y: u32) -> u32 {\n    y + true\n}",
                "error in unit 'b' at 2:5: right operand of '+' must be u32, found bool",
            ),
        ],
        ids=["lex", "parse", "type"],
    )
    @pytest.mark.parametrize("method", ["open", "update"])
    def test_failed_rebuild_names_the_unit_and_its_own_position(self, source, error, method):
        service = self.service_with_unit_a()
        if method == "update":
            opened = service.handle(
                {"id": 2, "method": "open", "params": {"unit": "b", "source": UNIT_B_SOURCE}}
            )
            assert opened["ok"]
        response = service.handle(
            {"id": 3, "method": method, "params": {"unit": "b", "source": source}}
        )
        assert response["ok"] is False
        assert response["error_code"] == "repro_error"
        assert response["error"] == error

    def test_every_type_error_names_its_unit(self):
        service = self.service_with_unit_a()
        response = service.handle(
            {"id": 2, "method": "open", "params": {
                "unit": "b", "source": "fn g(y: u32) -> u32 {\n    zz\n}"}}
        )
        assert response["error"].splitlines() == [
            "error in unit 'b' at 2:5: unknown variable 'zz'",
            "error in unit 'b' at 1:1: function 'g' returns () but is declared to return u32",
        ]

    def test_slice_with_unit_answers_in_unit_lines(self):
        service = self.service_with_unit_a()
        service.handle(
            {"id": 2, "method": "open", "params": {"unit": "b", "source": UNIT_B_SOURCE}}
        )
        joined = service.handle(
            {"id": 3, "method": "slice", "params": {"function": "g", "variable": "w"}}
        )
        relative = service.handle(
            {"id": 4, "method": "slice", "params": {"unit": "b", "function": "g", "variable": "w"}}
        )
        focus = service.handle(
            {"id": 5, "method": "focus", "params": {"unit": "b", "function": "g", "variable": "w"}}
        )
        assert joined["result"]["lines"] == [5]
        assert joined["result"]["spans"] == [[5, 5, 5, 19]]
        assert relative["result"]["lines"] == [2]
        assert relative["result"]["spans"] == [[2, 5, 2, 19]]
        assert relative["result"]["lines"] == focus["result"]["backward"]["lines"]
        assert relative["result"]["spans"] == focus["result"]["backward"]["spans"]

    def test_slice_of_a_function_outside_the_unit_is_invalid_params(self):
        service = self.service_with_unit_a()
        service.handle(
            {"id": 2, "method": "open", "params": {"unit": "b", "source": UNIT_B_SOURCE}}
        )
        response = service.handle(
            {"id": 3, "method": "slice", "params": {"unit": "a", "function": "g", "variable": "w"}}
        )
        assert response["ok"] is False
        assert response["error_code"] == "invalid_params"
        assert response["error"] == "function 'g' is in unit 'b', not 'a'"


class TestServeLoop:
    def test_analyze_twice_second_served_from_store(self):
        responses = run_requests(
            [
                {"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}},
                {"id": 2, "method": "analyze", "params": {"function": "get_count"}},
                {"id": 3, "method": "analyze", "params": {"function": "get_count"}},
                {"id": 4, "method": "shutdown"},
            ]
        )
        assert [r["ok"] for r in responses] == [True] * 4
        assert responses[1]["result"]["functions"]["get_count"]["cache"] == "miss"
        assert responses[2]["result"]["functions"]["get_count"]["cache"] == "hit"
        # The acceptance check: the hit is observable in the response stats.
        assert responses[2]["result"]["stats"]["hits"] >= 1
        assert responses[3]["result"]["shutdown"] is True

    def test_edit_between_queries_invalidates(self):
        edited = HELPER_CALLER_SOURCE.replace("y + 1", "y + 2")
        responses = run_requests(
            [
                {"id": 1, "method": "open", "params": {"source": HELPER_CALLER_SOURCE}},
                {"id": 2, "method": "analyze", "params": {"function": "helper"}},
                {"id": 3, "method": "update", "params": {"source": edited}},
                {"id": 4, "method": "analyze", "params": {"function": "helper"}},
            ]
        )
        assert responses[2]["result"]["body_changed"] == ["helper"]
        assert responses[3]["result"]["functions"]["helper"]["cache"] == "miss"

    def test_slice_ifc_stats_and_condition(self):
        responses = run_requests(
            [
                {"id": 1, "method": "open", "params": {"source": HELPER_CALLER_SOURCE}},
                {
                    "id": 2,
                    "method": "analyze",
                    "params": {"function": "caller", "condition": {"whole_program": True}},
                },
                {
                    "id": 3,
                    "method": "slice",
                    "params": {"function": "caller", "variable": "r"},
                },
                {"id": 4, "method": "ifc", "params": {"sinks": []}},
                {"id": 5, "method": "stats"},
            ]
        )
        assert all(r["ok"] for r in responses)
        assert responses[1]["result"]["condition"] == "Whole-program"
        assert responses[2]["result"]["size"] > 0
        assert responses[3]["result"]["count"] == 0
        stats = responses[4]["result"]
        assert stats["counters"]["analyze_queries"] == 1
        assert stats["counters"]["slice_queries"] == 1
        assert stats["store_entries"] >= 1

    def test_errors_do_not_kill_the_loop(self):
        in_stream = io.StringIO(
            "this is not json\n"
            + json.dumps({"id": 2, "method": "frobnicate"})
            + "\n"
            + json.dumps({"id": 3, "method": "analyze"})
            + "\n"
            + json.dumps({"id": 4, "method": "ping"})
            + "\n"
            + json.dumps({"id": 5, "method": "open", "params": {"source": "let x = ²;"}})
            + "\n"
        )
        out_stream = io.StringIO()
        serve(in_stream, out_stream)
        responses = [json.loads(line) for line in out_stream.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, False, False, True, False]
        assert all(len(r["trace_id"]) == 16 for r in responses)
        assert "invalid JSON" in responses[0]["error"]
        assert "unknown method" in responses[1]["error"]
        assert "no sources opened" in responses[2]["error"]
        assert responses[3]["result"]["pong"] is True
        # A superscript digit is a digit to str.isdigit but not to int().
        assert responses[4]["error_code"] == "repro_error"

    def test_failed_open_rolls_back_local_crate(self):
        service = AnalysisService()
        ok = service.handle(
            {"id": 1, "method": "open",
             "params": {"source": "fn f(x: u32) -> u32 { x }", "local_crate": "main"}}
        )
        assert ok["ok"]
        bad = service.handle(
            {"id": 2, "method": "open",
             "params": {"unit": "other", "source": "fn broken( {", "local_crate": "elsewhere"}}
        )
        assert not bad["ok"]
        assert service.session.local_crate == "main"
        # The surviving workspace still analyses under its original crate.
        after = service.handle({"id": 3, "method": "analyze"})
        assert after["ok"] and list(after["result"]["functions"]) == ["f"]

    def test_unexpected_exception_does_not_kill_the_loop(self, monkeypatch):
        service = AnalysisService()
        monkeypatch.setattr(
            service.session, "stats", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        responses = [
            service.handle({"id": 1, "method": "stats"}),
            service.handle({"id": 2, "method": "ping"}),
        ]
        assert not responses[0]["ok"]
        assert "internal error: RuntimeError: boom" in responses[0]["error"]
        assert responses[1]["ok"]

    def test_oversized_line_is_refused_then_reading_stops(self, monkeypatch):
        from repro.service import protocol as protocol_module

        monkeypatch.setattr(protocol_module, "MAX_REQUEST_CHARS", 1024)
        invalid = get_registry().counter(
            "requests_total", method="invalid", protocol="ndjson", status="error"
        )
        before = invalid.value
        ping = json.dumps({"id": 1, "method": "ping"}) + "\n"
        in_stream = io.StringIO(ping + "x" * 2000)  # no newline: the line never ends
        out_stream = io.StringIO()
        assert serve(in_stream, out_stream) == 0
        pong, refused = [json.loads(line) for line in out_stream.getvalue().splitlines()]
        assert pong["ok"]
        assert refused["ok"] is False
        assert refused["error_code"] == "request_too_large"
        assert len(refused["trace_id"]) == 16
        assert invalid.value == before + 1
        assert in_stream.tell() == len(ping) + 1025  # stopped one past the bound

    def test_blank_lines_are_ignored(self):
        in_stream = io.StringIO("\n\n" + json.dumps({"id": 1, "method": "ping"}) + "\n\n")
        out_stream = io.StringIO()
        serve(in_stream, out_stream)
        assert len(out_stream.getvalue().splitlines()) == 1


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.mrs"
    path.write_text(GET_COUNT_SOURCE, encoding="utf-8")
    return str(path)


class TestCli:
    def test_serve_subcommand_with_input_file(self, tmp_path, source_file):
        requests = tmp_path / "requests.ndjson"
        requests.write_text(
            json.dumps({"id": 1, "method": "analyze", "params": {"function": "get_count"}})
            + "\n"
            + json.dumps({"id": 2, "method": "analyze", "params": {"function": "get_count"}})
            + "\n"
            + json.dumps({"id": 3, "method": "shutdown"})
            + "\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        code = main(["serve", source_file, "--input", str(requests)], out=out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["result"]["functions"]["get_count"]["cache"] == "miss"
        assert responses[1]["result"]["functions"]["get_count"]["cache"] == "hit"
        assert responses[1]["result"]["stats"]["hits"] == 1

    def test_query_repeat_shows_warm_hits(self, source_file):
        out = io.StringIO()
        code = main(
            ["query", source_file, "--method", "analyze", "--function", "get_count",
             "--repeat", "2"],
            out=out,
        )
        assert code == 0
        first, second = [json.loads(line) for line in out.getvalue().splitlines()]
        assert first["result"]["cache_hits"] == 0
        assert second["result"]["cache_hits"] == 1

    def test_query_slice(self, source_file):
        out = io.StringIO()
        code = main(
            ["query", source_file, "--method", "slice", "--function", "get_count",
             "--variable", "k"],
            out=out,
        )
        assert code == 0
        response = json.loads(out.getvalue())
        assert response["ok"] and response["result"]["direction"] == "backward"

    def test_query_slice_missing_args_fails(self, source_file):
        out = io.StringIO()
        assert main(["query", source_file, "--method", "slice"], out=out) == 2

    def test_query_cache_dir_persists_across_invocations(self, tmp_path, source_file):
        cache_dir = str(tmp_path / "cache")
        out1, out2 = io.StringIO(), io.StringIO()
        main(["query", source_file, "--cache-dir", cache_dir], out=out1)
        main(["query", source_file, "--cache-dir", cache_dir], out=out2)
        cold = json.loads(out1.getvalue())
        warm = json.loads(out2.getvalue())
        assert cold["result"]["cache_hits"] == 0
        assert warm["result"]["cache_hits"] == len(warm["result"]["functions"])
        assert warm["result"]["stats"]["disk_hits"] >= 1
