"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

from helpers import GET_COUNT_SOURCE


IFC_SOURCE = """
struct Password { value: u32 }
extern fn insecure_print(x: u32);

fn leak(p: &Password) {
    insecure_print(p.value);
}

fn fine(x: u32) {
    insecure_print(x);
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.mrs"
    path.write_text(GET_COUNT_SOURCE, encoding="utf-8")
    return str(path)


@pytest.fixture
def ifc_file(tmp_path):
    path = tmp_path / "ifc.mrs"
    path.write_text(IFC_SOURCE, encoding="utf-8")
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_parser_requires_a_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_mir_command_prints_blocks(source_file):
    code, output = run_cli("mir", source_file)
    assert code == 0
    assert "bb0:" in output
    assert "get_count" in output


def test_mir_command_with_function_filter(source_file):
    code, output = run_cli("mir", source_file, "--function", "get_count")
    assert code == 0
    assert output.count("fn get_count") == 1


def test_mir_command_unknown_function_is_an_error(source_file):
    code, output = run_cli("mir", source_file, "--function", "nope")
    assert code == 2
    assert "error" in output


def test_analyze_command_prints_theta_and_sizes(source_file):
    code, output = run_cli("analyze", source_file)
    assert code == 0
    assert "Θ(" in output
    assert "dependency-set sizes" in output
    assert "condition: Modular" in output


@pytest.mark.parametrize(
    "option",
    [["--workers", "2"], ["--trace"], ["--chrome", "out.json"]],
    ids=["workers", "trace", "chrome"],
)
def test_analyze_rejects_removed_option(option, source_file, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["analyze", source_file, *option], out=io.StringIO())
    assert raised.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_analyze_command_honours_condition_flags(source_file):
    code, output = run_cli("analyze", source_file, "--mut-blind")
    assert code == 0
    assert "condition: Mut-blind" in output


def test_slice_command_backward(source_file):
    code, output = run_cli(
        "slice", source_file, "--function", "get_count", "--variable", "h"
    )
    assert code == 0
    assert "backward slice" in output
    assert "insert" in output


def test_slice_command_forward(source_file):
    code, output = run_cli(
        "slice", source_file, "--function", "get_count", "--variable", "k", "--forward"
    )
    assert code == 0
    assert "forward slice" in output


@pytest.mark.parametrize("direction", [[], ["--forward"]], ids=["backward", "forward"])
def test_slice_command_unknown_function_is_one_error_line(source_file, direction):
    code, output = run_cli(
        "slice", source_file, "--function", "nowhere", "--variable", "k", *direction
    )
    assert code == 2
    assert output == "error: no body available for function 'nowhere'\n"


def test_stats_command_prints_substrate_table(source_file):
    code, output = run_cli("stats", source_file)
    assert code == 0
    assert "interned" in output or "places" in output
    assert "get_count" in output
    assert "// condition: Modular" in output


def test_stats_command_json_output(source_file):
    import json

    code, output = run_cli("stats", source_file, "--json", "--whole-program")
    assert code == 0
    data = json.loads(output)
    assert data["condition"] == "Whole-program"
    for row in data["functions"]:
        assert row["interned_places"] > 0
        assert row["interned_locations"] >= row["instructions"]
        assert row["fixpoint_iterations"] >= 1
        assert 0.0 <= row["exit_density"] <= 1.0


def test_stats_command_unknown_function_is_an_error(source_file):
    code, output = run_cli("stats", source_file, "--function", "nope")
    assert code == 2
    assert "error" in output


def test_ifc_command_reports_violation_with_nonzero_exit(ifc_file):
    code, output = run_cli(
        "ifc", ifc_file, "--secret-type", "Password", "--sink", "insecure_print"
    )
    assert code == 1
    assert "leak" in output
    assert "insecure_print" in output


def test_ifc_command_clean_policy_exits_zero(ifc_file):
    code, output = run_cli("ifc", ifc_file, "--sink", "insecure_print")
    assert code == 0
    assert "no insecure flows" in output


def test_ifc_command_secret_variable_spec(ifc_file):
    code, output = run_cli(
        "ifc", ifc_file, "--secret-variable", "fine:x", "--sink", "insecure_print"
    )
    assert code == 1
    assert "fine" in output


def test_corpus_command_prints_table(tmp_path):
    code, output = run_cli("corpus", "--scale", "0.1")
    assert code == 0
    assert "Table 1" in output
    assert "rustpython" in output


def test_corpus_command_single_crate_source():
    code, output = run_cli("corpus", "--scale", "0.1", "--crate", "hyper")
    assert code == 0
    assert "crate hyper {" in output


def test_corpus_command_unknown_crate_errors():
    code, output = run_cli("corpus", "--scale", "0.1", "--crate", "nonexistent")
    assert code == 2
    assert "error" in output


# Line 2 adds a bool to a u32.
TYPE_ERROR_SOURCE = "fn f(y: u32) -> u32 {\n    y + true\n}\n"


@pytest.mark.parametrize("command", ["analyze", "query"])
def test_type_error_names_its_position_once(tmp_path, command):
    path = tmp_path / "bad.mrs"
    path.write_text(TYPE_ERROR_SOURCE, encoding="utf-8")
    code, output = run_cli(command, str(path))
    assert code == 2
    lines = output.splitlines()
    assert lines[0] == f"error at {path}:2:5: right operand of '+' must be u32, found bool"
    assert lines[1:] == [
        "  1 | fn f(y: u32) -> u32 {",
        "  2 |     y + true",
        "    |     ^^^^^^^^",
        "  3 | }",
    ]


def test_missing_file_is_a_clean_error():
    code, output = run_cli("mir", "/does/not/exist.mrs")
    assert code == 2
    assert "error" in output


def test_experiment_command_small_scale():
    code, output = run_cli("experiment", "--scale", "0.06")
    assert code == 0
    assert "measured vs paper" in output
    assert "crate boundary" in output


# ---------------------------------------------------------------------------
# --help / exit codes for every subcommand
# ---------------------------------------------------------------------------


ALL_SUBCOMMANDS = [
    "mir", "analyze", "slice", "focus", "stats", "ifc", "fuzz", "corpus",
    "experiment", "serve", "workspace", "version", "query", "trace", "metrics",
    "bench",
]


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    output = capsys.readouterr().out
    for name in ALL_SUBCOMMANDS:
        assert name in output


@pytest.mark.parametrize("name", [s for s in ALL_SUBCOMMANDS if s != "version"])
def test_subcommand_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([name, "--help"])
    assert excinfo.value.code == 0
    assert f"repro {name}" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(source_file, capsys):
    for argv in (["frobnicate"], ["profile", source_file], ["bench", "backfill"],
                 ["top", "--port", "1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_serve_help_documents_the_concurrency_flags(source_file, capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    output = capsys.readouterr().out
    for flag in ("--port", "--host", "--workers", "--persist-dir",
                 "--workspace", "--cache-dir", "--input"):
        assert flag in output
    # NDJSON is the one wire protocol: the old dialect flag is an argparse error.
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", source_file, "--jsonrpc"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --jsonrpc" in capsys.readouterr().err


def test_workspace_help_lists_actions(capsys):
    with pytest.raises(SystemExit):
        main(["workspace", "--help"])
    output = capsys.readouterr().out
    for action in ("save", "load", "list"):
        assert action in output


# ---------------------------------------------------------------------------
# version
# ---------------------------------------------------------------------------


def _pyproject_version():
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8"
    )
    return re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE).group(1)


def test_version_subcommand_matches_pyproject():
    code, output = run_cli("version")
    assert code == 0
    assert output.strip() == f"repro-flowistry {_pyproject_version()}"


def test_version_flag_matches_pyproject(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert _pyproject_version() in capsys.readouterr().out


def test_dunder_version_matches_pyproject():
    import repro

    assert repro.__version__ == _pyproject_version()


# ---------------------------------------------------------------------------
# serve / workspace persistence round trips
# ---------------------------------------------------------------------------


def test_serve_with_input_file_and_persist_dir(tmp_path, source_file):
    import json

    requests = tmp_path / "requests.ndjson"
    requests.write_text(
        json.dumps({"id": 1, "method": "analyze", "params": {"function": "get_count"}})
        + "\n",
        encoding="utf-8",
    )
    persist = str(tmp_path / "persist")

    code, output = run_cli(
        "serve", source_file, "--input", str(requests), "--persist-dir", persist
    )
    assert code == 0
    first = json.loads(output.splitlines()[0])
    assert first["ok"]
    assert first["result"]["functions"]["get_count"]["cache"] == "miss"

    # Restarted server over the same persist dir: first answer is warm.
    code, output = run_cli(
        "serve", "--input", str(requests), "--persist-dir", persist
    )
    assert code == 0
    second = json.loads(output.splitlines()[0])
    assert second["result"]["functions"]["get_count"]["cache"] == "hit"


def test_workspace_save_load_list_round_trip(tmp_path, source_file):
    import json

    persist = str(tmp_path / "ws")
    code, output = run_cli(
        "workspace", "save", source_file, "--persist-dir", persist, "--warm"
    )
    assert code == 0
    summary = json.loads(output)
    assert summary["workspace"] == "default" and summary["cache_entries"] >= 1

    code, output = run_cli(
        "workspace", "load", "--persist-dir", persist, "--analyze"
    )
    assert code == 0
    report = json.loads(output)
    assert report["analyze"]["cache_misses"] == 0
    assert report["analyze"]["cache_hits"] >= 1

    code, output = run_cli("workspace", "list", "--persist-dir", persist)
    assert code == 0
    assert json.loads(output)[0]["workspace"] == "default"


def test_serve_port_rejects_stdio_only_flags(tmp_path):
    for extra in (["--cache-dir", str(tmp_path)], ["--input", str(tmp_path / "x")]):
        code, output = run_cli("serve", "--port", "0", *extra)
        assert code == 2
        assert "stdio-mode flag" in output


def test_workspace_load_missing_is_clean_error(tmp_path):
    code, output = run_cli(
        "workspace", "load", "--persist-dir", str(tmp_path), "--workspace", "nope"
    )
    assert code == 2
    assert "error" in output


def test_workspace_save_rejects_a_name_outside_the_persist_dir(tmp_path, source_file):
    persist = tmp_path / "ws"
    code, output = run_cli(
        "workspace", "save", source_file, "--persist-dir", str(persist),
        "--workspace", "../x",
    )
    assert code == 2
    assert "invalid workspace name '../x'" in output
    assert [p.name for p in tmp_path.iterdir()] == ["program.mrs"]


def test_serve_port_rejects_a_bad_workspace_name_before_serving(tmp_path):
    # A subprocess, so a server that does start is killed by the timeout
    # rather than blocking the test run.
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--persist-dir", str(tmp_path / "ws"), "--workspace", "../x"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert completed.returncode == 2
    assert "invalid workspace name '../x'" in completed.stdout
    assert "hello" not in completed.stdout and "serving" not in completed.stdout


def test_serve_stdio_rejects_socket_only_flags(tmp_path):
    for extra in (["--log-level", "info"], ["--trace-dir", str(tmp_path)]):
        code, output = run_cli("serve", *extra)
        assert code == 2
        assert "socket-mode flag" in output


# ---------------------------------------------------------------------------
# trace / metrics (observability surfaces)
# ---------------------------------------------------------------------------


def test_trace_command_prints_span_tree(source_file):
    code, output = run_cli("trace", source_file)
    assert code == 0
    assert output.startswith("trace ")
    for span_name in ("analyze", "parse", "fixpoint"):
        assert span_name in output
    assert "spans," in output and "ms total" in output


def test_trace_command_json_and_chrome_export(tmp_path, source_file):
    import json

    chrome_path = tmp_path / "chrome.json"
    code, output = run_cli(
        "trace", source_file, "--json", "--chrome", str(chrome_path)
    )
    assert code == 0
    tree = json.loads(output.splitlines()[0])
    assert tree["root"]["name"] == "analyze"
    assert tree["root"]["children"], "trace has no child spans"

    document = json.loads(chrome_path.read_text(encoding="utf-8"))
    events = document["traceEvents"]
    assert any(event["name"] == "fixpoint" for event in events)
    assert all(event["ph"] == "X" for event in events)


def test_trace_command_honours_condition_flags(source_file):
    import json

    code, output = run_cli("trace", source_file, "--whole-program", "--json")
    assert code == 0
    tree = json.loads(output.splitlines()[0])
    fixpoints = [
        node for node in _walk(tree["root"]) if node["name"] == "fixpoint"
    ]
    assert fixpoints, "no fixpoint span recorded"


def test_trace_cli_noise_filter_reports_hidden_spans(source_file):
    code, output = run_cli(
        "trace", source_file, "--min-self-ms", "99999", "--depth", "1"
    )
    assert code == 0
    assert "hidden by --min-self-ms/--depth" in output
    # The root line always survives the filter.
    assert "analyze" in output


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def test_metrics_command_without_server_is_clean_error():
    code, output = run_cli("metrics", "--port", "1")  # nothing listens there
    assert code == 2
    assert "error" in output and "cannot connect" in output


# ---------------------------------------------------------------------------
# bench (the performance observatory surfaces)
# ---------------------------------------------------------------------------


def test_bench_gate_fails_on_injected_regression(tmp_path):
    import json
    import time as time_module

    from repro.eval.bench import record_run
    from repro.obs.history import HistoryLedger

    ledger_dir = tmp_path / "history"
    ledger = HistoryLedger(ledger_dir)
    config = {"suite": ["massrun"], "count": 500}
    base = time_module.time()
    for offset, pass_rate in ((0, 1.0), (10, 1.0), (20, 0.5)):
        record_run(
            ledger, {"massrun.pass_rate": pass_rate},
            timestamp=base + offset, config=config,
        )

    code, output = run_cli(
        "bench", "--ledger-dir", str(ledger_dir), "report", "--gate"
    )
    assert code == 1
    assert "regressed" in output and "massrun.pass_rate" in output

    # Without --gate the same report exits zero (report-only mode).
    code, output = run_cli("bench", "--ledger-dir", str(ledger_dir), "report")
    assert code == 0
    assert "gate: FAILED" in output
    code, output = run_cli(
        "bench", "--ledger-dir", str(ledger_dir), "report", "--json"
    )
    assert code == 0
    assert json.loads(output)["gate"] == {"ok": False, "failures": ["massrun.pass_rate"]}


@pytest.mark.parametrize(
    "flag",
    [
        ("bench", "report", "--scale", "0.1"),
        ("bench", "report", "--only", "theta_join"),
        ("bench", "report", "--run-id", "r1"),
        ("metrics", "--port", "1", "--health"),
        ("serve", "--no-slowlog"),
    ],
)
def test_bench_suite_flags_are_gone(flag, capsys):
    """Removed flags of `bench`, `metrics` and `serve` are argparse errors."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(flag))
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_profile_and_bench_help(capsys):
    for name, flags in (
        ("bench", ("--ledger-dir", "report")),
        ("metrics", ("--prometheus",)),
        ("serve", ("--trace-dir", "--log-level")),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        for flag in flags:
            assert flag in output, f"{name} --help missing {flag}"
