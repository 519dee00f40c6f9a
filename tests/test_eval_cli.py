"""End-to-end CLI coverage for `repro eval run` / `repro eval report`."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.cli import main

MINI_CORPUS = Path(__file__).parent / "data" / "mini_corpus"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_eval_run_sweep_passes_and_writes_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, output = run_cli(
        "eval", "run", "--count", "3", "--seed", "0", "--out-dir", "out",
    )
    assert code == 0
    assert "mass evaluation: 3 programs" in output
    assert "pass rate: 100.00%" in output
    report = json.loads(
        (tmp_path / "out" / "massrun_report.json").read_text(encoding="utf-8")
    )
    assert report["kind"] == "repro-mass-eval"
    assert report["pass_rate"] == 1.0
    assert (tmp_path / "out" / "corpus_manifest.json").is_file()
    # Without --ledger-dir no ledger row is written anywhere under the cwd.
    assert report["ledger"] is None
    assert "ledger:" not in output
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]


def test_eval_run_json_output(tmp_path):
    code, output = run_cli(
        "eval", "run", "--count", "2", "--json",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 0
    data = json.loads(output)
    assert data["corpus"]["programs"] == 2
    assert data["oracles"]["validate"]["rate"] == 1.0


def test_eval_run_dir_ingestion(tmp_path):
    # Oracle names are stripped, so a comma-and-space list works too.
    for oracles, expected in (
        ("validate", ["validate"]),
        ("validate, cache_equality", ["cache_equality", "validate"]),
    ):
        code, output = run_cli(
            "eval", "run", "--dir", str(MINI_CORPUS), "--oracles", oracles,
            "--out-dir", str(tmp_path / "out"), "--json",
        )
        assert code == 0
        data = json.loads(output)
        assert data["corpus"]["programs"] == 50
        assert list(data["oracles"]) == expected
        assert data["config"]["oracles"] == [name.strip() for name in oracles.split(",")]


def test_eval_run_gate_fails_on_injected_oracle(tmp_path):
    code, output = run_cli(
        "eval", "run", "--count", "2", "--inject", "while_loop", "--gate",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 1
    assert "gate: oracle injected:while_loop" in output
    assert "failures (shrunk repros):" in output
    assert " -> " in output and " LOC" in output
    artifacts = sorted((tmp_path / "out" / "failures").glob("*.json"))
    assert len(artifacts) == 2
    # Each failure is shrunk to a minimal program that still fails the same
    # way, and the report carries the same reduction block as the artifact.
    report = json.loads(
        (tmp_path / "out" / "massrun_report.json").read_text(encoding="utf-8")
    )
    reductions = {failure["artifact"]: failure["reduction"] for failure in report["failures"]}
    for path in artifacts:
        artifact = json.loads(path.read_text(encoding="utf-8"))
        assert artifact["kind"] == "repro-fuzz-artifact"
        assert artifact["reduction"]["reduced_loc"] < artifact["reduction"]["original_loc"]
        assert artifact["original_loc"] == artifact["reduction"]["original_loc"]
        assert reductions[str(path)] == artifact["reduction"]
    # The artifacts replay through `repro fuzz repro` (exit 0 = the recorded
    # failure reproduced as recorded), printing the shrunk source.
    replay_code, replay_output = run_cli("fuzz", "repro", str(artifacts[0]))
    assert replay_code == 0
    assert "reproduced as recorded" in replay_output
    assert "while" in replay_output


def test_eval_run_without_gate_reports_failures_and_exits_one(tmp_path):
    code, output = run_cli(
        "eval", "run", "--count", "1", "--inject", "deref_write",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 1
    assert "failures (shrunk repros):" in output
    assert "gate:" not in output


def test_eval_run_gate_adds_the_empty_feature_bucket_check(tmp_path):
    # Four programs pass every oracle but never write a field: only --gate
    # turns that coverage hole into a failure.
    argv = ("eval", "run", "--count", "4", "--seed", "0", "--oracles", "validate",
            "--out-dir", str(tmp_path / "out"))
    code, output = run_cli(*argv)
    assert code == 0
    code, output = run_cli(*argv, "--gate")
    assert code == 1
    assert "gate: empty feature buckets: field_write" in output


def test_failing_programs_with_the_same_stem_get_distinct_artifacts(tmp_path):
    corpus = tmp_path / "dir"
    for sub, fn, var in (("a", "f", "i"), ("b", "g", "j")):
        (corpus / sub).mkdir(parents=True)
        (corpus / sub / "p.mrs").write_text(
            f"fn {fn}(n: u32) -> u32 {{\n"
            f"    let mut {var} = 0;\n"
            f"    let k = n + 1;\n"
            f"    while {var} < n {{\n"
            f"        {var} = {var} + 1;\n"
            f"    }}\n"
            f"    {var}\n"
            f"}}\n",
            encoding="utf-8",
        )
    code, output = run_cli(
        "eval", "run", "--dir", str(corpus), "--inject", "while_loop",
        "--oracles", "validate", "--out-dir", str(tmp_path / "out"),
    )
    assert code == 1
    report = json.loads(
        (tmp_path / "out" / "massrun_report.json").read_text(encoding="utf-8")
    )
    paths = [failure["artifact"] for failure in report["failures"]]
    assert len(paths) == len(set(paths)) == 2
    sources = sorted(
        json.loads(Path(path).read_text(encoding="utf-8"))["source"] for path in paths
    )
    assert sources[0].startswith("fn f(") and "fn g(" not in sources[0]
    assert sources[1].startswith("fn g(") and "fn f(" not in sources[1]
    for path in paths:
        replay_code, _ = run_cli("fuzz", "repro", path)
        assert replay_code == 0


def test_eval_run_empty_corpus_is_a_cli_error(tmp_path):
    code, output = run_cli(
        "eval", "run", "--out-dir", str(tmp_path / "out")
    )
    assert code == 2
    assert "non-empty corpus" in output


def test_eval_report_renders_and_gates(tmp_path):
    # count=6 at seed 0 exercises every generator feature, so the coverage
    # gate passes alongside the oracle gate; validate-only keeps it fast.
    run_cli(
        "eval", "run", "--count", "6", "--oracles", "validate",
        "--out-dir", str(tmp_path / "out"),
    )
    report_path = str(tmp_path / "out" / "massrun_report.json")
    code, output = run_cli("eval", "report", report_path)
    assert code == 0
    assert "oracle battery:" in output
    code, output = run_cli("eval", "report", report_path, "--gate")
    assert code == 0
    assert "gate: ok" in output
    code, output = run_cli("eval", "report", report_path, "--json")
    assert json.loads(output)["kind"] == "repro-mass-eval"


def test_eval_report_rejects_foreign_json(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"kind": "something-else"}), encoding="utf-8")
    code, output = run_cli("eval", "report", str(bogus))
    assert code == 2
    assert "not a mass-evaluation report" in output


def test_eval_run_records_ledger_row(tmp_path):
    code, output = run_cli(
        "eval", "run", "--count", "2",
        "--out-dir", str(tmp_path / "out"),
        "--ledger-dir", str(tmp_path / "ledger"),
    )
    assert code == 0
    assert "ledger:" in output
    from repro.obs.history import HistoryLedger

    metrics = {record.metric for record in HistoryLedger(tmp_path / "ledger").read()}
    assert "massrun.pass_rate" in metrics
    # The row trends in `repro bench report` alongside the suite metrics.
    code, output = run_cli(
        "bench", "--ledger-dir", str(tmp_path / "ledger"), "report"
    )
    assert code == 0
    assert "massrun.pass_rate" in output


def test_eval_run_unknown_injected_oracle_is_a_cli_error(tmp_path):
    code, output = run_cli(
        "eval", "run", "--count", "1", "--inject", "nope",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 2
    assert "unknown injected oracle" in output
