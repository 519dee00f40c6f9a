"""End-to-end CLI coverage for `repro fuzz repro` (artifact replay), fuzz
sweep output directories and corpus export, and error surfacing."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Fuzz sweeps (`repro eval run --count N`)
# ---------------------------------------------------------------------------


def test_fuzz_report_dir_is_created_idempotently(tmp_path):
    nested = tmp_path / "a" / "b" / "reports"
    for _ in range(2):  # second run re-writes into the existing directory
        code, _ = run_cli(
            "eval", "run", "--seed", "0", "--count", "1", "--oracles", "validate",
            "--out-dir", str(nested),
        )
        assert code == 0
    assert (nested / "massrun_report.json").exists()


def test_fuzz_export_corpus_writes_mrs_files(tmp_path):
    corpus_dir = tmp_path / "corpus"
    code, _ = run_cli(
        "eval", "run", "--seed", "5", "--count", "3", "--oracles", "validate",
        "--out-dir", str(tmp_path / "out"), "--export-corpus", str(corpus_dir),
    )
    assert code == 0
    files = sorted(corpus_dir.glob("*.mrs"))
    assert [path.stem for path in files] == [
        "fuzz_small_seed5", "fuzz_small_seed6", "fuzz_small_seed7",
    ]
    assert "crate fuzzed {" in files[0].read_text()
    # The exported manifest is the run's own corpus manifest, so the
    # directory re-ingests with its feature histograms intact.
    assert (corpus_dir / "corpus_manifest.json").read_text() == (
        tmp_path / "out" / "corpus_manifest.json"
    ).read_text()


# ---------------------------------------------------------------------------
# Artifact replay (`repro fuzz repro`)
# ---------------------------------------------------------------------------


def test_fuzz_usage_error_on_bad_positional():
    code, output = run_cli("fuzz", "banana")
    assert code == 2
    assert "repro fuzz repro" in output
    # Without an artifact there is nothing to do: sweeps are `repro eval run`.
    code, output = run_cli("fuzz")
    assert code == 2
    assert "repro eval run" in output


def test_replay_of_fixed_artifact_exits_nonzero(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps({
        "kind": "repro-fuzz-artifact",
        "version": 1,
        "seed": 0,
        "crate_name": "main",
        "oracle": "injected:while_loop",
        "detail": "injected_while_loop: gone",
        "source": "fn f(a: u32) -> u32 { a + 1 }\n",
    }))
    code, output = run_cli("fuzz", "repro", str(path))
    assert code == 1
    assert "did NOT reproduce" in output


def test_replay_rejects_non_artifact_files(tmp_path):
    path = tmp_path / "not_artifact.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    code, output = run_cli("fuzz", "repro", str(path))
    assert code == 2
    assert "not a repro fuzz artifact" in output


def test_stats_without_file_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("stats")
    assert exit_info.value.code == 2
    assert "file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Error surfacing (line:column + excerpt) for broken inputs
# ---------------------------------------------------------------------------


def test_parse_error_shows_position_and_excerpt(tmp_path):
    bad = tmp_path / "bad.mrs"
    bad.write_text("fn f(a: u32) -> u32 {\n    let x = ;\n    x\n}\n")
    code, output = run_cli("analyze", str(bad))
    assert code == 2
    assert f"{bad}:2:" in output        # line:column of the offending token
    assert "let x = ;" in output        # the source excerpt
    assert "^" in output                # the caret underline


def test_type_error_shows_position_and_excerpt(tmp_path):
    bad = tmp_path / "bad_types.mrs"
    bad.write_text("fn f(a: u32) -> u32 {\n    a && true\n}\n")
    code, output = run_cli("analyze", str(bad))
    assert code == 2
    assert f"{bad}:2:" in output
    assert "a && true" in output
