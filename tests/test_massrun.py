"""Mass-evaluation harness: end-to-end runs, the committed mini-corpus
golden, feature coverage, and the failure path.

The 50-program mini-corpus under ``tests/data/mini_corpus`` is replayed
through the full battery and compared — volatile keys stripped — against
``tests/data/massrun_mini50_golden.json``, asserting the pass-rate
arithmetic and per-feature bucket counts exactly.  Injected oracles must
surface as gate failures with replayable per-program repro artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from helpers import requires_fork

from repro.errors import ReproError
from repro.eval.massrun import (
    MassRunConfig,
    evaluate_program,
    gate_problems,
    load_report,
    render_mass_report,
    run_mass_evaluation,
    strip_volatile,
)
from repro.fuzz.generator import GENERATOR_FEATURES

DATA = Path(__file__).parent / "data"
MINI_CORPUS = DATA / "mini_corpus"
GOLDEN = DATA / "massrun_mini50_golden.json"


# ---------------------------------------------------------------------------
# End-to-end: serial fuzz sweep
# ---------------------------------------------------------------------------


def test_sweep_all_oracles_pass_serially(tmp_path):
    config = MassRunConfig(count=6, seed=0, workers=0, out_dir=str(tmp_path))
    report = run_mass_evaluation(config)
    data = report.to_json_dict()
    assert data["pass_rate"] == 1.0
    assert report.passed()
    assert sorted(data["oracles"]) == [
        "cache_equality",
        "engine_equivalence",
        "focus_agreement",
        "noninterference",
        "validate",
    ]
    for counts in data["oracles"].values():
        assert counts == {"pass": 6, "fail": 0, "rate": 1.0}
    # Every passing program carries a snapshot digest and a precision sample.
    for program in data["programs"]:
        assert program["ok"] and program["snapshot_digest"]
    assert gate_problems(data) == []


def test_report_and_manifest_written_under_out_dir(tmp_path):
    out_dir = tmp_path / "nested" / "out"
    config = MassRunConfig(count=2, seed=0, out_dir=str(out_dir))
    report = run_mass_evaluation(config)
    assert Path(report.report_path).is_relative_to(out_dir)
    assert Path(report.manifest_path).is_relative_to(out_dir)
    loaded = load_report(report.report_path)
    assert loaded["corpus"]["programs"] == 2
    # Running again into the same directory is idempotent, not an error.
    run_mass_evaluation(config)


def test_empty_corpus_raises():
    with pytest.raises(ReproError):
        run_mass_evaluation(MassRunConfig(count=0))


def _artifact_sources(data: dict) -> list:
    return [
        json.loads(Path(failure["artifact"]).read_text(encoding="utf-8"))["source"]
        for failure in data["failures"]
    ]


@requires_fork
def test_parallel_and_serial_agree_on_everything_nonvolatile(tmp_path):
    # The second input fails every program, so shrinking runs inside the
    # pool workers and its reductions must match the serial run's too.
    for inject in (None, "while_loop"):
        runs = {}
        for workers in (0, 2):
            out_dir = tmp_path / f"{inject}-{workers}"
            runs[workers] = run_mass_evaluation(
                MassRunConfig(
                    count=4, seed=0, workers=workers, chunk_size=2,
                    inject=inject, out_dir=str(out_dir),
                )
            )
        serial, parallel = runs[0], runs[2]
        assert (parallel.mode, parallel.fanout_error) == ("parallel", None)
        serial_data = strip_volatile(serial.to_json_dict())
        parallel_data = strip_volatile(parallel.to_json_dict())
        # The worker count is honest config, not volatility; all *results*
        # (verdicts, digests, buckets, failures, reductions) must be identical.
        serial_data.pop("config")
        parallel_data.pop("config")
        assert serial_data == parallel_data
        assert len(serial_data["failures"]) == (4 if inject else 0)
        assert all(failure["reduction"] for failure in serial_data["failures"])
        assert _artifact_sources(serial.to_json_dict()) == _artifact_sources(
            parallel.to_json_dict()
        )


# ---------------------------------------------------------------------------
# The committed mini-corpus golden
# ---------------------------------------------------------------------------


def test_mini_corpus_matches_golden_report_exactly():
    report = run_mass_evaluation(
        MassRunConfig(count=0, dirs=[str(MINI_CORPUS)], workers=0)
    )
    actual = strip_volatile(report.to_json_dict())
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert actual == golden


def test_golden_report_arithmetic_is_consistent():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    programs = golden["corpus"]["programs"]
    assert programs == 50
    passed = sum(1 for p in golden["programs"] if p["ok"])
    assert golden["pass_rate"] == round(passed / programs, 6) == 1.0
    for counts in golden["oracles"].values():
        assert counts["pass"] + counts["fail"] == programs
        assert counts["rate"] == round(counts["pass"] / programs, 6)
    # Feature buckets: programs counted per feature never exceed the corpus,
    # occurrences bound programs from above, and nothing is missing at 50.
    for feature, bucket in golden["features"].items():
        assert 0 <= bucket["programs"] <= programs
        assert bucket["occurrences"] >= bucket["programs"] or bucket["programs"] == 0
        assert bucket["failed_programs"] == 0
    assert golden["features_missing"] == []
    assert set(GENERATOR_FEATURES) <= set(golden["features"])


def test_mini_corpus_files_match_manifest_digests():
    manifest = json.loads(
        (MINI_CORPUS / "corpus_manifest.json").read_text(encoding="utf-8")
    )
    from repro.eval.corpus import program_digest

    by_name = {entry["name"]: entry for entry in manifest["programs"]}
    mrs_files = sorted(MINI_CORPUS.glob("*.mrs"))
    assert len(mrs_files) == 50
    for path in mrs_files:
        entry = by_name[path.stem]
        assert program_digest(path.read_text(encoding="utf-8")) == entry["digest"]


# ---------------------------------------------------------------------------
# Feature coverage
# ---------------------------------------------------------------------------


def test_feature_buckets_cover_every_generator_feature(tmp_path):
    report = run_mass_evaluation(MassRunConfig(count=12, seed=0))
    data = report.to_json_dict()
    assert set(data["features"]) >= set(GENERATOR_FEATURES)
    assert data["features_missing"] == []
    for feature in GENERATOR_FEATURES:
        assert data["features"][feature]["programs"] > 0, feature


def test_generator_features_constant_is_exactly_the_emitted_vocabulary():
    # GENERATOR_FEATURES promises to be the complete note() vocabulary: a
    # 50-seed sweep must emit every listed feature and nothing unlisted.
    from repro.eval.corpus import fuzz_sweep_programs

    emitted = set()
    for program in fuzz_sweep_programs(50, seed=0):
        emitted.update(program.features)
    assert emitted == set(GENERATOR_FEATURES)
    assert tuple(sorted(GENERATOR_FEATURES)) == GENERATOR_FEATURES


def test_unannotated_corpus_has_no_missing_features(tmp_path):
    # A foreign corpus with no feature histograms must not trip the
    # empty-bucket gate: coverage is only judged when histograms exist.
    (tmp_path / "plain.mrs").write_text(
        "fn main() { let x = 1; }\n", encoding="utf-8"
    )
    report = run_mass_evaluation(MassRunConfig(count=0, dirs=[str(tmp_path)]))
    data = report.to_json_dict()
    assert data["features_missing"] == []
    assert gate_problems(data) == []


# ---------------------------------------------------------------------------
# Failure path: injected oracles
# ---------------------------------------------------------------------------


def test_injected_oracle_fails_gate_with_replayable_artifacts(tmp_path):
    config = MassRunConfig(
        count=3, seed=0, inject="while_loop", out_dir=str(tmp_path)
    )
    report = run_mass_evaluation(config)
    data = report.to_json_dict()
    assert data["pass_rate"] == 0.0
    assert len(data["failures"]) == 3
    problems = gate_problems(data)
    assert any("injected:while_loop" in problem for problem in problems)
    from repro.fuzz.artifact import replay_artifact

    for failure in data["failures"]:
        artifact = Path(failure["artifact"])
        assert artifact.is_relative_to(tmp_path)
        assert failure["digest"][:12] in artifact.name
        assert failure["reduction"]["reduced_loc"] < failure["reduction"]["original_loc"]
        assert replay_artifact(artifact).reproduced


def test_injected_failures_render_with_replay_hint(tmp_path):
    config = MassRunConfig(
        count=2, seed=0, inject="deref_write", out_dir=str(tmp_path)
    )
    data = run_mass_evaluation(config).to_json_dict()
    rendered = render_mass_report(data)
    assert "repro fuzz repro" in rendered
    assert "injected:deref_write" in rendered


def test_front_end_crash_is_a_verdict_not_an_exception():
    result = evaluate_program(
        {
            "name": "broken",
            "source": "fn main( {",
            "digest": "x",
            "loc": 1,
        },
        oracles=["validate"],
    )
    assert not result["ok"]
    assert result["verdicts"][0]["oracle"] == "validate"
    # Nothing structured is left to remove, so shrinking is a no-op.
    assert result["reduction"]["probes"] == 0
    assert result["reduced_source"] == "fn main( {"


# ---------------------------------------------------------------------------
# Ledger integration
# ---------------------------------------------------------------------------


def test_run_records_massrun_row_in_bench_ledger(tmp_path):
    config = MassRunConfig(count=2, seed=0, ledger_dir=str(tmp_path / "ledger"))
    report = run_mass_evaluation(config)
    assert report.ledger is not None
    from repro.obs.history import HistoryLedger

    records = HistoryLedger(tmp_path / "ledger").read()
    metrics = {record.metric for record in records}
    assert "massrun.pass_rate" in metrics
    pass_rate = next(r for r in records if r.metric == "massrun.pass_rate")
    assert pass_rate.value == 1.0
    assert all(r.run_id == report.ledger["run_id"] for r in records)


def test_massrun_pass_rate_is_a_gated_bench_metric():
    from repro.eval.bench import policy_for

    policy = policy_for("massrun.pass_rate")
    assert policy.gate and policy.direction == "higher"
    assert not policy_for("massrun.programs_per_second").gate
