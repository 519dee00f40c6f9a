"""Budgeted fuzzing campaigns, JSON reports, repro artifacts, corpus export.

A campaign generates ``count`` programs (or as many as fit a wall-clock
budget) from consecutive seeds, runs the oracle battery on each, aggregates a
feature-coverage histogram, shrinks every failure to a minimal repro, and
writes everything under ``benchmarks/reports/`` (created idempotently):

* ``fuzz_campaign.json`` — the machine-readable campaign report,
* ``fuzz_repro_seed<seed>_<oracle>.json`` — one self-contained artifact per
  failure, replayable with ``repro fuzz repro <artifact>``.

The report's ``feature_histogram`` is what ``repro stats --campaign``
renders: per feature, how many occurrences were generated and how many
programs contained it — corpus diversity as a measured quantity.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs import get_registry, snapshot_delta
from repro.fuzz.generator import (
    GENERATOR_VERSION,
    GeneratedProgram,
    GeneratorConfig,
    count_loc,
    generate_program,
    profile,
)
from repro.fuzz.oracles import (
    DEFAULT_ORACLES,
    INJECTED_ORACLES,
    OracleVerdict,
    first_failure,
    run_battery,
)
from repro.fuzz.reduce import ReductionResult, shrink

ARTIFACT_KIND = "repro-fuzz-artifact"
ARTIFACT_VERSION = 1
DEFAULT_REPORT_DIR = "benchmarks/reports"


def ensure_report_dir(path) -> Path:
    """Create (idempotently) and return the report directory."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------------------
# Configuration and report
# ---------------------------------------------------------------------------


@dataclass
class CampaignConfig:
    """One fuzzing campaign's budget and feature selection."""

    seed: int = 0
    count: int = 50
    time_budget: Optional[float] = None  # seconds; stops early when exceeded
    size: str = "small"
    oracles: Optional[Sequence[str]] = None  # None = the default battery
    inject: Optional[str] = None  # name of an injected oracle to add
    shrink_failures: bool = True
    max_shrink_probes: int = 1500
    crate_name: str = "fuzzed"
    report_dir: Optional[str] = DEFAULT_REPORT_DIR
    export_dir: Optional[str] = None

    def generator_config(self) -> GeneratorConfig:
        return profile(self.size, crate_name=self.crate_name)

    def oracle_names(self) -> List[str]:
        names = list(self.oracles) if self.oracles is not None else list(DEFAULT_ORACLES)
        if self.inject is not None:
            if self.inject not in INJECTED_ORACLES:
                raise ReproError(
                    f"unknown injected oracle {self.inject!r} "
                    f"(known: {sorted(INJECTED_ORACLES)})"
                )
            names.append(f"injected:{self.inject}")
        return names


@dataclass
class CampaignFailure:
    """One failing (seed, oracle) pair with its shrunk repro."""

    seed: int
    oracle: str
    detail: str
    source: str
    reduced_source: str
    reduction: Optional[ReductionResult] = None
    artifact_path: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "oracle": self.oracle,
            "detail": self.detail,
            "artifact": self.artifact_path,
        }
        if self.reduction is not None:
            out["reduction"] = self.reduction.to_json_dict()
        return out


@dataclass
class CampaignReport:
    """Aggregated campaign outcome (what ``fuzz_campaign.json`` serialises)."""

    config: CampaignConfig
    generated: int = 0
    elapsed_seconds: float = 0.0
    oracle_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    feature_histogram: Dict[str, int] = field(default_factory=dict)
    feature_programs: Dict[str, int] = field(default_factory=dict)
    total_loc: int = 0
    failures: List[CampaignFailure] = field(default_factory=list)
    report_path: Optional[str] = None
    # Metrics-registry delta over the campaign window (stage_seconds,
    # fixpoint_iterations, cache counters): where the fuzzing time went.
    metrics: Optional[dict] = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def note_program(self, program: GeneratedProgram) -> None:
        self.generated += 1
        self.total_loc += program.loc()
        for feature, count in program.features.items():
            self.feature_histogram[feature] = (
                self.feature_histogram.get(feature, 0) + count
            )
            self.feature_programs[feature] = self.feature_programs.get(feature, 0) + 1

    def note_verdicts(self, verdicts: Sequence[OracleVerdict]) -> None:
        for verdict in verdicts:
            bucket = self.oracle_counts.setdefault(
                verdict.oracle, {"pass": 0, "fail": 0}
            )
            bucket["pass" if verdict.ok else "fail"] += 1

    def to_json_dict(self) -> dict:
        return {
            "kind": "repro-fuzz-campaign",
            "version": ARTIFACT_VERSION,
            "generator_version": GENERATOR_VERSION,
            "seed": self.config.seed,
            "count": self.config.count,
            "size": self.config.size,
            "oracles": self.config.oracle_names(),
            "generated": self.generated,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "total_loc": self.total_loc,
            "oracle_counts": {
                name: dict(counts) for name, counts in sorted(self.oracle_counts.items())
            },
            "feature_histogram": dict(sorted(self.feature_histogram.items())),
            "feature_programs": dict(sorted(self.feature_programs.items())),
            "failures": [failure.to_json_dict() for failure in self.failures],
            "metrics": self.metrics,
        }


# ---------------------------------------------------------------------------
# Running a campaign
# ---------------------------------------------------------------------------


def _shrink_failure(
    program: GeneratedProgram,
    failing: OracleVerdict,
    config: CampaignConfig,
) -> CampaignFailure:
    target_oracle = failing.oracle
    target_kind = failing.kind()

    def still_fails(candidate: str) -> bool:
        verdicts = run_battery(
            candidate,
            crate_name=config.crate_name,
            oracles=[target_oracle],
            seed=program.seed,
        )
        for verdict in verdicts:
            if not verdict.ok and verdict.oracle == target_oracle:
                return verdict.kind() == target_kind
        return False

    reduction: Optional[ReductionResult] = None
    reduced_source = program.source
    if config.shrink_failures:
        reduction = shrink(
            program.source,
            still_fails,
            crate_name=config.crate_name,
            max_probes=config.max_shrink_probes,
        )
        reduced_source = reduction.reduced
    return CampaignFailure(
        seed=program.seed,
        oracle=target_oracle,
        detail=failing.detail,
        source=program.source,
        reduced_source=reduced_source,
        reduction=reduction,
    )


def write_repro_artifact(
    directory,
    *,
    seed: int,
    oracle: str,
    detail: str,
    source: str,
    size: str = "small",
    crate_name: str = "fuzzed",
    original_loc: Optional[int] = None,
    generator_config: Optional[dict] = None,
    reduction: Optional[ReductionResult] = None,
    name: Optional[str] = None,
) -> str:
    """Write one self-contained repro artifact; returns its path.

    The format is shared between campaign failures and the mass-evaluation
    harness's per-program failure artifacts, so every failure — fuzzed or
    ingested from a committed corpus — replays with ``repro fuzz repro``.
    The file name is routed through the path-traversal guard: artifact
    names derived from corpus program names can never escape ``directory``.
    """
    from repro.eval.corpus import safe_artifact_path

    artifact = {
        "kind": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "generator_version": GENERATOR_VERSION,
        "seed": seed,
        "size": size,
        "crate_name": crate_name,
        "oracle": oracle,
        "detail": detail,
        "source": source,
        "original_loc": original_loc if original_loc is not None else count_loc(source),
    }
    if generator_config is not None:
        artifact["generator_config"] = generator_config
    if reduction is not None:
        artifact["reduction"] = reduction.to_json_dict()
    safe_oracle = oracle.replace(":", "_")
    stem = name if name is not None else f"fuzz_repro_seed{seed}_{safe_oracle}"
    path = safe_artifact_path(directory, stem, suffix=".json")
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _write_artifact(failure: CampaignFailure, config: CampaignConfig, directory: Path) -> str:
    return write_repro_artifact(
        directory,
        seed=failure.seed,
        oracle=failure.oracle,
        detail=failure.detail,
        source=failure.reduced_source,
        size=config.size,
        crate_name=config.crate_name,
        original_loc=count_loc(failure.source),
        generator_config=config.generator_config().to_json_dict(),
        reduction=failure.reduction,
    )


def run_campaign(config: CampaignConfig, on_progress=None) -> CampaignReport:
    """Generate programs, run the battery, shrink failures, write reports."""
    oracle_names = config.oracle_names()
    generator_config = config.generator_config()
    report = CampaignReport(config=config)
    exported: List[GeneratedProgram] = []
    metrics_before = get_registry().snapshot()
    start = time.perf_counter()

    for index in range(max(0, config.count)):
        if (
            config.time_budget is not None
            and time.perf_counter() - start > config.time_budget
        ):
            break
        seed = config.seed + index
        program = generate_program(seed, generator_config)
        report.note_program(program)
        if config.export_dir is not None:
            exported.append(program)
        verdicts = run_battery(
            program.source,
            crate_name=config.crate_name,
            oracles=oracle_names,
            seed=seed,
        )
        report.note_verdicts(verdicts)
        failing = first_failure(verdicts)
        if failing is not None:
            report.failures.append(_shrink_failure(program, failing, config))
        if on_progress is not None:
            on_progress(index + 1, report)

    report.elapsed_seconds = time.perf_counter() - start
    report.metrics = snapshot_delta(metrics_before, get_registry().snapshot())

    if config.export_dir is not None:
        # Write exactly the programs this campaign ran (no regeneration; a
        # time budget may have stopped the loop short of `count`).
        write_corpus_files(exported, config.size, config.export_dir)

    if config.report_dir is not None:
        directory = ensure_report_dir(config.report_dir)
        for failure in report.failures:
            failure.artifact_path = _write_artifact(failure, config, directory)
        report_path = directory / "fuzz_campaign.json"
        report_path.write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        report.report_path = str(report_path)
    return report


def write_corpus_files(programs: Sequence[GeneratedProgram], size: str, directory) -> List[str]:
    """Write generated programs as ``.mrs`` files (one per seed), plus a
    ``corpus_manifest.json`` carrying each program's content digest and
    feature histogram — the histogram export that lets the mass-evaluation
    harness key per-feature breakdowns on committed corpora too."""
    from repro.eval.corpus import CorpusProgram, dedup_programs, program_digest

    out_dir = ensure_report_dir(directory)
    paths: List[str] = []
    members: List[CorpusProgram] = []
    for program in programs:
        name = f"fuzz_{size}_seed{program.seed}"
        path = out_dir / f"{name}.mrs"
        path.write_text(program.source, encoding="utf-8")
        paths.append(str(path))
        members.append(
            CorpusProgram(
                name=name,
                source=program.source,
                digest=program_digest(program.source),
                origin="fuzz",
                crate_name=program.crate_name,
                seed=program.seed,
                features=dict(program.features),
            )
        )
    dedup_programs(members).write_manifest(out_dir)
    return paths


def export_corpus(config: CampaignConfig, directory) -> List[str]:
    """Generate and write the campaign's program set as ``.mrs`` files.

    The exported corpus feeds workloads the hand-built template corpus
    cannot reach (``repro.eval.corpus.generate_fuzz_corpus`` builds the same
    programs in memory for the differential engine tests).
    """
    generator_config = config.generator_config()
    programs = [
        generate_program(config.seed + index, generator_config)
        for index in range(max(0, config.count))
    ]
    return write_corpus_files(programs, config.size, directory)


# ---------------------------------------------------------------------------
# Artifact replay (``repro fuzz repro``)
# ---------------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """The result of replaying a repro artifact."""

    artifact: dict
    verdicts: List[OracleVerdict]
    reproduced: bool

    @property
    def source(self) -> str:
        return self.artifact["source"]


def load_artifact(path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("kind") != ARTIFACT_KIND:
        raise ReproError(
            f"{path} is not a repro fuzz artifact (kind={data.get('kind')!r})"
        )
    return data


def replay_artifact(path) -> ReplayOutcome:
    """Re-run the recorded oracle on the artifact's (shrunk) program."""
    artifact = load_artifact(path)
    oracle = artifact["oracle"]
    expected_kind = str(artifact.get("detail", "")).split(":", 1)[0]
    verdicts = run_battery(
        artifact["source"],
        crate_name=artifact.get("crate_name", "fuzzed"),
        oracles=[oracle],
        seed=int(artifact.get("seed", 0)),
    )
    reproduced = any(
        not verdict.ok
        and verdict.oracle == oracle
        and (not expected_kind or verdict.kind() == expected_kind)
        for verdict in verdicts
    )
    return ReplayOutcome(artifact=artifact, verdicts=verdicts, reproduced=reproduced)


# ---------------------------------------------------------------------------
# Rendering (CLI + ``repro stats --campaign``)
# ---------------------------------------------------------------------------


def render_oracle_counts(oracle_counts: Dict[str, Dict[str, int]]) -> List[str]:
    """One line per oracle from a ``oracle_counts`` mapping — the shared
    rendering between campaign output and ``repro stats --campaign``."""
    lines = []
    for name, counts in sorted(oracle_counts.items()):
        fails = counts.get("fail", 0)
        status = "ok" if fails == 0 else f"FAIL x{fails}"
        lines.append(f"  {name:<22} pass {counts.get('pass', 0):>5}   {status}")
    return lines


def render_campaign_report(report: CampaignReport) -> str:
    data = report.to_json_dict()
    lines = [
        f"fuzz campaign: {data['generated']} programs "
        f"(seed {data['seed']}, size {data['size']}, "
        f"{data['total_loc']} LOC total) in {data['elapsed_seconds']:.2f}s",
        "",
        "oracle battery:",
    ]
    lines.extend(render_oracle_counts(data["oracle_counts"]))
    if report.failures:
        lines.append("")
        lines.append("failures (shrunk repros):")
        for failure in report.failures:
            reduced = (
                f"{failure.reduction.original_loc} -> {failure.reduction.reduced_loc} LOC"
                if failure.reduction is not None
                else "not shrunk"
            )
            lines.append(
                f"  seed {failure.seed} [{failure.oracle}] {reduced}"
            )
            lines.append(f"    {failure.detail}")
            if failure.artifact_path:
                lines.append(f"    artifact: {failure.artifact_path}")
                lines.append(f"    replay:   repro fuzz repro {failure.artifact_path}")
    if report.report_path:
        lines.append("")
        lines.append(f"report: {report.report_path}")
    return "\n".join(lines)


def render_feature_histogram(data: dict) -> str:
    """The feature-coverage histogram of a campaign report (JSON dict)."""
    histogram = data.get("feature_histogram", {})
    programs = data.get("feature_programs", {})
    generated = max(1, int(data.get("generated", 1)))
    lines = [
        f"feature coverage over {data.get('generated', '?')} generated programs "
        f"(seed {data.get('seed', '?')}, size {data.get('size', '?')}):",
        "",
        f"{'feature':<20} {'occurrences':>12} {'programs':>9} {'coverage':>9}",
    ]
    width = 24
    peak = max(histogram.values(), default=1)
    for feature in sorted(histogram, key=lambda f: (-histogram[f], f)):
        count = histogram[feature]
        share = programs.get(feature, 0) / generated
        bar = "#" * max(1, round(count / peak * width))
        lines.append(
            f"{feature:<20} {count:>12} {programs.get(feature, 0):>9} "
            f"{share:>8.0%}  {bar}"
        )
    return "\n".join(lines)
