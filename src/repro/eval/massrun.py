"""Mass evaluation: batch-run program corpora through the full oracle battery.

This is the batch API a code-generation pipeline would hit millions of times:
ingest a corpus of MiniRust programs (fuzz seed sweeps at any scale, plus any
committed ``.mrs`` directory), deduplicate by content digest, fan every
program through the five-oracle battery of :mod:`repro.fuzz.oracles` — which
itself exercises both engines (bitset + object) under both the Modular and
Whole-program conditions — on the process-pool shard fan-out of
:func:`repro.service.scheduler.map_shards`, and aggregate the verdicts into
one machine-readable report:

* **per-oracle pass rates** — the paper's modular-summaries thesis under
  load: if per-function summaries compose, these hold at corpus scale;
* **per-feature breakdowns** keyed on the generator's feature histograms,
  judged against :data:`repro.fuzz.generator.GENERATOR_FEATURES` so corpus
  coverage is a measured quantity with an explicit "missing" list;
* **precision distributions** (per-variable dependency-set sizes under the
  Modular condition) and **wall-time percentiles** per program;
* a per-program **session snapshot digest** (the canonical
  :meth:`~repro.service.session.AnalysisSession.snapshot` JSON hashed), so
  two corpus runs can be diffed program-by-program without storing outputs.

Each failing program is shrunk, inside the worker that found it, to a
minimal program that fails the same oracle the same way
(:func:`repro.fuzz.reduce.shrink`), and written as a self-contained repro
artifact (:mod:`repro.fuzz.artifact`; replay with ``repro fuzz repro
ARTIFACT.json``).  A run given a ledger directory appends a ``massrun`` row
to the benchmark history ledger so pass rate and throughput trend in
``repro bench report``.

Everything written lands strictly under the user-supplied ``--out-dir`` /
``--ledger-dir`` / ``--export-corpus`` roots, created idempotently, with
program-derived file names routed through the path-traversal guard.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.eval.corpus import (
    Corpus,
    CorpusProgram,
    ingest_corpus,
    safe_artifact_path,
    write_corpus_files,
)
from repro.eval.stats import percentile
from repro.fuzz.artifact import write_repro_artifact
from repro.fuzz.generator import GENERATOR_FEATURES, GENERATOR_VERSION, profile
from repro.fuzz.oracles import (
    DEFAULT_ORACLES,
    INJECTED_ORACLES,
    OracleVerdict,
    first_failure,
    oracle_names as battery_oracle_names,
    run_battery,
)
from repro.fuzz.reduce import ReductionResult, shrink
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span
from repro.service.scheduler import map_shards

REPORT_KIND = "repro-mass-eval"
REPORT_VERSION = 1
REPORT_NAME = "massrun_report.json"
FAILURE_DIR = "failures"
#: Oracle re-runs one failing program's shrink may spend.
MAX_SHRINK_PROBES = 1500

#: Report keys that vary run-to-run on identical inputs (timing, host paths,
#: ledger provenance).  Golden tests and doc replays compare reports with
#: these removed — everything else is deterministic in (corpus, config).
VOLATILE_KEYS = ("timing", "ledger", "out_dir")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class MassRunConfig:
    """One mass-evaluation run: corpus recipe, fan-out, and output roots."""

    count: int = 0  # fuzz seed-sweep size (0 = only the committed dirs)
    seed: int = 0
    size: str = "small"
    dirs: Sequence[str] = ()  # committed .mrs corpus directories
    workers: int = 0  # 0/1 = serial; >1 = process-pool fan-out
    chunk_size: int = 8
    oracles: Optional[Sequence[str]] = None  # None = the default battery
    inject: Optional[str] = None  # injected always-wrong oracle (self-test)
    max_snapshot_variables: int = 4
    out_dir: Optional[str] = None  # report + manifest + failure artifacts
    ledger_dir: Optional[str] = None  # bench-history ledger for the massrun row
    export_dir: Optional[str] = None  # the sweep's programs as .mrs files

    def oracle_names(self) -> List[str]:
        """The battery to run: ``oracles`` (whitespace-stripped; default all
        five) plus ``injected:<inject>``.  Unknown oracle names are refused
        by the battery itself; an unknown injection is refused here."""
        names = (
            [name.strip() for name in self.oracles]
            if self.oracles is not None
            else list(DEFAULT_ORACLES)
        )
        if self.inject is not None:
            if self.inject not in INJECTED_ORACLES:
                raise ReproError(
                    f"unknown injected oracle {self.inject!r} "
                    f"(known: {sorted(INJECTED_ORACLES)})"
                )
            names.append(f"injected:{self.inject}")
        return names

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "size": self.size,
            "dirs": [str(Path(d).name) for d in self.dirs],
            "workers": self.workers,
            "oracles": self.oracle_names(),
            "max_snapshot_variables": self.max_snapshot_variables,
        }


# ---------------------------------------------------------------------------
# Per-program evaluation (runs inside worker processes)
# ---------------------------------------------------------------------------

_WORKER_ORACLES: Optional[List[str]] = None
_WORKER_SNAPSHOT_VARS: int = 4


def _init_eval_worker(oracle_names: List[str], snapshot_vars: int) -> None:
    global _WORKER_ORACLES, _WORKER_SNAPSHOT_VARS
    _WORKER_ORACLES = list(oracle_names)
    _WORKER_SNAPSHOT_VARS = snapshot_vars


def evaluate_program(
    task: dict, oracles: Sequence[str], snapshot_vars: int = 4
) -> dict:
    """Run the battery (plus precision/snapshot probes) on one corpus member.

    Pure function of its inputs; returns a JSON-ready verdict record.  A
    program that fails a battery oracle is shrunk against its first failing
    verdict: the record carries the ``reduced_source`` and the ``reduction``
    statistics.  Any crash outside the battery (snapshot/precision probes)
    is folded into the record rather than raised, so one hostile program
    cannot sink a shard.
    """
    started = time.perf_counter()
    crate_name = task.get("crate_name", "fuzzed")
    seed = int(task.get("seed", 0))
    verdicts = run_battery(
        task["source"], crate_name=crate_name, oracles=list(oracles), seed=seed
    )
    failing = first_failure(verdicts)
    record = {
        "name": task["name"],
        "digest": task["digest"],
        "origin": task.get("origin", "fuzz"),
        "seed": seed,
        "loc": int(task.get("loc", 0)),
        "features": task.get("features") or {},
        "ok": failing is None,
        "verdicts": [verdict.to_json_dict() for verdict in verdicts],
        "snapshot_digest": None,
        "precision": None,
    }
    if failing is not None:
        reduction = _shrink_failure(task["source"], failing, crate_name, seed)
        record["reduced_source"] = reduction.reduced
        record["reduction"] = reduction.to_json_dict()
    else:
        try:
            record["snapshot_digest"], record["precision"] = _verdict_probes(
                task["source"], crate_name, snapshot_vars
            )
        except Exception as error:  # probe crash = failing program, not a crash
            record["ok"] = False
            record["verdicts"].append(
                {
                    "oracle": "snapshot",
                    "ok": False,
                    "detail": f"crash: {type(error).__name__}: {error}",
                }
            )
    record["seconds"] = time.perf_counter() - started
    return record


def _shrink_failure(
    source: str, failing: OracleVerdict, crate_name: str, seed: int
) -> ReductionResult:
    """Delta-debug ``source`` while the same oracle still fails with the same
    failure kind (so reduction cannot drift into a different failure)."""
    target_oracle = failing.oracle
    target_kind = failing.kind()

    def still_fails(candidate: str) -> bool:
        verdicts = run_battery(
            candidate, crate_name=crate_name, oracles=[target_oracle], seed=seed
        )
        for verdict in verdicts:
            if not verdict.ok and verdict.oracle == target_oracle:
                return verdict.kind() == target_kind
        return False

    return shrink(
        source, still_fails, crate_name=crate_name, max_probes=MAX_SHRINK_PROBES
    )


def _verdict_probes(
    source: str, crate_name: str, snapshot_vars: int
) -> Tuple[str, dict]:
    """The per-program verdict token and precision sample.

    The snapshot digest commits to every analyze record and slice the
    workspace can answer (cache-independent, byte-stable); precision is the
    distribution of per-variable dependency-set sizes under Modular.
    """
    from repro.service.session import AnalysisSession

    session = AnalysisSession(local_crate=crate_name)
    session.open_unit("eval", source)
    digest = session.snapshot_digest(max_variables_per_function=snapshot_vars)
    sizes: List[int] = []
    analyze = session.analyze()
    for fn_record in analyze["functions"].values():
        sizes.extend(fn_record["dependency_sizes"].values())
    precision = {
        "variables": len(sizes),
        "total_deps": sum(sizes),
        "mean_deps": round(sum(sizes) / len(sizes), 4) if sizes else 0.0,
        "max_deps": max(sizes) if sizes else 0,
    }
    return digest, precision


def _eval_shard(tasks: List[dict]) -> List[dict]:
    """Module-level shard worker (picklable) for :func:`map_shards`."""
    assert _WORKER_ORACLES is not None
    return [
        evaluate_program(task, _WORKER_ORACLES, _WORKER_SNAPSHOT_VARS)
        for task in tasks
    ]


def _task_of(program: CorpusProgram) -> dict:
    return {
        "name": program.name,
        "source": program.source,
        "digest": program.digest,
        "origin": program.origin,
        "crate_name": program.crate_name,
        "seed": program.seed,
        "loc": program.loc(),
        "features": program.features,
    }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _aggregate_oracles(results: Sequence[dict]) -> Dict[str, dict]:
    counts: Dict[str, Dict[str, int]] = {}
    for result in results:
        for verdict in result["verdicts"]:
            bucket = counts.setdefault(verdict["oracle"], {"pass": 0, "fail": 0})
            bucket["pass" if verdict["ok"] else "fail"] += 1
    out: Dict[str, dict] = {}
    for oracle, bucket in sorted(counts.items()):
        total = bucket["pass"] + bucket["fail"]
        out[oracle] = {
            "pass": bucket["pass"],
            "fail": bucket["fail"],
            "rate": round(bucket["pass"] / total, 6) if total else None,
        }
    return out


def _aggregate_features(results: Sequence[dict]) -> Tuple[Dict[str, dict], List[str]]:
    """Per-feature buckets over every feature the generator can emit.

    Every known feature appears (a bucket with zeroes is visible, not
    silently dropped); features seen in ingested histograms but unknown to
    the generator are kept too, so foreign corpora still aggregate.
    """
    buckets: Dict[str, Dict[str, int]] = {
        feature: {"programs": 0, "occurrences": 0, "failed_programs": 0}
        for feature in GENERATOR_FEATURES
    }
    with_features = 0
    for result in results:
        features = result.get("features") or {}
        if features:
            with_features += 1
        for feature, occurrences in features.items():
            bucket = buckets.setdefault(
                feature, {"programs": 0, "occurrences": 0, "failed_programs": 0}
            )
            bucket["programs"] += 1
            bucket["occurrences"] += int(occurrences)
            if not result["ok"]:
                bucket["failed_programs"] += 1
    out = {
        feature: dict(bucket, pass_rate=(
            round(1.0 - bucket["failed_programs"] / bucket["programs"], 6)
            if bucket["programs"]
            else None
        ))
        for feature, bucket in sorted(buckets.items())
    }
    missing = sorted(
        feature
        for feature in GENERATOR_FEATURES
        if with_features and out[feature]["programs"] == 0
    )
    return out, missing


def _distribution(values: Sequence[float], unit_scale: float = 1.0) -> Optional[dict]:
    if not values:
        return None
    scaled = [value * unit_scale for value in values]
    return {
        "min": round(min(scaled), 4),
        "p50": round(percentile(scaled, 0.50), 4),
        "p95": round(percentile(scaled, 0.95), 4),
        "p99": round(percentile(scaled, 0.99), 4),
        "max": round(max(scaled), 4),
        "mean": round(sum(scaled) / len(scaled), 4),
    }


@dataclass
class MassRunReport:
    """The aggregate outcome of one mass-evaluation run."""

    config: MassRunConfig
    corpus: Corpus
    results: List[dict] = field(default_factory=list)
    mode: str = "serial"
    fanout_error: Optional[str] = None
    elapsed_seconds: float = 0.0
    report_path: Optional[str] = None
    manifest_path: Optional[str] = None
    ledger: Optional[dict] = None

    @property
    def failures(self) -> List[dict]:
        return [result for result in self.results if not result["ok"]]

    @property
    def pass_rate(self) -> Optional[float]:
        if not self.results:
            return None
        passed = sum(1 for result in self.results if result["ok"])
        return round(passed / len(self.results), 6)

    def passed(self) -> bool:
        return bool(self.results) and not self.failures

    def to_json_dict(self) -> dict:
        features, missing = _aggregate_features(self.results)
        per_program_seconds = [result["seconds"] for result in self.results]
        mean_deps = [
            result["precision"]["mean_deps"]
            for result in self.results
            if result.get("precision")
        ]
        max_deps = [
            float(result["precision"]["max_deps"])
            for result in self.results
            if result.get("precision")
        ]
        failures = [
            {
                "name": result["name"],
                "digest": result["digest"],
                "origin": result["origin"],
                "seed": result["seed"],
                "oracle": next(
                    (v["oracle"] for v in result["verdicts"] if not v["ok"]), None
                ),
                "detail": next(
                    (v["detail"] for v in result["verdicts"] if not v["ok"]), ""
                ),
                "reduction": result.get("reduction"),
                "artifact": result.get("artifact"),
            }
            for result in self.failures
        ]
        throughput = (
            round(len(self.results) / self.elapsed_seconds, 4)
            if self.elapsed_seconds > 0
            else None
        )
        return {
            "kind": REPORT_KIND,
            "version": REPORT_VERSION,
            "generator_version": GENERATOR_VERSION,
            "config": self.config.to_json_dict(),
            "corpus": {
                "programs": len(self.corpus),
                "duplicates": self.corpus.duplicates,
                "total_loc": self.corpus.total_loc(),
                "manifest_digest": self.corpus.manifest_digest(),
            },
            "pass_rate": self.pass_rate,
            "oracles": _aggregate_oracles(self.results),
            "features": features,
            "features_missing": missing,
            "precision": {
                "mean_deps": _distribution(mean_deps),
                "max_deps": _distribution(max_deps),
            },
            "failures": failures,
            "programs": [
                {
                    "name": result["name"],
                    "digest": result["digest"],
                    "ok": result["ok"],
                    "snapshot_digest": result["snapshot_digest"],
                }
                for result in self.results
            ],
            "timing": {
                "wall_seconds": round(self.elapsed_seconds, 3),
                "mode": self.mode,
                "workers": self.config.workers,
                "fanout_error": self.fanout_error,
                "per_program_ms": _distribution(per_program_seconds, 1000.0),
                "programs_per_second": throughput,
            },
            "out_dir": self.report_path and str(Path(self.report_path).parent),
            "ledger": self.ledger,
        }


def strip_volatile(report: dict) -> dict:
    """A copy of a report dict with run-to-run-varying keys removed.

    What remains is a pure function of (corpus bytes, run config): golden
    tests and documentation replays compare exactly this.
    """
    out = {key: value for key, value in report.items() if key not in VOLATILE_KEYS}
    out["failures"] = [
        {key: value for key, value in failure.items() if key != "artifact"}
        for failure in report.get("failures", [])
    ]
    return out


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def run_mass_evaluation(
    config: MassRunConfig, corpus: Optional[Corpus] = None
) -> MassRunReport:
    """Ingest (or accept) a corpus, fan it through the battery, aggregate.

    Writes ``massrun_report.json``, the corpus manifest, and per-failure
    repro artifacts under ``config.out_dir`` (if given), the sweep's
    programs under ``config.export_dir`` (if given), and appends a
    ``massrun`` row to the bench-history ledger under ``config.ledger_dir``
    (if given).  Never raises on program failures — those are data; raises
    only on configuration errors (unknown oracles, missing corpus dirs,
    empty corpus).
    """
    oracle_names = config.oracle_names()
    if corpus is None:
        with obs_span("massrun_ingest", count=config.count, dirs=len(config.dirs)):
            corpus = ingest_corpus(
                count=config.count,
                seed=config.seed,
                size=config.size,
                dirs=config.dirs,
            )
    if not corpus.programs:
        raise ReproError(
            "mass evaluation needs a non-empty corpus "
            "(pass --count N for a fuzz sweep and/or --dir DIR)"
        )

    report = MassRunReport(config=config, corpus=corpus)
    registry = obs_metrics.get_registry()
    started = time.perf_counter()
    with obs_span(
        "massrun", programs=len(corpus.programs), workers=config.workers
    ):
        mode, results, error = map_shards(
            _eval_shard,
            [_task_of(program) for program in corpus.programs],
            max_workers=config.workers,
            chunk_size=config.chunk_size,
            initializer=_init_eval_worker,
            initargs=(oracle_names, config.max_snapshot_variables),
        )
    report.mode = mode
    report.fanout_error = error
    report.results = results
    report.elapsed_seconds = time.perf_counter() - started

    program_seconds = registry.histogram(
        "massrun_program_seconds", buckets=obs_metrics.DEFAULT_BUCKETS
    )
    for result in results:
        registry.counter(
            "massrun_programs_total", ok=str(result["ok"]).lower()
        ).inc()
        program_seconds.observe(result["seconds"])
    registry.histogram("stage_seconds", stage="massrun").observe(
        report.elapsed_seconds
    )

    if config.out_dir is not None:
        _write_outputs(report, config)
    if config.export_dir is not None:
        write_corpus_files(
            [program for program in corpus.programs if program.origin == "fuzz"],
            config.export_dir,
        )
    if config.ledger_dir is not None:
        report.ledger = _record_ledger(report, config)
    return report


def _write_outputs(report: MassRunReport, config: MassRunConfig) -> None:
    """Report + manifest + failure artifacts, all under ``out_dir``.

    Artifact stems carry the program's digest prefix, so two failing
    programs with the same name (``a/p.mrs`` and ``b/p.mrs``) never share a
    file.  Only a battery oracle's failure gets an artifact, because replay
    re-runs that oracle; a probe crash (``snapshot``) stays a report row
    with ``artifact: null``.
    """
    out_dir = Path(config.out_dir)
    report.manifest_path = str(report.corpus.write_manifest(out_dir))
    failure_root = safe_artifact_path(out_dir, FAILURE_DIR)
    generator_config = (
        profile(config.size).to_json_dict() if config.count > 0 else None
    )
    by_digest = {program.digest: program for program in report.corpus.programs}
    replayable = set(battery_oracle_names(include_injected=True))
    for result in report.failures:
        program = by_digest[result["digest"]]
        failing = next(v for v in result["verdicts"] if not v["ok"])
        if failing["oracle"] not in replayable:
            continue
        result["artifact"] = write_repro_artifact(
            failure_root,
            name=f"massrun_repro_{result['name']}_{result['digest'][:12]}",
            seed=result["seed"],
            oracle=failing["oracle"],
            detail=failing["detail"],
            source=result.get("reduced_source", program.source),
            size=config.size,
            crate_name=program.crate_name,
            original_loc=result["loc"],
            generator_config=generator_config if result["origin"] == "fuzz" else None,
            reduction=result.get("reduction"),
        )
    report_path = safe_artifact_path(out_dir, REPORT_NAME)
    report_path.write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    report.report_path = str(report_path)


def _record_ledger(report: MassRunReport, config: MassRunConfig) -> dict:
    """One ``massrun`` row per metric into the bench-history ledger, so pass
    rate and throughput trend in ``repro bench report`` (the pass rate is a
    gated ratio metric; see :data:`repro.eval.bench.TRACKED`)."""
    from repro.eval.bench import record_run
    from repro.obs.history import HistoryLedger

    data = report.to_json_dict()
    timing = data["timing"]
    metrics = {
        "massrun.pass_rate": float(data["pass_rate"] or 0.0),
        "massrun.programs": float(len(report.results)),
    }
    if timing["programs_per_second"] is not None:
        metrics["massrun.programs_per_second"] = timing["programs_per_second"]
    per_program = timing["per_program_ms"]
    if per_program is not None:
        metrics["massrun.p50_ms"] = per_program["p50"]
        metrics["massrun.p95_ms"] = per_program["p95"]
    ledger = HistoryLedger(config.ledger_dir)
    run_id, appended = record_run(
        ledger,
        metrics,
        timestamp=time.time(),
        config={
            "suite": ["massrun"],
            "count": config.count,
            "size": config.size,
            "workers": config.workers,
            "dirs": sorted(str(Path(d).name) for d in config.dirs),
        },
    )
    return {"run_id": run_id, "records": appended, "ledger": str(ledger.path)}


# ---------------------------------------------------------------------------
# Gate + rendering (`repro eval run --gate`, `repro eval report`)
# ---------------------------------------------------------------------------


def gate_problems(report_data: dict) -> List[str]:
    """Why this report should fail a CI gate (empty = clean).

    Any oracle failure gates; so does a feature the generator can emit that
    no program in a feature-annotated corpus exercised — a corpus that
    silently stopped covering part of the grammar is a coverage regression
    even at a 100% pass rate.
    """
    problems: List[str] = []
    for oracle, counts in report_data.get("oracles", {}).items():
        if counts.get("fail"):
            problems.append(f"oracle {oracle}: {counts['fail']} failing program(s)")
    missing = report_data.get("features_missing") or []
    if missing:
        problems.append(f"empty feature buckets: {', '.join(missing)}")
    if not report_data.get("programs"):
        problems.append("no programs were evaluated")
    return problems


def render_oracle_counts(oracle_counts: Dict[str, dict]) -> List[str]:
    """One line per oracle from a report's ``oracles`` mapping."""
    lines = []
    for name, counts in sorted(oracle_counts.items()):
        fails = counts.get("fail", 0)
        status = "ok" if fails == 0 else f"FAIL x{fails}"
        lines.append(f"  {name:<22} pass {counts.get('pass', 0):>5}   {status}")
    return lines


def render_mass_report(data: dict) -> str:
    """The human-readable ``repro eval run`` / ``repro eval report`` rendering."""
    corpus = data.get("corpus", {})
    timing = data.get("timing") or {}
    lines = [
        "mass evaluation: {} programs ({} duplicate(s) removed, {} LOC total)".format(
            corpus.get("programs", "?"),
            corpus.get("duplicates", 0),
            corpus.get("total_loc", "?"),
        ),
    ]
    if timing:
        lines.append(
            "  {} mode, {} worker(s), {}s wall, {} programs/s".format(
                timing.get("mode", "?"),
                timing.get("workers", "?"),
                timing.get("wall_seconds", "?"),
                timing.get("programs_per_second", "?"),
            )
        )
    rate = data.get("pass_rate")
    lines.append(
        f"  pass rate: {100 * rate:.2f}%" if rate is not None else "  pass rate: n/a"
    )
    lines.append("")
    lines.append("oracle battery:")
    lines.extend(render_oracle_counts(data.get("oracles", {})))
    features = data.get("features", {})
    if features:
        lines.append("")
        lines.append(
            f"{'feature':<20} {'programs':>9} {'occurrences':>12} {'pass rate':>10}"
        )
        for feature, bucket in sorted(
            features.items(), key=lambda kv: (-kv[1]["programs"], kv[0])
        ):
            rate = bucket.get("pass_rate")
            lines.append(
                "{:<20} {:>9} {:>12} {:>10}".format(
                    feature,
                    bucket["programs"],
                    bucket["occurrences"],
                    f"{100 * rate:.1f}%" if rate is not None else "-",
                )
            )
    missing = data.get("features_missing") or []
    if missing:
        lines.append("")
        lines.append(f"EMPTY feature buckets: {', '.join(missing)}")
    precision = data.get("precision") or {}
    mean_deps = precision.get("mean_deps")
    if mean_deps:
        lines.append("")
        lines.append(
            "precision (mean deps/variable): p50 {p50}  p95 {p95}  max {max}".format(
                **mean_deps
            )
        )
    per_program = timing.get("per_program_ms")
    if per_program:
        lines.append(
            "per-program wall (ms):          p50 {p50}  p95 {p95}  max {max}".format(
                **per_program
            )
        )
    failures = data.get("failures", [])
    if failures:
        lines.append("")
        lines.append("failures (shrunk repros):")
        for failure in failures[:20]:
            reduction = failure.get("reduction")
            shrunk = (
                f"{reduction['original_loc']} -> {reduction['reduced_loc']} LOC"
                if reduction
                else "not shrunk"
            )
            lines.append(f"  {failure['name']} [{failure['oracle']}] {shrunk}")
            lines.append(f"    {failure['detail']}")
            if failure.get("artifact"):
                lines.append(f"    replay: repro fuzz repro {failure['artifact']}")
        if len(failures) > 20:
            lines.append(f"  ... and {len(failures) - 20} more")
    return "\n".join(lines)


def load_report(path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("kind") != REPORT_KIND:
        raise ReproError(
            f"{path} is not a mass-evaluation report (kind={data.get('kind')!r})"
        )
    return data
