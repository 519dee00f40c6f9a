"""Evaluation harness: corpus, experiments, statistics, and report rendering.

Section 5 of the paper evaluates the precision of the modular analysis on 10
large Rust crates.  We cannot ship those crates (nor rustc), so this package
provides the substituted pipeline end to end:

* :mod:`repro.eval.corpus` — a deterministic generator of synthetic MiniRust
  "crates" whose code-style parameters mirror the qualitative findings of
  Section 5.3 (immutable-reference-heavy APIs, permission-threading helpers,
  partially-used inputs, disjoint ``&mut`` parameters, extern boundaries),
* :mod:`repro.eval.metrics` — Table 1 style dataset statistics,
* :mod:`repro.eval.experiments` — runs the analysis conditions over the
  corpus and produces per-variable dependency-set sizes,
* :mod:`repro.eval.stats` — percentage-difference distributions, medians,
  crate-level correlation and the interaction regression of Section 5.2,
* :mod:`repro.eval.report` — text renderings of every table and figure,
* :mod:`repro.eval.perf` — Section 5.1's modular vs whole-program timing
  on a deep call graph, and the service's warm-vs-cold corpus timing,
* :mod:`repro.eval.massrun` — the mass-evaluation harness: batch-run
  program corpora (fuzz sweeps + committed ``.mrs`` directories, content-
  deduplicated) through the full oracle battery with aggregate gates.
"""

from repro.eval.corpus import (
    Corpus,
    CorpusProgram,
    CrateSpec,
    GeneratedCrate,
    PAPER_CRATE_SPECS,
    dedup_programs,
    generate_corpus,
    generate_crate,
    ingest_corpus,
    load_corpus_dir,
    program_digest,
    safe_artifact_path,
)
from repro.eval.massrun import (
    MassRunConfig,
    MassRunReport,
    gate_problems,
    run_mass_evaluation,
    strip_volatile,
)
from repro.eval.metrics import CrateMetrics, collect_metrics, dataset_table
from repro.eval.experiments import (
    ConditionRun,
    ExperimentData,
    run_conditions,
    run_full_experiment,
    crate_boundary_study,
)
from repro.eval.stats import (
    DiffSummary,
    percent_differences,
    summarize_differences,
    histogram,
    crate_correlation,
    interaction_regression,
)
from repro.eval.report import (
    render_table1,
    render_table2,
    render_figure2,
    render_figure3,
    render_figure4,
)

__all__ = [
    "ConditionRun",
    "Corpus",
    "CorpusProgram",
    "CrateMetrics",
    "CrateSpec",
    "DiffSummary",
    "ExperimentData",
    "GeneratedCrate",
    "MassRunConfig",
    "MassRunReport",
    "PAPER_CRATE_SPECS",
    "collect_metrics",
    "crate_boundary_study",
    "crate_correlation",
    "dataset_table",
    "dedup_programs",
    "gate_problems",
    "generate_corpus",
    "generate_crate",
    "ingest_corpus",
    "load_corpus_dir",
    "program_digest",
    "run_mass_evaluation",
    "safe_artifact_path",
    "strip_volatile",
    "histogram",
    "interaction_regression",
    "percent_differences",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_table1",
    "render_table2",
    "run_conditions",
    "run_full_experiment",
    "summarize_differences",
]
