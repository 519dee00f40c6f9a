"""Experiment runner: dependency-set sizes per variable per condition.

This is the data-collection half of Section 5: for every crate in the corpus
and every analysis condition, run the information flow analysis on every
function of the crate and record, for every local variable, the size of its
dependency set at the function exit.  The resulting tables feed the
statistics (:mod:`repro.eval.stats`) and the report rendering
(:mod:`repro.eval.report`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import (
    AnalysisConfig,
    MODULAR,
    MUT_BLIND,
    REF_BLIND,
    WHOLE_PROGRAM,
    condition_name,
)
from repro.core.engine import FlowEngine
from repro.eval.corpus import GeneratedCrate, generate_corpus
from repro.eval.stats import VarKey, percent_differences, summarize_differences
from repro.lang.typeck import CheckedProgram, check_program
from repro.mir.lower import LoweredProgram, lower_program


@dataclass
class ConditionRun:
    """Results of running one analysis condition over the whole corpus."""

    condition: AnalysisConfig
    # (crate, function, variable) -> dependency set size at exit.
    sizes: Dict[VarKey, int] = field(default_factory=dict)
    # (crate, function) -> wall-clock analysis time in seconds.
    function_times: Dict[Tuple[str, str], float] = field(default_factory=dict)
    total_seconds: float = 0.0

    @property
    def name(self) -> str:
        return condition_name(self.condition)

    def median_function_time(self) -> float:
        times = sorted(self.function_times.values())
        if not times:
            return 0.0
        mid = len(times) // 2
        if len(times) % 2 == 1:
            return times[mid]
        return (times[mid - 1] + times[mid]) / 2.0

    def num_variables(self) -> int:
        return len(self.sizes)


@dataclass
class ExperimentData:
    """All condition runs over one corpus, plus boundary-crossing metadata."""

    corpus: List[GeneratedCrate]
    runs: Dict[str, ConditionRun] = field(default_factory=dict)
    # (crate, function, variable) -> whether the variable's flow involves a
    # call across a crate boundary (collected under the Whole-program run).
    hits_boundary: Dict[VarKey, bool] = field(default_factory=dict)

    def run(self, condition: AnalysisConfig) -> ConditionRun:
        return self.runs[condition_name(condition)]

    def sizes(self, condition: AnalysisConfig) -> Dict[VarKey, int]:
        return self.run(condition).sizes

    def comparison(
        self, baseline: AnalysisConfig, other: AnalysisConfig
    ) -> Dict[VarKey, float]:
        """Percentage increases of ``other`` relative to ``baseline``."""
        return percent_differences(self.sizes(baseline), self.sizes(other))


def _prepare_crate(
    crate: GeneratedCrate,
) -> Tuple[CheckedProgram, LoweredProgram]:
    checked = check_program(crate.program)
    lowered = lower_program(checked)
    return checked, lowered


def run_conditions(
    corpus: Sequence[GeneratedCrate],
    conditions: Sequence[AnalysisConfig],
    collect_boundaries: bool = True,
) -> ExperimentData:
    """Analyse every crate of ``corpus`` under every condition.

    Type checking and lowering are shared across conditions (they do not
    depend on the analysis configuration), mirroring how the paper re-runs
    only the analysis under its 8 conditions.
    """
    data = ExperimentData(corpus=list(corpus))
    prepared = [(crate, *_prepare_crate(crate)) for crate in corpus]

    for condition in conditions:
        run = ConditionRun(condition=condition)
        start_total = time.perf_counter()
        for crate, checked, lowered in prepared:
            engine = FlowEngine(checked, lowered=lowered, config=condition)
            for fn_name in engine.local_function_names():
                start = time.perf_counter()
                result = engine.analyze_function(fn_name)
                elapsed = time.perf_counter() - start
                run.function_times[(crate.name, fn_name)] = elapsed
                for variable, size in result.dependency_sizes().items():
                    run.sizes[(crate.name, fn_name, variable)] = size
                if collect_boundaries and condition.whole_program:
                    boundary_locs = result.boundary_call_locations()
                    for local in result.body.locals:
                        label = (
                            "<return>"
                            if local.index == 0
                            else (local.name or f"_{local.index}")
                        )
                        key = (crate.name, fn_name, label)
                        from repro.mir.ir import Place

                        deps = result.exit_theta.read_conflicts(
                            Place.from_local(local.index)
                        )
                        data.hits_boundary[key] = bool(deps & boundary_locs)
        run.total_seconds = time.perf_counter() - start_total
        data.runs[run.name] = run
    return data


def primary_experiment_conditions() -> List[AnalysisConfig]:
    """The conditions needed for Figures 2–4 plus the interaction regression."""
    return [
        MODULAR,
        WHOLE_PROGRAM,
        MUT_BLIND,
        REF_BLIND,
        AnalysisConfig(mut_blind=True, ref_blind=True),
    ]


def run_full_experiment(
    scale: float = 1.0,
    conditions: Optional[Sequence[AnalysisConfig]] = None,
    corpus: Optional[Sequence[GeneratedCrate]] = None,
) -> ExperimentData:
    """Generate the corpus (or use the provided one) and run the conditions."""
    chosen_corpus = list(corpus) if corpus is not None else generate_corpus(scale=scale)
    chosen_conditions = (
        list(conditions) if conditions is not None else primary_experiment_conditions()
    )
    return run_conditions(chosen_corpus, chosen_conditions)


@dataclass
class BoundaryStudy:
    """The Section 5.4.2 study: how often flows cross crate boundaries and
    whether Modular-vs-Whole-program differences concentrate there."""

    total_variables: int
    boundary_variables: int
    nonzero_with_boundary: int
    nonzero_without_boundary: int

    @property
    def fraction_boundary(self) -> float:
        return self.boundary_variables / self.total_variables if self.total_variables else 0.0

    @property
    def nonzero_rate_with_boundary(self) -> float:
        return (
            self.nonzero_with_boundary / self.boundary_variables
            if self.boundary_variables
            else 0.0
        )

    @property
    def nonzero_rate_without_boundary(self) -> float:
        non_boundary = self.total_variables - self.boundary_variables
        return self.nonzero_without_boundary / non_boundary if non_boundary else 0.0

    def row(self) -> Dict[str, object]:
        return {
            "variables": self.total_variables,
            "hit_crate_boundary_pct": round(100.0 * self.fraction_boundary, 1),
            "nonzero_diff_rate_with_boundary_pct": round(
                100.0 * self.nonzero_rate_with_boundary, 2
            ),
            "nonzero_diff_rate_without_boundary_pct": round(
                100.0 * self.nonzero_rate_without_boundary, 2
            ),
        }


def crate_boundary_study(data: ExperimentData) -> BoundaryStudy:
    """Compute the Section 5.4.2 numbers from a completed experiment."""
    differences = data.comparison(WHOLE_PROGRAM, MODULAR)
    total = 0
    boundary = 0
    nonzero_with = 0
    nonzero_without = 0
    for key, diff in differences.items():
        total += 1
        hits = data.hits_boundary.get(key, False)
        if hits:
            boundary += 1
            if abs(diff) > 1e-9:
                nonzero_with += 1
        else:
            if abs(diff) > 1e-9:
                nonzero_without += 1
    return BoundaryStudy(
        total_variables=total,
        boundary_variables=boundary,
        nonzero_with_boundary=nonzero_with,
        nonzero_without_boundary=nonzero_without,
    )
