"""The information-flow core: Flowistry's analysis, reproduced.

This package contains the paper's primary contribution — a static, modular,
flow- and field-sensitive information flow analysis whose treatment of
function calls relies only on ownership types (mutability qualifiers and
lifetimes) from callee signatures:

* :mod:`repro.core.config` — the analysis conditions of Section 5
  (Modular, Whole-program, Mut-blind, Ref-blind and their combinations),
* :mod:`repro.core.theta` — the dependency context Θ as a join-semilattice,
* :mod:`repro.core.summaries` — whole-program call summaries, read out of
  recursively analysed callee bodies,
* :mod:`repro.core.transfer` — the MIR transfer function (T-Assign,
  T-AssignDeref, T-App of Section 2, adapted to CFGs per Section 4),
* :mod:`repro.core.analysis` — the per-function analysis driver,
* :mod:`repro.core.engine` — the program/crate-level API used by the
  applications and the evaluation harness, and the recursive summary
  provider of the Whole-program condition,
* :mod:`repro.core.oxide` — the AST-level judgment of Section 2, used to
  test noninterference (Theorem 3.1) against the interpreter.
"""

from repro.core.config import AnalysisConfig, all_conditions, condition_name
from repro.core.theta import (
    ARG_BLOCK,
    DependencyContext,
    IndexedDependencyContext,
    IndexedThetaLattice,
    ThetaLattice,
)
from repro.core.analysis import FunctionFlowAnalysis, FunctionFlowResult
from repro.core.engine import FlowEngine, ProgramFlowResult, analyze_program, analyze_source
from repro.core.summaries import WholeProgramSummary

__all__ = [
    "ARG_BLOCK",
    "AnalysisConfig",
    "DependencyContext",
    "FlowEngine",
    "FunctionFlowAnalysis",
    "FunctionFlowResult",
    "IndexedDependencyContext",
    "IndexedThetaLattice",
    "ProgramFlowResult",
    "ThetaLattice",
    "WholeProgramSummary",
    "all_conditions",
    "analyze_program",
    "analyze_source",
    "condition_name",
]
