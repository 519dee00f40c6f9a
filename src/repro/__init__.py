"""repro: a reproduction of "Modular Information Flow through Ownership" (PLDI 2022).

The library implements, in pure Python, a Flowistry-style information flow
analysis for MiniRust — a Rust-subset language with ownership types — along
with every substrate the paper depends on and the full evaluation pipeline.

Quick start::

    from repro import analyze_source, AnalysisConfig

    result = analyze_source('''
        struct Counter { hits: u32, misses: u32 }
        extern fn log_event(code: u32);

        fn bump(c: &mut Counter, hit: bool) -> u32 {
            if hit {
                c.hits = c.hits + 1;
            } else {
                c.misses = c.misses + 1;
            }
            log_event(c.hits);
            c.hits + c.misses
        }
    ''')
    flow = result.result("bump")
    print(flow.dependency_sizes())

Package map:

* :mod:`repro.lang` — MiniRust front end (lexer, parser, type checker with
  ownership information, reference interpreter).
* :mod:`repro.mir` — MIR-style control-flow-graph IR and lowering.
* :mod:`repro.borrowck` — loan sets, signature summaries, alias oracles.
* :mod:`repro.dataflow` — dominators, control dependence, fixpoint engine.
* :mod:`repro.core` — the information flow analysis itself (the paper's
  contribution) plus the evaluation conditions.
* :mod:`repro.apps` — the program slicer and IFC checker of Figure 5.
* :mod:`repro.focus` — the focus engine: cursor resolution, precomputed
  per-function focus tables and span-precise highlight rendering (the
  paper's IDE "focus mode", served as the protocol's ``focus`` method).
* :mod:`repro.eval` — corpus generation, experiments, statistics, reports.
* :mod:`repro.service` — the incremental analysis service: content-addressed
  summary cache, call-graph invalidation, batch scheduler, and the
  line-delimited JSON protocol behind ``repro serve``.
"""

from repro.core.analysis import FunctionFlowResult
from repro.core.config import AnalysisConfig, all_conditions, condition_name
from repro.core.engine import FlowEngine, ProgramFlowResult, analyze_program, analyze_source
from repro.core.theta import DependencyContext
from repro.apps.ifc import IfcChecker, IfcPolicy, IfcViolation, render_report
from repro.apps.slicer import ProgramSlicer, Slice, SliceDirection
from repro.focus.table import FocusEntry, FocusTable
from repro.focus.resolve import FocusTarget, resolve_cursor
from repro.lang.parser import parse_crate, parse_program
from repro.lang.typeck import check_program
from repro.mir.lower import lower_program
from repro.mir.pretty import pretty_body
from repro.version import __version__

__all__ = [
    "AnalysisConfig",
    "DependencyContext",
    "FlowEngine",
    "FocusEntry",
    "FocusTable",
    "FocusTarget",
    "FunctionFlowResult",
    "IfcChecker",
    "IfcPolicy",
    "IfcViolation",
    "ProgramFlowResult",
    "ProgramSlicer",
    "Slice",
    "SliceDirection",
    "all_conditions",
    "analyze_program",
    "analyze_source",
    "check_program",
    "condition_name",
    "lower_program",
    "parse_crate",
    "parse_program",
    "pretty_body",
    "render_report",
    "resolve_cursor",
    "__version__",
]
