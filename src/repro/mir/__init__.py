"""MIR: the control-flow-graph intermediate representation.

Section 4.1 of the paper explains that Flowistry operates not on surface Rust
but on rustc's MIR — a CFG of basic blocks whose instructions assign to
*places* (a local plus a path of field/deref projections) and whose
terminators express branches, calls, and returns.  This package provides the
equivalent substrate for MiniRust:

* :mod:`repro.mir.ir` — the IR data types (places, rvalues, statements,
  terminators, bodies),
* :mod:`repro.mir.lower` — AST → MIR lowering,
* :mod:`repro.mir.pretty` — a printer that matches Figure 1's notation,
* :mod:`repro.mir.validate` — structural well-formedness checks,
* :mod:`repro.mir.callgraph` — the call graph used by the whole-program
  analysis and the evaluation harness.
"""

from repro.mir.ir import (
    Aggregate,
    AggregateKind,
    BasicBlock,
    BinaryOp,
    Body,
    CallTerminator,
    Constant,
    Copy,
    Goto,
    Local,
    Location,
    Move,
    Operand,
    Place,
    PlaceElem,
    ProjectionKind,
    Ref,
    Return,
    Rvalue,
    Statement,
    StatementKind,
    SwitchBool,
    Terminator,
    UnaryOp,
    Unreachable,
    Use,
    RETURN_LOCAL,
)
from repro.mir.lower import lower_function, lower_program, LoweredProgram
from repro.mir.pretty import pretty_body
from repro.mir.validate import validate_body
from repro.mir.callgraph import CallGraph, build_call_graph

__all__ = [
    "Aggregate",
    "AggregateKind",
    "BasicBlock",
    "BinaryOp",
    "Body",
    "CallGraph",
    "CallTerminator",
    "Constant",
    "Copy",
    "Goto",
    "Local",
    "Location",
    "LoweredProgram",
    "Move",
    "Operand",
    "Place",
    "PlaceElem",
    "ProjectionKind",
    "RETURN_LOCAL",
    "Ref",
    "Return",
    "Rvalue",
    "Statement",
    "StatementKind",
    "SwitchBool",
    "Terminator",
    "UnaryOp",
    "Unreachable",
    "Use",
    "build_call_graph",
    "lower_function",
    "lower_program",
    "pretty_body",
    "validate_body",
]
