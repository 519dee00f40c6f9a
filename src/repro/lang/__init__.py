"""MiniRust: the Rust-subset surface language used by the reproduction.

The paper's analysis (Flowistry) consumes the Rust compiler's MIR together
with ownership information from type signatures.  Since we cannot depend on
rustc, this package implements the closest self-contained substitute: a small
ownership-based language with

* a lexer and recursive-descent parser (:mod:`repro.lang.lexer`,
  :mod:`repro.lang.parser`),
* an AST with reference types carrying mutability and lifetimes
  (:mod:`repro.lang.ast`, :mod:`repro.lang.types`),
* an ownership-aware type checker (:mod:`repro.lang.typeck`), and
* a reference interpreter used for empirical noninterference testing
  (:mod:`repro.lang.interp`).
"""

from repro.lang.ast import (
    Block,
    Crate,
    ExprKind,
    Expr,
    FieldDef,
    FnDecl,
    FnSig,
    Item,
    Param,
    Program,
    Stmt,
    StmtKind,
    StructDef,
)
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse_crate, parse_expr, parse_program
from repro.lang.typeck import TypeChecker, check_program
from repro.lang.types import (
    BoolType,
    FnType,
    RefType,
    StructType,
    TupleType,
    Type,
    U32Type,
    UnitType,
    Mutability,
)
from repro.lang.interp import Interpreter, Value, evaluate_function

__all__ = [
    "Block",
    "BoolType",
    "Crate",
    "Expr",
    "ExprKind",
    "FieldDef",
    "FnDecl",
    "FnSig",
    "FnType",
    "Interpreter",
    "Item",
    "Mutability",
    "Param",
    "Parser",
    "Program",
    "RefType",
    "Stmt",
    "StmtKind",
    "StructDef",
    "StructType",
    "TupleType",
    "Type",
    "TypeChecker",
    "U32Type",
    "UnitType",
    "Value",
    "check_program",
    "evaluate_function",
    "parse_crate",
    "parse_expr",
    "parse_program",
    "tokenize",
]
