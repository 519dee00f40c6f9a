"""AST-level information flow: the formal judgment of Section 2.

The paper describes the analysis twice: once as an extension of Oxide's
typing judgment over *expressions* (Section 2, the form used for the
noninterference proof), and once as a dataflow analysis over MIR (Section 4,
the implemented form).  This module reproduces the first: a structural walk
of a type-checked MiniRust function that maintains the dependency context Θ
over surface-level places ``x.q`` and computes a dependency set κ for every
expression, following the rules

* ``T-u32``/literals: a constant depends only on its own label,
* ``T-Move``/``T-Copy``: reading a place yields Θ over its loan set,
* ``T-Assign``/``T-AssignDeref``: mutation updates all conflicts of all
  places the target may denote,
* ``T-Borrow``: borrows carry the dependencies of the borrowed place,
* ``T-Branch``: both branches are analysed, contexts joined, and the
  condition's κ added to every place either branch may have mutated,
* ``T-App``: the modular rule — arguments' transitive unique references are
  assumed mutated using every transitively readable input.

The labels ``ℓ`` are AST node ids; each parameter is additionally labelled by
its declaring node so results can speak about "the initial value of x".  The
empirical noninterference tests (Theorem 3.1) compare this analysis against
the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.borrowck.signatures import summarize_signature
from repro.errors import AnalysisError
from repro.lang import ast
from repro.lang.typeck import CheckedProgram
from repro.lang.types import Mutability, RefType, StructType, TupleType, Type


# A surface-level place: a variable name plus a path of field indices.
APlace = Tuple[str, Tuple[int, ...]]

Deps = FrozenSet[int]

EMPTY: Deps = frozenset()


def place_conflicts(a: APlace, b: APlace) -> bool:
    """The ``⊓`` relation of Section 2.1 over surface places."""
    if a[0] != b[0]:
        return False
    shorter, longer = (a[1], b[1]) if len(a[1]) <= len(b[1]) else (b[1], a[1])
    return longer[: len(shorter)] == shorter


@dataclass
class OxideTheta:
    """Θ over surface places, with the conflict-aware read/write helpers."""

    deps: Dict[APlace, Deps] = field(default_factory=dict)

    def get(self, place: APlace) -> Deps:
        return self.deps.get(place, EMPTY)

    def set(self, place: APlace, value: Deps) -> None:
        self.deps[place] = value

    def read_conflicts(self, place: APlace) -> Deps:
        """Dependencies of reading ``place``: tracked descendants (including
        the place itself), falling back to the nearest tracked ancestor when
        the place has no entry of its own — the same field-sensitive read the
        MIR-level analysis uses."""
        out: Set[int] = set()
        name, path = place
        for tracked, deps in self.deps.items():
            if tracked[0] == name and tracked[1][: len(path)] == path:
                out |= deps
        if place not in self.deps:
            nearest: Optional[APlace] = None
            for tracked in self.deps:
                if tracked[0] == name and len(tracked[1]) < len(path) and path[: len(tracked[1])] == tracked[1]:
                    if nearest is None or len(tracked[1]) > len(nearest[1]):
                        nearest = tracked
            if nearest is not None:
                out |= self.deps[nearest]
        return frozenset(out)

    def update_conflicts(self, place: APlace, new_deps: Deps) -> None:
        """``update-conflicts(Θ, p, κ)``: add κ to every conflicting place."""
        for tracked in list(self.deps.keys()):
            if place_conflicts(tracked, place):
                self.deps[tracked] = self.deps[tracked] | new_deps
        self.deps.setdefault(place, EMPTY)
        self.deps[place] = self.deps[place] | new_deps

    def join(self, other: "OxideTheta") -> "OxideTheta":
        merged = dict(self.deps)
        for place, deps in other.deps.items():
            merged[place] = merged.get(place, EMPTY) | deps
        return OxideTheta(merged)

    def changed_places(self, baseline: "OxideTheta") -> List[APlace]:
        """Places whose dependencies grew relative to ``baseline`` (Θ' \\ Θ1)."""
        out = []
        for place, deps in self.deps.items():
            if deps - baseline.get(place):
                out.append(place)
        return out

    def copy(self) -> "OxideTheta":
        return OxideTheta(dict(self.deps))

    def equals(self, other: "OxideTheta") -> bool:
        return self.deps == other.deps


@dataclass
class OxideFlowResult:
    """Result of the AST-level analysis of one function."""

    fn_name: str
    theta: OxideTheta
    return_deps: Deps
    param_labels: Dict[str, int]

    def params_in_deps(self, deps: Deps) -> Set[str]:
        """Parameters whose initial value is among ``deps``."""
        return {name for name, label in self.param_labels.items() if label in deps}

    def return_depends_on(self, param: str) -> bool:
        return self.param_labels.get(param) in self.return_deps

    def final_deps_of(self, name: str) -> Deps:
        return self.theta.read_conflicts((name, ()))


class OxideFlowAnalysis:
    """Runs the Section 2 judgment over a type-checked function body."""

    def __init__(self, checked: CheckedProgram, fn_name: str, max_loop_iterations: int = 64):
        self.checked = checked
        self.fn_name = fn_name
        decl = checked.program.function(fn_name)
        if decl is None or decl.body is None:
            raise AnalysisError(f"function {fn_name!r} has no body to analyse")
        self.decl = decl
        self.max_loop_iterations = max_loop_iterations
        # Loan environment: reference-typed places -> surface places they may
        # point to.  This is the AST-level analogue of the loan sets of §2.2.
        self.loans: Dict[APlace, Set[APlace]] = {}
        self.param_labels: Dict[str, int] = {}

    # -- type helpers ------------------------------------------------------------

    def _subplaces(self, name: str, ty: Type, path: Tuple[int, ...] = ()) -> List[Tuple[APlace, Type]]:
        out: List[Tuple[APlace, Type]] = [((name, path), ty)]
        if isinstance(ty, TupleType):
            for index, element in enumerate(ty.elements):
                out.extend(self._subplaces(name, element, path + (index,)))
        elif isinstance(ty, StructType) and not ty.opaque:
            for index, (_, field_ty) in enumerate(ty.fields):
                out.extend(self._subplaces(name, field_ty, path + (index,)))
        return out

    # -- public API ----------------------------------------------------------------

    def run(self) -> OxideFlowResult:
        theta = OxideTheta()
        for param in self.decl.params:
            label = param.node_id
            self.param_labels[param.name] = label
            ty = self.checked.registry.resolve(param.ty)
            for place, _ty in self._subplaces(param.name, ty):
                theta.set(place, frozenset({label}))

        return_deps, theta = self._analyze_block(self.decl.body, theta)
        # Early `return` statements record their dependencies under the
        # synthetic "<return>" place; fold those into the result.
        return_deps = return_deps | theta.read_conflicts(("<return>", ()))
        return OxideFlowResult(
            fn_name=self.fn_name,
            theta=theta,
            return_deps=return_deps,
            param_labels=dict(self.param_labels),
        )

    # -- places and loans --------------------------------------------------------------

    def _as_place(self, expr: ast.Expr) -> Optional[APlace]:
        """Surface place of a non-dereferencing place expression."""
        if isinstance(expr, ast.Var):
            return (expr.name, ())
        if isinstance(expr, ast.FieldAccess):
            base_ty = expr.base.ty
            if isinstance(base_ty, RefType):
                # Field access through a reference involves a deref.
                return None
            base = self._as_place(expr.base)
            if base is None:
                return None
            index = expr.field_index if expr.field_index is not None else expr.fld
            if not isinstance(index, int):
                return None
            return (base[0], base[1] + (index,))
        return None

    def _loan_targets(self, expr: ast.Expr) -> Set[APlace]:
        """Places a (possibly dereferencing) place expression may denote."""
        direct = self._as_place(expr)
        if direct is not None:
            return {direct}
        if isinstance(expr, ast.Deref):
            targets: Set[APlace] = set()
            base_place = self._as_place(expr.base)
            if base_place is not None and base_place in self.loans:
                targets |= self.loans[base_place]
            elif base_place is not None:
                # A reference parameter: represent caller memory symbolically.
                targets.add((f"*{base_place[0]}", base_place[1]))
            else:
                for target in self._loan_targets(expr.base):
                    targets.add((f"*{target[0]}", target[1]))
            return targets
        if isinstance(expr, ast.FieldAccess):
            base_ty = expr.base.ty
            index = expr.field_index if expr.field_index is not None else expr.fld
            if not isinstance(index, int):
                return set()
            if isinstance(base_ty, RefType):
                # Auto-deref: project the field on every pointee.
                inner = self._loan_targets(ast.Deref(base=expr.base, span=expr.span))
                return {(name, path + (index,)) for name, path in inner}
            out = set()
            for name, path in self._loan_targets(expr.base):
                out.add((name, path + (index,)))
            return out
        return set()

    def _record_loans(self, dest: Optional[APlace], expr: ast.Expr) -> None:
        """Track which places a reference stored into ``dest`` may point to."""
        if dest is None:
            return
        if isinstance(expr, ast.Borrow):
            self.loans.setdefault(dest, set()).update(self._loan_targets(expr.place))
        elif isinstance(expr, (ast.Var, ast.FieldAccess)) and isinstance(expr.ty, RefType):
            src = self._as_place(expr)
            if src is not None and src in self.loans:
                self.loans.setdefault(dest, set()).update(self.loans[src])
        elif isinstance(expr, ast.Call) and isinstance(expr.ty, RefType):
            sig = self.checked.signatures.get(expr.func)
            if sig is None:
                return
            summary = summarize_signature(sig)
            for index in summary.params_tied_to_return:
                if index >= len(expr.args):
                    continue
                arg = expr.args[index]
                if isinstance(arg, ast.Borrow):
                    self.loans.setdefault(dest, set()).update(self._loan_targets(arg.place))
                else:
                    arg_place = self._as_place(arg)
                    if arg_place is not None and arg_place in self.loans:
                        self.loans.setdefault(dest, set()).update(self.loans[arg_place])

    # -- blocks and statements --------------------------------------------------------------

    def _analyze_block(self, block: ast.Block, theta: OxideTheta) -> Tuple[Deps, OxideTheta]:
        for stmt in block.stmts:
            theta = self._analyze_stmt(stmt, theta)
        if block.tail is not None:
            return self._analyze_expr(block.tail, theta)
        return EMPTY, theta

    def _analyze_stmt(self, stmt: ast.Stmt, theta: OxideTheta) -> OxideTheta:
        if isinstance(stmt, ast.LetStmt):
            deps: Deps = EMPTY
            if stmt.init is not None:
                deps, theta = self._analyze_expr(stmt.init, theta)
            ty = stmt.declared_ty or (stmt.init.ty if stmt.init is not None else None)
            if ty is None:
                ty = stmt.init.ty if stmt.init is not None else None
            # T-Let: every place rooted at the new binding starts with κ1.
            if ty is not None:
                for place, _ty in self._subplaces(stmt.name, self.checked.registry.resolve(ty)):
                    theta.set(place, deps)
            else:
                theta.set((stmt.name, ()), deps)
            if stmt.init is not None:
                self._record_loans((stmt.name, ()), stmt.init)
            return theta

        if isinstance(stmt, ast.AssignStmt):
            deps, theta = self._analyze_expr(stmt.value, theta)
            deps = deps | frozenset({stmt.node_id})
            targets = self._loan_targets(stmt.target)
            for target in targets:
                theta.update_conflicts(target, deps)
            direct = self._as_place(stmt.target)
            if direct is not None:
                self._record_loans(direct, stmt.value)
            return theta

        if isinstance(stmt, ast.ExprStmt):
            _deps, theta = self._analyze_expr(stmt.expr, theta)
            return theta

        if isinstance(stmt, ast.WhileStmt):
            return self._analyze_while(stmt, theta)

        if isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                deps, theta = self._analyze_expr(stmt.value, theta)
                theta.update_conflicts(("<return>", ()), deps | frozenset({stmt.node_id}))
            return theta

        if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            return theta

        raise AnalysisError(f"unsupported statement {type(stmt).__name__}")

    def _analyze_while(self, stmt: ast.WhileStmt, theta: OxideTheta) -> OxideTheta:
        """A loop is the fixpoint of the branch rule applied repeatedly."""
        current = theta
        for _ in range(self.max_loop_iterations):
            baseline = current.copy()
            cond_deps, after_cond = self._analyze_expr(stmt.cond, current.copy())
            _deps, after_body = self._analyze_block(stmt.body, after_cond)
            joined = baseline.join(after_body)
            # Control dependence: everything the body may have mutated picks
            # up the condition's dependencies (T-Branch).
            for place in joined.changed_places(baseline):
                joined.update_conflicts(place, cond_deps | frozenset({stmt.node_id}))
            if joined.equals(current):
                return joined
            current = joined
        return current

    # -- expressions ----------------------------------------------------------------------------

    def _analyze_expr(self, expr: ast.Expr, theta: OxideTheta) -> Tuple[Deps, OxideTheta]:
        label = frozenset({expr.node_id})

        if isinstance(expr, ast.Literal):
            # T-u32 and friends: a constant's dependency is itself.
            return label, theta

        if isinstance(expr, (ast.Var, ast.FieldAccess, ast.Deref)):
            # T-Move / T-Copy: look up every place the expression may denote.
            deps: Set[int] = set(label)
            targets = self._loan_targets(expr)
            for target in targets:
                deps |= theta.read_conflicts(target)
            if not targets and isinstance(expr, (ast.FieldAccess, ast.Deref)):
                # Projection out of a non-place base (e.g. `(a, b).0`): the
                # value depends on whatever the base expression depends on.
                base_deps, theta = self._analyze_expr(expr.base, theta)
                deps |= base_deps
            # Reading through a pointer also depends on the pointer itself.
            if isinstance(expr, ast.Deref):
                base_place = self._as_place(expr.base)
                if base_place is not None:
                    deps |= theta.read_conflicts(base_place)
            return frozenset(deps), theta

        if isinstance(expr, ast.Unary):
            deps, theta = self._analyze_expr(expr.operand, theta)
            return deps | label, theta

        if isinstance(expr, ast.Binary):
            lhs, theta = self._analyze_expr(expr.lhs, theta)
            rhs, theta = self._analyze_expr(expr.rhs, theta)
            return lhs | rhs | label, theta

        if isinstance(expr, ast.Borrow):
            # T-Borrow: carry the dependencies of the borrowed place.
            deps: Set[int] = set(label)
            for target in self._loan_targets(expr.place):
                deps |= theta.read_conflicts(target)
            return frozenset(deps), theta

        if isinstance(expr, ast.TupleExpr):
            deps = set(label)
            for element in expr.elements:
                element_deps, theta = self._analyze_expr(element, theta)
                deps |= element_deps
            return frozenset(deps), theta

        if isinstance(expr, ast.StructLit):
            deps = set(label)
            for _name, value in expr.fields:
                value_deps, theta = self._analyze_expr(value, theta)
                deps |= value_deps
            return frozenset(deps), theta

        if isinstance(expr, ast.If):
            return self._analyze_if(expr, theta)

        if isinstance(expr, ast.BlockExpr):
            return self._analyze_block(expr.block, theta)

        if isinstance(expr, ast.Call):
            return self._analyze_call(expr, theta)

        raise AnalysisError(f"unsupported expression {type(expr).__name__}")

    def _analyze_if(self, expr: ast.If, theta: OxideTheta) -> Tuple[Deps, OxideTheta]:
        cond_deps, theta1 = self._analyze_expr(expr.cond, theta)
        then_deps, theta2 = self._analyze_block(expr.then_block, theta1.copy())
        if expr.else_block is not None:
            else_deps, theta3 = self._analyze_block(expr.else_block, theta1.copy())
        else:
            else_deps, theta3 = EMPTY, theta1.copy()
        joined = theta2.join(theta3)
        # T-Branch: places mutated in either branch gain the condition's deps.
        for place in joined.changed_places(theta1):
            joined.update_conflicts(place, cond_deps | frozenset({expr.node_id}))
        return cond_deps | then_deps | else_deps | frozenset({expr.node_id}), joined

    def _analyze_call(self, expr: ast.Call, theta: OxideTheta) -> Tuple[Deps, OxideTheta]:
        """T-App: the modular approximation from the callee's signature."""
        sig = self.checked.signatures.get(expr.func)
        summary = summarize_signature(sig) if sig is not None else None

        arg_deps: Set[int] = set()
        arg_pointees: List[Set[APlace]] = []
        for index, arg in enumerate(expr.args):
            deps, theta = self._analyze_expr(arg, theta)
            arg_deps |= deps
            pointees: Set[APlace] = set()
            if summary is not None and index < len(expr.args):
                for _info in summary.all_refs_of_param(index):
                    if isinstance(arg, ast.Borrow):
                        pointees |= self._loan_targets(arg.place)
                    else:
                        arg_place = self._as_place(arg)
                        if arg_place is not None and arg_place in self.loans:
                            pointees |= self.loans[arg_place]
                        elif arg_place is not None:
                            pointees.add((f"*{arg_place[0]}", arg_place[1]))
            arg_pointees.append(pointees)
            for pointee in pointees:
                arg_deps |= theta.read_conflicts(pointee)

        kappa = frozenset(arg_deps) | frozenset({expr.node_id})

        if summary is not None:
            for index in range(len(expr.args)):
                refs = summary.mutable_refs_of_param(index)
                if not refs:
                    continue
                for pointee in arg_pointees[index]:
                    theta.update_conflicts(pointee, kappa)
        return kappa, theta


def analyze_function_oxide(checked: CheckedProgram, fn_name: str) -> OxideFlowResult:
    """Run the AST-level (Section 2) analysis on ``fn_name``."""
    return OxideFlowAnalysis(checked, fn_name).run()
