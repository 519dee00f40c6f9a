"""A lightweight ownership-safety (borrow) checker over MIR.

The paper's analysis assumes its input already passed rustc's borrow checker:
ownership-safety is what makes the loan sets a sound pointer analysis
(Section 2.2) and what justifies the modular call rule (a callee cannot
mutate data it only received by shared reference).  This module provides the
corresponding substrate check for MiniRust so that (a) the corpus generator
and examples can be validated to respect ownership, and (b) users get
Rust-like errors instead of silently analysing programs the theory does not
cover.

The checker is a flow-sensitive pass over each MIR body that tracks, per
program point, the set of *live loans* (borrows whose reference may still be
used later) and reports:

* mutation of a place while a live shared or unique loan conflicts with it,
* creation of a unique borrow that conflicts with any live loan,
* creation of a shared borrow that conflicts with a live unique loan,
* reads through shared references are always allowed.

Liveness of a loan is approximated by the liveness of the reference-typed
local that holds it (a non-lexical-lifetimes-style approximation: a loan dies
at the last use of its reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import Diagnostic, Severity
from repro.lang.ast import FnSig
from repro.lang.types import Mutability, RefType
from repro.mir.ir import (
    Aggregate,
    BinaryOp,
    Body,
    CallTerminator,
    Copy,
    Location,
    Move,
    Operand,
    Place,
    Ref,
    Rvalue,
    Statement,
    StatementKind,
    SwitchBool,
    UnaryOp,
    Use,
)


@dataclass(frozen=True)
class Loan:
    """One live borrow: the borrowed place, its kind, and the holder local."""

    place: Place
    mutability: Mutability
    holder: int  # the local that received the reference
    location: Location

    def conflicts_with_place(self, other: Place) -> bool:
        return self.place.conflicts_with(other)


@dataclass
class BorrowViolation:
    """A detected ownership-safety violation."""

    kind: str
    message: str
    location: Location

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(Severity.ERROR, f"{self.kind}: {self.message}")


class BorrowChecker:
    """Checks one MIR body for ownership-safety violations."""

    def __init__(self, body: Body, signatures: Optional[Dict[str, FnSig]] = None):
        self.body = body
        self.signatures = signatures or {}
        self.violations: List[BorrowViolation] = []

    # -- liveness of reference locals ------------------------------------------

    def _last_use_of_local(self) -> Dict[int, Location]:
        """The last location at which each local is read (approximate NLL)."""
        last_use: Dict[int, Location] = {}

        def record_operand(operand: Operand, location: Location) -> None:
            place = operand.place()
            if place is not None:
                last_use[place.local] = max(last_use.get(place.local, location), location)

        for location in self.body.locations():
            instruction = self.body.instruction_at(location)
            if isinstance(instruction, Statement) and instruction.kind is StatementKind.ASSIGN:
                rvalue = instruction.rvalue
                assert rvalue is not None and instruction.place is not None
                for operand in rvalue.operands():
                    record_operand(operand, location)
                if isinstance(rvalue, Ref):
                    last_use[rvalue.referent.local] = max(
                        last_use.get(rvalue.referent.local, location), location
                    )
                # Writing through `(*r).f` is also a use of `r`.
                if instruction.place.has_deref():
                    last_use[instruction.place.local] = max(
                        last_use.get(instruction.place.local, location), location
                    )
            elif isinstance(instruction, CallTerminator):
                for operand in instruction.args:
                    record_operand(operand, location)
            elif isinstance(instruction, SwitchBool):
                record_operand(instruction.discr, location)
        return last_use

    # -- main pass -----------------------------------------------------------------

    def check(self) -> List[BorrowViolation]:
        """Run the checker and return all violations (also kept on ``self``)."""
        last_use = self._last_use_of_local()
        live_loans: Set[Loan] = set()

        def retire_dead_loans(location: Location) -> None:
            dead = {
                loan
                for loan in live_loans
                if last_use.get(loan.holder, loan.location) < location
            }
            live_loans.difference_update(dead)

        def check_mutation(place: Place, location: Location) -> None:
            if place.has_deref():
                # Writes through a reference exercise the loan itself; the
                # type checker already guarantees the reference is unique.
                return
            for loan in live_loans:
                if loan.holder == place.local:
                    continue
                if loan.conflicts_with_place(place):
                    self.violations.append(
                        BorrowViolation(
                            kind="assign-while-borrowed",
                            message=(
                                f"cannot assign to {place.pretty(self.body)} because it is "
                                f"borrowed ({loan.mutability}) at {loan.location.pretty()}"
                            ),
                            location=location,
                        )
                    )
                    return

        def check_new_loan(new_loan: Loan, location: Location) -> None:
            for loan in live_loans:
                if loan.holder == new_loan.holder:
                    continue
                if not loan.conflicts_with_place(new_loan.place):
                    continue
                if new_loan.mutability is Mutability.MUT or loan.mutability is Mutability.MUT:
                    self.violations.append(
                        BorrowViolation(
                            kind="conflicting-borrow",
                            message=(
                                f"cannot borrow {new_loan.place.pretty(self.body)} as "
                                f"{new_loan.mutability} because it is already borrowed "
                                f"({loan.mutability}) at {loan.location.pretty()}"
                            ),
                            location=location,
                        )
                    )
                    return

        # Iterate locations in order; this is a straight-line approximation
        # (loans created in different branches are merged conservatively by
        # keeping every loan live until its holder's last use).
        for location in sorted(self.body.locations()):
            retire_dead_loans(location)
            instruction = self.body.instruction_at(location)

            if isinstance(instruction, Statement) and instruction.kind is StatementKind.ASSIGN:
                assert instruction.place is not None and instruction.rvalue is not None
                rvalue = instruction.rvalue
                if isinstance(rvalue, Ref):
                    new_loan = Loan(
                        place=rvalue.referent,
                        mutability=rvalue.mutability,
                        holder=instruction.place.local,
                        location=location,
                    )
                    check_new_loan(new_loan, location)
                    live_loans.add(new_loan)
                check_mutation(instruction.place, location)

            elif isinstance(instruction, CallTerminator):
                check_mutation(instruction.destination, location)

        return self.violations


def check_body(body: Body, signatures: Optional[Dict[str, FnSig]] = None) -> List[BorrowViolation]:
    """Borrow-check one body and return its violations."""
    return BorrowChecker(body, signatures).check()


def check_all_bodies(lowered, signatures: Optional[Dict[str, FnSig]] = None) -> Dict[str, List[BorrowViolation]]:
    """Borrow-check every lowered body; returns only the offending functions."""
    out: Dict[str, List[BorrowViolation]] = {}
    for name, body in lowered.bodies.items():
        violations = check_body(body, signatures)
        if violations:
            out[name] = violations
    return out
