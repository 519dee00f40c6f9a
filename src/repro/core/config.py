"""Analysis configurations: the 2³ condition grid of the evaluation.

Section 5 of the paper evaluates three modifications of the baseline
(Modular) analysis:

* **Whole-program** — recursively analyse callee definitions when available
  (only within the crate under analysis),
* **Mut-blind** — ignore mutability qualifiers: assume any reference argument
  can be mutated by a call,
* **Ref-blind** — ignore lifetimes: assume any two references of the same
  type may alias.

Every combination is a valid :class:`AnalysisConfig`; the evaluation focuses
on the four conditions the paper reports (Modular, Whole-program, Mut-blind,
Ref-blind individually).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class AnalysisConfig:
    """Switches controlling how the information flow analysis treats calls
    and references."""

    whole_program: bool = False
    mut_blind: bool = False
    ref_blind: bool = False
    # Maximum recursion depth for whole-program callee analysis; cycles and
    # deeper chains fall back to the modular approximation.
    max_whole_program_depth: int = 32
    # When True (the default, matching Flowistry), assignments whose target
    # resolves to a single concrete place overwrite its dependencies instead
    # of accumulating them.  Exposed for the design-ablation benchmarks.
    strong_updates: bool = True
    # When True (the default), control dependencies of a mutation are added
    # to the mutated place's dependency set.
    track_control_deps: bool = True
    # Which dataflow substrate runs the analysis.  "bitset" (the default) is
    # the production engine: places/locations interned to dense ints, Θ
    # stored as an int-bitset matrix with in-place bitwise-or joins.
    # "object" is the Dict[Place, FrozenSet[Location]] domain, the test
    # referee the differential suite and the engine-equivalence oracle
    # check "bitset" against; both produce identical results on every query.
    engine: str = "bitset"

    def __post_init__(self) -> None:
        if self.engine not in ("bitset", "object"):
            raise ValueError(
                f"unknown analysis engine {self.engine!r} "
                "(expected 'bitset' or 'object')"
            )

    @property
    def name(self) -> str:
        return condition_name(self)

    def describe(self) -> str:
        parts = []
        parts.append("whole-program" if self.whole_program else "modular calls")
        parts.append("mut-blind" if self.mut_blind else "mutability-aware")
        parts.append("ref-blind" if self.ref_blind else "lifetime-aware")
        return ", ".join(parts)


MODULAR = AnalysisConfig()
WHOLE_PROGRAM = AnalysisConfig(whole_program=True)
MUT_BLIND = AnalysisConfig(mut_blind=True)
REF_BLIND = AnalysisConfig(ref_blind=True)


def condition_name(config: AnalysisConfig) -> str:
    """The paper's name for a configuration (e.g. ``Modular``, ``Mut-blind``)."""
    flags = []
    if config.whole_program:
        flags.append("Whole-program")
    if config.mut_blind:
        flags.append("Mut-blind")
    if config.ref_blind:
        flags.append("Ref-blind")
    if not flags:
        return "Modular"
    return "+".join(flags)


def all_conditions() -> List[AnalysisConfig]:
    """All 2³ = 8 combinations of the three modifications (Section 5.1)."""
    out: List[AnalysisConfig] = []
    for whole_program in (False, True):
        for mut_blind in (False, True):
            for ref_blind in (False, True):
                out.append(
                    AnalysisConfig(
                        whole_program=whole_program,
                        mut_blind=mut_blind,
                        ref_blind=ref_blind,
                    )
                )
    return out


def primary_conditions() -> List[AnalysisConfig]:
    """The four conditions the paper reports individually (Section 5.2)."""
    return [MODULAR, WHOLE_PROGRAM, MUT_BLIND, REF_BLIND]
