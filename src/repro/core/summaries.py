"""Whole-program call summaries: what a callee's body does with its arguments.

The paper's central question (Section 2.3) is what to assume about a call
``f(args)`` given only ``f``'s type signature.  The modular answer:

* every place reachable through a *unique* (``&mut``) reference of an
  argument may be mutated,
* every transitively readable place of every argument is an input to every
  such mutation and to the return value.

The **Whole-program** evaluation condition instead analyses the callee's body
(when it is available inside the crate under analysis) and translates flows
between the callee's parameters into flows between the caller's arguments.
:class:`WholeProgramSummary` is that translated form: per output (the return
value or a mutated parameter reference) the set of parameter indices whose
data flows into it.

The summary of a callee is produced by running the very analysis that
consumes summaries, so the recursion that computes them lives with the
engine: :class:`~repro.core.engine.RecursiveSummaryProvider` analyses callee
bodies on demand and reads each summary out of the callee's exit state with
:func:`summary_from_exit_state`.  The modular rule needs no summary: the
transfer function applies it from the callee's signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Tuple

from repro.core.theta import DependencyContext, is_arg_location
from repro.mir.ir import Body, Place, RETURN_LOCAL


# A mutation output: (parameter index, field path to the mutated reference
# within that parameter's type).  The empty path means the parameter itself
# is the mutated reference.
MutationKey = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class WholeProgramSummary:
    """Parameter-level flow summary of one analysed callee.

    ``return_sources`` lists the parameter indices whose data flows into the
    callee's return value.  ``mutations`` maps each mutated parameter
    reference to the parameter indices flowing into that mutation; a
    parameter that the callee never actually writes through simply does not
    appear — this is exactly what makes Whole-program more precise than the
    modular approximation for functions like ``crop`` (Section 5.3.1).
    """

    callee: str
    return_sources: FrozenSet[int] = frozenset()
    mutations: Dict[MutationKey, FrozenSet[int]] = field(default_factory=dict)

    def mutated_params(self) -> Set[int]:
        return {param for param, _path in self.mutations}

    def pretty(self) -> str:
        lines = [f"summary of {self.callee}:"]
        rets = ", ".join(f"arg{i}" for i in sorted(self.return_sources)) or "(constants only)"
        lines.append(f"  return <- {rets}")
        for (param, path), sources in sorted(self.mutations.items()):
            path_str = "".join(f".{i}" for i in path)
            srcs = ", ".join(f"arg{i}" for i in sorted(sources)) or "(constants only)"
            lines.append(f"  *arg{param}{path_str} <- {srcs}")
        return "\n".join(lines)


def summary_from_exit_state(
    body: Body,
    exit_theta: DependencyContext,
    mutable_ref_paths: Dict[int, Tuple[Tuple[int, ...], ...]],
) -> WholeProgramSummary:
    """Translate a callee's exit Θ into a parameter-level summary.

    The callee must have been analysed with its arguments seeded with the
    synthetic ``arg_location`` tags (the analysis driver always does this).
    ``mutable_ref_paths`` lists, per parameter index, the field paths of the
    references through which that parameter could be mutated — the summary
    only reports those, because anything else is invisible to the caller.
    """

    def sources_of(place: Place) -> FrozenSet[int]:
        deps = exit_theta.read_conflicts(place)
        return frozenset(loc.statement for loc in deps if is_arg_location(loc))

    return_sources = sources_of(Place.from_local(RETURN_LOCAL))

    mutations: Dict[MutationKey, FrozenSet[int]] = {}
    for param_index, ref_paths in mutable_ref_paths.items():
        arg_place = Place.from_local(param_index + 1)  # locals _1.. are the args
        for path in ref_paths:
            ref_place = arg_place
            for index in path:
                ref_place = ref_place.project_field(index)
            pointee = ref_place.project_deref()
            deps = exit_theta.read_conflicts(pointee)
            # The pointee was seeded with its own arg tag; a mutation happened
            # only if some *real* location (or another argument's tag) was
            # added on top of the seed.
            non_seed = {
                loc
                for loc in deps
                if not (is_arg_location(loc) and loc.statement == param_index)
            }
            if not non_seed:
                continue
            sources = frozenset(
                loc.statement for loc in non_seed if is_arg_location(loc)
            )
            mutations[(param_index, path)] = sources

    return WholeProgramSummary(
        callee=body.fn_name,
        return_sources=return_sources,
        mutations=mutations,
    )
