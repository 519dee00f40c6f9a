"""The MIR transfer function for information flow.

This is the operational heart of the reproduction: the per-instruction state
update of the forward dataflow analysis described in Section 4.1, whose
formal counterparts are the typing rules of Section 2:

* assignments (``T-Assign`` / ``T-AssignDeref``): the mutated place's
  conflicts — resolved through the alias oracle when the place dereferences a
  pointer — receive the dependencies of the right-hand side, the instruction
  location, and the control dependencies of the enclosing block;
* calls (``T-App``): with only the callee's signature, every place reachable
  through a unique reference of an argument is assumed mutated with the
  collective dependencies of all transitively readable argument data, and the
  return value receives the same; with a whole-program summary, flows are
  translated parameter-by-parameter instead;
* borrows (``T-Borrow``): carry the dependencies of the borrowed place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.borrowck.oracle import AliasOracle
from repro.borrowck.signatures import SignatureSummary, summarize_signature
from repro.core.config import AnalysisConfig
from repro.core.summaries import CallSummaryProvider, ModularSummaryProvider, WholeProgramSummary
from repro.core.theta import EMPTY_DEPS, DependencyContext, IndexedDependencyContext
from repro.dataflow.control_deps import ControlDependencies
from repro.mir.indices import BodyIndex
from repro.lang.ast import FnSig
from repro.mir.ir import (
    Aggregate,
    BinaryOp,
    Body,
    CallTerminator,
    Constant,
    Location,
    Operand,
    Place,
    Ref,
    Rvalue,
    Statement,
    StatementKind,
    SwitchBool,
    Terminator,
    UnaryOp,
    Use,
)


@dataclass
class FlowTransfer:
    """Applies the effect of one MIR instruction to a dependency context Θ."""

    body: Body
    config: AnalysisConfig
    oracle: AliasOracle
    control_deps: ControlDependencies
    signatures: Dict[str, FnSig]
    provider: CallSummaryProvider = field(default_factory=ModularSummaryProvider)
    # Populated during the analysis: call locations that cross a crate
    # boundary (Section 5.4.2) and calls that fell back to the modular rule.
    boundary_call_locations: Set[Location] = field(default_factory=set)
    modular_fallback_locations: Set[Location] = field(default_factory=set)
    _sig_summaries: Dict[str, SignatureSummary] = field(default_factory=dict)

    # -- entry point -------------------------------------------------------------

    def __call__(self, state: DependencyContext, body: Body, location: Location) -> None:
        instruction = body.instruction_at(location)
        if isinstance(instruction, Statement):
            if instruction.kind is StatementKind.ASSIGN:
                assert instruction.place is not None and instruction.rvalue is not None
                self._transfer_assign(state, location, instruction.place, instruction.rvalue)
            return
        if isinstance(instruction, CallTerminator):
            self._transfer_call(state, location, instruction)
            return
        # Gotos, switches, and returns do not modify Θ directly; indirect
        # flows from switches are accounted for via control dependencies at
        # each mutation site.

    # -- reading dependencies ------------------------------------------------------

    def deps_of_place_read(self, state: DependencyContext, place: Place) -> FrozenSet[Location]:
        """Dependencies of reading ``place`` (T-Move / T-Copy).

        The read is resolved through the alias oracle (a dereference may
        denote several places) and gathered over conflicts; when the place
        dereferences a pointer, the pointer's own dependencies are included
        because *which* location is read depends on the pointer value.
        """
        resolved = self.oracle.resolve(place)
        deps = state.read_many(resolved)
        if place.has_deref():
            deps |= state.read_conflicts(place.base_local())
        return deps

    def deps_of_operand(self, state: DependencyContext, operand: Operand) -> FrozenSet[Location]:
        place = operand.place()
        if place is None:
            return EMPTY_DEPS
        return self.deps_of_place_read(state, place)

    def deps_of_rvalue(self, state: DependencyContext, rvalue: Rvalue) -> FrozenSet[Location]:
        if isinstance(rvalue, Ref):
            # T-Borrow: the borrow's dependencies are those of the places the
            # new reference may point to.
            return self.deps_of_place_read(state, rvalue.referent)
        deps: FrozenSet[Location] = EMPTY_DEPS
        for operand in rvalue.operands():
            deps |= self.deps_of_operand(state, operand)
        return deps

    # -- control dependence -----------------------------------------------------------

    def control_dependencies(
        self, state: DependencyContext, block: int
    ) -> FrozenSet[Location]:
        """Locations and discriminant dependencies of the switches controlling
        ``block`` (the indirect-flow component of Figure 1)."""
        if not self.config.track_control_deps:
            return frozenset()
        deps: Set[Location] = set()
        for controller in self.control_deps.controlling_blocks(block):
            terminator = self.body.blocks[controller].terminator
            deps.add(self.body.terminator_location(controller))
            if isinstance(terminator, SwitchBool):
                deps |= self.deps_of_operand(state, terminator.discr)
        return frozenset(deps)

    # -- mutation -----------------------------------------------------------------------

    def mutate(
        self,
        state: DependencyContext,
        target: Place,
        new_deps: FrozenSet[Location],
        force_weak: bool = False,
    ) -> None:
        """Update ``target`` (through the alias oracle) with ``new_deps``.

        A strong update — replacing rather than accumulating dependencies —
        is only sound when the mutated place is unambiguous: the target
        resolves to exactly one place.  Otherwise (or when strong updates are
        disabled for the ablation benches) the paper's additive
        ``update-conflicts`` is used.
        """
        resolved = self.oracle.resolve(target)
        strong = (
            self.config.strong_updates
            and not force_weak
            and len(resolved) == 1
        )
        for concrete in resolved:
            if strong:
                state.write_strong(concrete, new_deps)
            else:
                state.write_weak(concrete, new_deps)

    # -- statements ------------------------------------------------------------------------

    def _transfer_assign(
        self,
        state: DependencyContext,
        location: Location,
        place: Place,
        rvalue: Rvalue,
    ) -> None:
        control = self.control_dependencies(state, location.block)
        deps = set(self.deps_of_rvalue(state, rvalue))
        deps.add(location)
        deps |= control
        self.mutate(state, place, frozenset(deps))

        # Field-sensitive refinement for aggregate construction (the paper's
        # T-Let seeds every place within the new binding): each field of the
        # destination depends only on the operand stored into it, so a later
        # read of `t.0` does not see the dependencies of `t.1`.
        if isinstance(rvalue, Aggregate):
            resolved = self.oracle.resolve(place)
            if len(resolved) == 1:
                target = next(iter(resolved))
                base = frozenset({location}) | control
                for index, operand in enumerate(rvalue.ops):
                    field_deps = self.deps_of_operand(state, operand) | base
                    state.write_strong(target.project_field(index), field_deps)

    # -- calls -----------------------------------------------------------------------------

    def _sig_summary(self, callee: str) -> Optional[SignatureSummary]:
        if callee in self._sig_summaries:
            return self._sig_summaries[callee]
        sig = self.signatures.get(callee)
        if sig is None:
            return None
        summary = summarize_signature(sig)
        self._sig_summaries[callee] = summary
        return summary

    @staticmethod
    def _ref_place(arg_place: Place, path: Sequence[int]) -> Place:
        place = arg_place
        for index in path:
            place = place.project_field(index)
        return place

    def _arg_pointee_deps(
        self,
        state: DependencyContext,
        arg_place: Place,
        sig_summary: SignatureSummary,
        param_index: int,
    ) -> FrozenSet[Location]:
        """Dependencies of everything readable *through* an argument's refs."""
        deps: Set[Location] = set()
        for info in sig_summary.all_refs_of_param(param_index):
            ref_place = self._ref_place(arg_place, info.path)
            pointee = ref_place.project_deref()
            deps |= self.deps_of_place_read(state, pointee)
        return frozenset(deps)

    def _transfer_call(
        self, state: DependencyContext, location: Location, call: CallTerminator
    ) -> None:
        sig_summary = self._sig_summary(call.func)
        control = self.control_dependencies(state, location.block)

        if self.provider.is_crate_boundary(call.func):
            self.boundary_call_locations.add(location)

        # Per-argument dependency bundles.
        operand_deps: List[FrozenSet[Location]] = []
        pointee_deps: List[FrozenSet[Location]] = []
        arg_places: List[Optional[Place]] = []
        for index, arg in enumerate(call.args):
            operand_deps.append(self.deps_of_operand(state, arg))
            place = arg.place()
            arg_places.append(place)
            if place is not None and sig_summary is not None:
                pointee_deps.append(
                    self._arg_pointee_deps(state, place, sig_summary, index)
                )
            else:
                pointee_deps.append(frozenset())

        summary: Optional[WholeProgramSummary] = None
        if self.config.whole_program:
            summary = self.provider.summary_for(call.func)
            if summary is None:
                self.modular_fallback_locations.add(location)

        if summary is not None:
            self._apply_whole_program_call(
                state, location, call, summary, control, operand_deps, pointee_deps, arg_places
            )
        else:
            self._apply_modular_call(
                state, location, call, sig_summary, control, operand_deps, pointee_deps, arg_places
            )

    def _apply_modular_call(
        self,
        state: DependencyContext,
        location: Location,
        call: CallTerminator,
        sig_summary: Optional[SignatureSummary],
        control: FrozenSet[Location],
        operand_deps: List[FrozenSet[Location]],
        pointee_deps: List[FrozenSet[Location]],
        arg_places: List[Optional[Place]],
    ) -> None:
        """T-App with only the signature available (the paper's key rule)."""
        kappa_arg: Set[Location] = {location}
        kappa_arg |= control
        for deps in operand_deps:
            kappa_arg |= deps
        for deps in pointee_deps:
            kappa_arg |= deps
        kappa = frozenset(kappa_arg)

        # Every place reachable through a unique reference of an argument may
        # be mutated with all readable data as input.  Under Mut-blind, the
        # mutability qualifier is ignored and shared references are treated
        # the same way.
        if sig_summary is not None:
            for index, arg_place in enumerate(arg_places):
                if arg_place is None:
                    continue
                refs = (
                    sig_summary.all_refs_of_param(index)
                    if self.config.mut_blind
                    else sig_summary.mutable_refs_of_param(index)
                )
                for info in refs:
                    ref_place = self._ref_place(arg_place, info.path)
                    self.mutate(state, ref_place.project_deref(), kappa, force_weak=True)

        # The return value is assumed to depend on every readable input.
        self.mutate(state, call.destination, kappa)

    def _apply_whole_program_call(
        self,
        state: DependencyContext,
        location: Location,
        call: CallTerminator,
        summary: WholeProgramSummary,
        control: FrozenSet[Location],
        operand_deps: List[FrozenSet[Location]],
        pointee_deps: List[FrozenSet[Location]],
        arg_places: List[Optional[Place]],
    ) -> None:
        """Translate a recursively-computed callee summary to the call site."""

        def arg_bundle(indices: FrozenSet[int]) -> Set[Location]:
            deps: Set[Location] = set()
            for index in indices:
                if index < len(operand_deps):
                    deps |= operand_deps[index]
                    deps |= pointee_deps[index]
            return deps

        return_deps: Set[Location] = {location}
        return_deps |= control
        return_deps |= arg_bundle(summary.return_sources)
        self.mutate(state, call.destination, frozenset(return_deps))

        for (param_index, ref_path), sources in summary.mutations.items():
            if param_index >= len(arg_places):
                continue
            arg_place = arg_places[param_index]
            if arg_place is None:
                continue
            kappa: Set[Location] = {location}
            kappa |= control
            kappa |= arg_bundle(sources)
            target = self._ref_place(arg_place, ref_path).project_deref()
            self.mutate(state, target, frozenset(kappa), force_weak=True)


@dataclass
class IndexedFlowTransfer(FlowTransfer):
    """The transfer function over the indexed (bitset) dependency context.

    Semantically identical to :class:`FlowTransfer` — the differential test
    suite asserts result equality on the whole corpus — but every dependency
    set is a raw int bitset over the shared per-body
    :class:`~repro.mir.indices.BodyIndex`, so the per-instruction state
    update is bitwise arithmetic with zero set allocations.  Static
    structure is memoised across the fixpoint's repeated replays: alias
    resolutions per place, the location-bit component of each block's
    control dependencies, and the projected places of aggregate fields and
    callee reference paths.
    """

    domain: BodyIndex = None  # type: ignore[assignment]
    # id(place) -> (place, resolved place indices, deref base index or -1).
    # Keyed by identity: the places reaching the hot path are owned by the
    # body's statements or by this transfer's own caches, so they outlive
    # the analysis; keeping the place in the value pins that invariant.
    _resolve_cache: Dict[int, Tuple[Place, Tuple[int, ...], int]] = field(default_factory=dict)
    # Block -> (controlling terminator location bits, discriminant read indices).
    _control_cache: Dict[int, Tuple[int, Tuple[int, ...]]] = field(default_factory=dict)
    # (arg place, callee, param index, mutable_only) -> deref'd ref pointees.
    _pointee_cache: Dict[Tuple[Place, str, int, bool], Tuple[Place, ...]] = field(
        default_factory=dict
    )
    # Location -> compiled transfer plan (see _compile_location).
    _plans: Dict[Location, tuple] = field(default_factory=dict)
    # (id(call), param index, ref path) -> resolved weak-write target rows
    # of a whole-program summary mutation (the call is pinned by its plan).
    _mutation_cache: Dict[Tuple[int, int, Tuple[int, ...]], Tuple[int, ...]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        assert self.domain is not None, "IndexedFlowTransfer needs a BodyIndex"

    # -- the compiled hot path ---------------------------------------------------
    #
    # The fixpoint replays every location of a block each time the block
    # re-enters the worklist, but almost everything about an instruction's
    # effect is static: which rows a read gathers over (alias resolution),
    # which rows a write hits, whether the write is strong, the location
    # bit, the control-dependence skeleton of its block.  On first visit a
    # location is *compiled* into a flat tuple of pre-resolved indices;
    # every replay after that is bitwise arithmetic over the state matrix
    # with no isinstance dispatch, no Place hashing, and no allocation.
    #
    # Plan layouts:
    #   (0,)                      — no effect on Θ (nop/goto/switch/return)
    #   (1, reads, strong_target, weak_targets, loc_bit, agg, block)
    #                             — assignment: OR the rows of ``reads``,
    #                               add loc_bit and block control, write
    #                               strongly to ``strong_target`` (or weakly
    #                               to each of ``weak_targets`` when it is
    #                               -1); ``agg`` holds per-field
    #                               (read indices, target row) refinements
    #                               for uniquely-resolved aggregates.
    #   (2, call)                 — call terminator: the dynamic path
    #                               (summaries are provider-dependent).

    _NOP_PLAN = (0,)

    def __call__(self, state: IndexedDependencyContext, body: Body, location: Location) -> None:
        plan = self._plans.get(location)
        if plan is None:
            plan = self._compile_location(location)
            self._plans[location] = plan
        tag = plan[0]
        if tag == 0:
            return
        if tag == 1:
            _tag, reads, strong_target, weak_targets, loc_bit, agg, block = plan
            read_conflicts = state.read_conflicts_bits
            control = self._control_bits(state, block)
            bits = loc_bit | control
            for index in reads:
                bits |= read_conflicts(index)
            if strong_target >= 0:
                state.write_strong_bits(strong_target, bits)
            else:
                for target in weak_targets:
                    state.write_weak_bits(target, bits)
            if agg:
                base = loc_bit | control
                for field_reads, field_target in agg:
                    field_bits = base
                    for index in field_reads:
                        field_bits |= read_conflicts(index)
                    state.write_strong_bits(field_target, field_bits)
            return
        self._apply_call_plan(state, location, plan)

    def _read_indices(self, place: Place) -> Tuple[int, ...]:
        """The rows a read of ``place`` gathers conflicts over.

        ``read_many`` over the alias resolution is a union of per-row
        conflict reads, and the deref case adds one more row (the pointer's
        base local), so a whole place-read flattens to one index tuple.
        """
        _, resolved, base = self._place_info(place)
        if base < 0:
            return resolved
        return resolved + (base,)

    def _compile_location(self, location: Location) -> tuple:
        instruction = self.body.instruction_at(location)
        if isinstance(instruction, Statement):
            if instruction.kind is not StatementKind.ASSIGN:
                return self._NOP_PLAN
            place, rvalue = instruction.place, instruction.rvalue
            assert place is not None and rvalue is not None
            reads: List[int] = []
            if isinstance(rvalue, Ref):
                reads.extend(self._read_indices(rvalue.referent))
            else:
                for operand in rvalue.operands():
                    operand_place = operand.place()
                    if operand_place is not None:
                        reads.extend(self._read_indices(operand_place))
            _, resolved, _base = self._place_info(place)
            strong = self.config.strong_updates and len(resolved) == 1
            agg: Tuple[Tuple[Tuple[int, ...], int], ...] = ()
            if isinstance(rvalue, Aggregate) and len(resolved) == 1:
                target = resolved[0]
                field_plans = []
                for index, operand in enumerate(rvalue.ops):
                    operand_place = operand.place()
                    field_reads = (
                        self._read_indices(operand_place)
                        if operand_place is not None
                        else ()
                    )
                    field_plans.append(
                        (field_reads, self.domain.places.project_field_index(target, index))
                    )
                agg = tuple(field_plans)
            return (
                1,
                tuple(dict.fromkeys(reads)),
                resolved[0] if strong else -1,
                resolved,
                1 << self.domain.locations.index(location),
                agg,
                location.block,
            )
        if isinstance(instruction, CallTerminator):
            return self._compile_call(location, instruction)
        return self._NOP_PLAN

    def _compile_call(self, location: Location, call: CallTerminator) -> tuple:
        """Compile a call terminator's static structure.

        Per argument: the read indices of the operand itself and of every
        place reachable through the argument's references (the T-App input
        bundle).  For the modular rule additionally the pre-resolved weak
        write targets (pointees of unique — or, under Mut-blind, all —
        references).  Whether the callee has a whole-program summary stays
        dynamic: it depends on the provider (recursion depth, cycles,
        cache), so the summary lookup happens per application.
        """
        sig_summary = self._sig_summary(call.func)
        arg_places = tuple(arg.place() for arg in call.args)
        arg_reads = tuple(
            self._read_indices(place) if place is not None else ()
            for place in arg_places
        )
        pointee_reads: List[Tuple[int, ...]] = []
        for index, place in enumerate(arg_places):
            if place is None or sig_summary is None:
                pointee_reads.append(())
                continue
            reads: List[int] = []
            for pointee in self._ref_pointees(place, call.func, sig_summary, index, False):
                reads.extend(self._read_indices(pointee))
            pointee_reads.append(tuple(dict.fromkeys(reads)))

        mut_targets: List[Tuple[int, ...]] = []
        if sig_summary is not None:
            mutable_only = not self.config.mut_blind
            for index, place in enumerate(arg_places):
                if place is None:
                    continue
                for pointee in self._ref_pointees(
                    place, call.func, sig_summary, index, mutable_only
                ):
                    _, resolved, _base = self._place_info(pointee)
                    mut_targets.append(resolved)

        _, dest_resolved, _base = self._place_info(call.destination)
        dest_strong = self.config.strong_updates and len(dest_resolved) == 1
        return (
            2,
            call,
            1 << self.domain.locations.index(location),
            location.block,
            arg_places,
            arg_reads,
            tuple(pointee_reads),
            tuple(mut_targets),
            dest_resolved,
            dest_strong,
            self.provider.is_crate_boundary(call.func),
        )

    def _apply_call_plan(
        self, state: IndexedDependencyContext, location: Location, plan: tuple
    ) -> None:
        (
            _tag,
            call,
            loc_bit,
            block,
            arg_places,
            arg_reads,
            pointee_reads,
            mut_targets,
            dest_resolved,
            dest_strong,
            boundary,
        ) = plan
        if boundary:
            self.boundary_call_locations.add(location)
        control = self._control_bits(state, block)
        read_conflicts = state.read_conflicts_bits

        operand_bits: List[int] = []
        pointee_bits: List[int] = []
        for reads, pointees in zip(arg_reads, pointee_reads):
            bits = 0
            for index in reads:
                bits |= read_conflicts(index)
            operand_bits.append(bits)
            bits = 0
            for index in pointees:
                bits |= read_conflicts(index)
            pointee_bits.append(bits)

        summary: Optional[WholeProgramSummary] = None
        if self.config.whole_program:
            summary = self.provider.summary_for(call.func)
            if summary is None:
                self.modular_fallback_locations.add(location)

        if summary is not None:
            self._apply_whole_program_plan(
                state, call, loc_bit, control, summary, arg_places, operand_bits, pointee_bits,
                dest_resolved, dest_strong,
            )
            return

        # The modular rule (T-App from the signature alone).
        kappa = loc_bit | control
        for bits in operand_bits:
            kappa |= bits
        for bits in pointee_bits:
            kappa |= bits
        for targets in mut_targets:
            for target in targets:
                state.write_weak_bits(target, kappa)
        if dest_strong:
            state.write_strong_bits(dest_resolved[0], kappa)
        else:
            for target in dest_resolved:
                state.write_weak_bits(target, kappa)

    def _apply_whole_program_plan(
        self,
        state: IndexedDependencyContext,
        call: CallTerminator,
        loc_bit: int,
        control: int,
        summary: WholeProgramSummary,
        arg_places: Tuple[Optional[Place], ...],
        operand_bits: List[int],
        pointee_bits: List[int],
        dest_resolved: Tuple[int, ...],
        dest_strong: bool,
    ) -> None:
        """Translate a recursively-computed callee summary to the call site."""

        def arg_bundle(indices: FrozenSet[int]) -> int:
            bits = 0
            for index in indices:
                if index < len(operand_bits):
                    bits |= operand_bits[index] | pointee_bits[index]
            return bits

        return_bits = loc_bit | control | arg_bundle(summary.return_sources)
        if dest_strong:
            state.write_strong_bits(dest_resolved[0], return_bits)
        else:
            for target in dest_resolved:
                state.write_weak_bits(target, return_bits)

        for (param_index, ref_path), sources in summary.mutations.items():
            if param_index >= len(arg_places):
                continue
            arg_place = arg_places[param_index]
            if arg_place is None:
                continue
            kappa = loc_bit | control | arg_bundle(sources)
            target = self._mutation_target(call, param_index, ref_path, arg_place)
            for index in target:
                state.write_weak_bits(index, kappa)

    def _mutation_target(
        self,
        call: CallTerminator,
        param_index: int,
        ref_path: Tuple[int, ...],
        arg_place: Place,
    ) -> Tuple[int, ...]:
        """Pre-resolved weak-write targets of one summary mutation."""
        key = (id(call), param_index, ref_path)
        resolved = self._mutation_cache.get(key)
        if resolved is None:
            place = self._ref_place(arg_place, ref_path).project_deref()
            _, resolved, _base = self._place_info(place)
            self._mutation_cache[key] = resolved
        return resolved

    def _control_bits(self, state: IndexedDependencyContext, block: int) -> int:
        """Control dependencies of ``block``: static terminator-location bits
        plus the (state-dependent) reads of the controlling discriminants."""
        cached = self._control_cache.get(block)
        if cached is None:
            cached = self._compile_control(block)
            self._control_cache[block] = cached
        bits, reads = cached
        if reads:
            read_conflicts = state.read_conflicts_bits
            for index in reads:
                bits |= read_conflicts(index)
        return bits

    def _compile_control(self, block: int) -> Tuple[int, Tuple[int, ...]]:
        if not self.config.track_control_deps:
            return (0, ())
        location_bits = 0
        reads: List[int] = []
        for controller in self.control_deps.controlling_blocks(block):
            terminator = self.body.blocks[controller].terminator
            location_bits |= 1 << self.domain.locations.index(
                self.body.terminator_location(controller)
            )
            if isinstance(terminator, SwitchBool):
                discr_place = terminator.discr.place()
                if discr_place is not None:
                    reads.extend(self._read_indices(discr_place))
        return (location_bits, tuple(dict.fromkeys(reads)))

    # -- reading dependencies (index form) ---------------------------------------

    def _place_info(self, place: Place) -> Tuple[Place, Tuple[int, ...], int]:
        """Memoised alias resolution: (place, resolved indices, deref base)."""
        info = self._resolve_cache.get(id(place))
        if info is None:
            resolved = self.oracle.resolve_indices(place, self.domain.places)
            base = (
                self.domain.places.base_index(place.local)
                if place.has_deref()
                else -1
            )
            info = (place, resolved, base)
            self._resolve_cache[id(place)] = info
        return info

    def deps_of_place_read_bits(self, state: IndexedDependencyContext, place: Place) -> int:
        _, resolved, base = self._place_info(place)
        bits = state.read_many_bits(resolved)
        if base >= 0:
            bits |= state.read_conflicts_bits(base)
        return bits

    def deps_of_operand_bits(self, state: IndexedDependencyContext, operand: Operand) -> int:
        place = operand.place()
        if place is None:
            return 0
        return self.deps_of_place_read_bits(state, place)

    def deps_of_rvalue_bits(self, state: IndexedDependencyContext, rvalue: Rvalue) -> int:
        if isinstance(rvalue, Ref):
            return self.deps_of_place_read_bits(state, rvalue.referent)
        bits = 0
        for operand in rvalue.operands():
            bits |= self.deps_of_operand_bits(state, operand)
        return bits

    # -- mutation ----------------------------------------------------------------

    def mutate_bits(
        self,
        state: IndexedDependencyContext,
        target: Place,
        new_bits: int,
        force_weak: bool = False,
    ) -> None:
        _, resolved, _base = self._place_info(target)
        if self.config.strong_updates and not force_weak and len(resolved) == 1:
            state.write_strong_bits(resolved[0], new_bits)
        else:
            for concrete in resolved:
                state.write_weak_bits(concrete, new_bits)

    # -- statements --------------------------------------------------------------

    # -- calls -------------------------------------------------------------------

    def _ref_pointees(
        self,
        arg_place: Place,
        callee: str,
        sig_summary: SignatureSummary,
        param_index: int,
        mutable_only: bool,
    ) -> Tuple[Place, ...]:
        """Memoised deref'd reference pointees of one call argument."""
        key = (arg_place, callee, param_index, mutable_only)
        places = self._pointee_cache.get(key)
        if places is None:
            refs = (
                sig_summary.mutable_refs_of_param(param_index)
                if mutable_only
                else sig_summary.all_refs_of_param(param_index)
            )
            places = tuple(
                self._ref_place(arg_place, info.path).project_deref() for info in refs
            )
            self._pointee_cache[key] = places
        return places
