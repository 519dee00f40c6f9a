"""Per-function information flow analysis driver.

Ties the pieces together for one MIR body: build the alias oracle (precise or
ref-blind), compute control dependencies, seed the argument places with
synthetic dependency tags, and run the forward dataflow to fixpoint.  The
:class:`FunctionFlowResult` exposes everything the applications and the
evaluation need: Θ at any location, dependency-set sizes per variable at the
function exit (the paper's measurement unit), and backward/forward slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.borrowck.oracle import AliasOracle, make_oracle
from repro.borrowck.signatures import summarize_signature
from repro.core.config import AnalysisConfig
from repro.core.theta import (
    DependencyContext,
    IndexedDependencyContext,
    IndexedThetaLattice,
    ThetaLattice,
    arg_location,
    is_arg_location,
)
from repro.core.transfer import FlowTransfer, IndexedFlowTransfer
from repro.dataflow.bitset import popcount
from repro.dataflow.control_deps import compute_control_deps
from repro.dataflow.engine import FixpointResult, ForwardAnalysis
from repro.lang.ast import FnSig
from repro.mir.indices import BodyIndex, index_body
from repro.obs import metrics as obs_metrics
from repro.obs import stage as obs_stage
from repro.mir.ir import Body, Location, Place, RETURN_LOCAL

if TYPE_CHECKING:
    from repro.core.engine import RecursiveSummaryProvider


def argument_seed_places(body: Body) -> List[Tuple[int, Place]]:
    """``(parameter index, place)`` pairs seeded with argument tags at entry.

    Per parameter: the argument place itself, plus every place reachable by
    dereferencing a reference nested in the parameter's type.  Shared by
    both engine paths (and by the interning-table seeding) so the seeded key
    set is identical by construction.
    """
    summary = summarize_signature(body.signature)
    out: List[Tuple[int, Place]] = []
    for param_index, local in enumerate(body.arg_locals()):
        arg_place = Place.from_local(local.index)
        out.append((param_index, arg_place))
        for info in summary.all_refs_of_param(param_index):
            ref_place = arg_place
            for index in info.path:
                ref_place = ref_place.project_field(index)
            out.append((param_index, ref_place.project_deref()))
    return out


def _seed_arguments(body: Body) -> DependencyContext:
    """Initial Θ: each argument (and each place reachable through its
    references) is tagged with a synthetic per-parameter location.

    The tags serve two purposes: they let results express "this variable
    depends on parameter i", and they are how whole-program call summaries
    are read back out of a callee's exit state.
    """
    theta = DependencyContext()
    for param_index, place in argument_seed_places(body):
        theta.set(place, frozenset({arg_location(param_index)}))
    return theta


def _seed_arguments_indexed(
    domain: BodyIndex, seeds: List[Tuple[int, Place]]
) -> IndexedDependencyContext:
    """The same initial Θ over the indexed domain: one tag bit per row."""
    theta = IndexedDependencyContext(domain)
    place_index = domain.places.index
    location_index = domain.locations.index
    for param_index, place in seeds:
        theta.matrix.set_row(
            place_index(place), 1 << location_index(arg_location(param_index))
        )
    return theta


@dataclass
class FunctionFlowResult:
    """The outcome of analysing one function under one configuration."""

    body: Body
    config: AnalysisConfig
    oracle: AliasOracle
    transfer: FlowTransfer
    fixpoint: FixpointResult

    # -- states -----------------------------------------------------------------

    @property
    def exit_theta(self) -> DependencyContext:
        """Θ at the function exit: the join over all return blocks."""
        return self.fixpoint.exit_state

    def theta_at(self, location: Location) -> DependencyContext:
        return self.fixpoint.state_at(location)

    def theta_after(self, location: Location) -> DependencyContext:
        return self.fixpoint.state_after(location)

    # -- dependency sets ------------------------------------------------------------

    def deps_of_place(
        self, place: Place, location: Optional[Location] = None
    ) -> FrozenSet[Location]:
        theta = self.exit_theta if location is None else self.theta_at(location)
        resolved = self.oracle.resolve(place)
        return theta.read_many(resolved)

    def deps_of_variable(
        self, name: str, location: Optional[Location] = None
    ) -> FrozenSet[Location]:
        local = self.body.local_by_name(name)
        if local is None:
            raise KeyError(f"function {self.body.fn_name!r} has no variable {name!r}")
        return self.deps_of_place(Place.from_local(local.index), location)

    def deps_of_return(self) -> FrozenSet[Location]:
        return self.deps_of_place(Place.from_local(RETURN_LOCAL))

    def dependency_sizes(self) -> Dict[str, int]:
        """The evaluation metric of Section 5.1: for every MIR local (the
        paper analyses temporaries too), the size of its dependency set at
        the function exit, argument tags included.

        A temporary is labelled ``_<index>`` and the return place
        ``<return>``.  The bitset engine's rows are counted in place,
        without building a set.
        """
        theta = self.exit_theta
        if isinstance(theta, IndexedDependencyContext):
            base_index = theta.domain.places.base_index
            read_bits = theta.read_conflicts_bits

            def size(local: int) -> int:
                return popcount(read_bits(base_index(local)))

        else:

            def size(local: int) -> int:
                return len(theta.read_conflicts(Place.from_local(local)))

        out: Dict[str, int] = {}
        for local in self.body.locals:
            if local.index == RETURN_LOCAL:
                label = "<return>"
            else:
                label = local.name if local.name is not None else f"_{local.index}"
            out[label] = size(local.index)
        return out

    # -- slicing ----------------------------------------------------------------------

    def backward_slice(
        self, place: Place, location: Optional[Location] = None
    ) -> FrozenSet[Location]:
        """Locations that may influence the value of ``place``.

        Because Θ accumulates dependencies transitively (the dependencies of
        every operand are folded into each mutation), the backward slice is
        simply the dependency set of the place, minus the synthetic argument
        tags.
        """
        deps = self.deps_of_place(place, location)
        return frozenset(loc for loc in deps if not is_arg_location(loc))

    def backward_slice_of_variable(
        self, name: str, location: Optional[Location] = None
    ) -> FrozenSet[Location]:
        local = self.body.local_by_name(name)
        if local is None:
            raise KeyError(f"function {self.body.fn_name!r} has no variable {name!r}")
        return self.backward_slice(Place.from_local(local.index), location)

    def forward_slice(self, source: Location) -> FrozenSet[Location]:
        """Locations whose computed values may be influenced by ``source``.

        Computed by scanning every instruction and asking whether the place
        it writes depends on ``source`` immediately afterwards.
        """
        influenced: Set[Location] = set()
        for location in self.body.locations():
            written = self.body.written_place(location)
            if written is None:
                continue
            after = self.theta_after(location)
            if source in after.read_conflicts(written):
                influenced.add(location)
        influenced.add(source)
        return frozenset(influenced)

    # -- evaluation helpers ------------------------------------------------------------

    def boundary_call_locations(self) -> FrozenSet[Location]:
        """Call locations that cross a crate boundary (Section 5.4.2)."""
        return frozenset(self.transfer.boundary_call_locations)

    def variable_hits_boundary(self, name: str) -> bool:
        """Whether the variable's flow involves a cross-crate call."""
        deps = self.deps_of_variable(name)
        return bool(deps & self.transfer.boundary_call_locations)

    def annotations(self) -> Dict[Location, str]:
        """Per-location rendering of Θ entries, for Figure 1 style printouts."""
        out: Dict[Location, str] = {}
        for location in self.body.locations():
            written = self.body.written_place(location)
            if written is None:
                continue
            after = self.theta_after(location)
            deps = sorted(after.read_conflicts(written))
            rendered = ", ".join(
                f"arg{d.statement}" if is_arg_location(d) else d.pretty() for d in deps
            )
            out[location] = f"Θ({written.pretty(self.body)}) = {{{rendered}}}"
        return out


class FunctionFlowAnalysis:
    """Configures and runs the information flow analysis for one body."""

    def __init__(
        self,
        body: Body,
        signatures: Dict[str, FnSig],
        config: AnalysisConfig,
        provider: "RecursiveSummaryProvider",
    ):
        self.body = body
        self.signatures = signatures
        self.config = config
        self.provider = provider

    def run(self) -> FunctionFlowResult:
        with obs_stage("fixpoint", fn=self.body.fn_name, engine=self.config.engine) as sp:
            result = self._run()
        obs_metrics.get_registry().histogram(
            "fixpoint_iterations", buckets=obs_metrics.COUNT_BUCKETS,
            engine=self.config.engine,
        ).observe(result.fixpoint.iterations)
        if sp is not None:
            sp.set(iterations=result.fixpoint.iterations)
            theta = result.exit_theta
            if isinstance(theta, IndexedDependencyContext):
                places = len(theta.domain.places)
                locations = len(theta.domain.locations)
                sp.set(
                    places=places,
                    locations=locations,
                    density=round(theta.matrix.density(places, locations), 6),
                )
        return result

    def _run(self) -> FunctionFlowResult:
        control_deps = compute_control_deps(self.body)
        if self.config.engine == "object":
            oracle = make_oracle(self.body, self.signatures, ref_blind=self.config.ref_blind)
            transfer: FlowTransfer = FlowTransfer(
                body=self.body,
                config=self.config,
                oracle=oracle,
                control_deps=control_deps,
                signatures=self.signatures,
                provider=self.provider,
            )
            lattice = ThetaLattice()
            boundary_state = lambda body: _seed_arguments(body)
        else:
            seeds = argument_seed_places(self.body)
            domain = index_body(
                self.body, arg_seed_places=[place for _, place in seeds]
            )
            # The loan analysis interns into the same place table, so oracle
            # resolutions arrive already in the engine's index space.
            oracle = make_oracle(
                self.body,
                self.signatures,
                ref_blind=self.config.ref_blind,
                place_domain=domain.places,
            )
            transfer = IndexedFlowTransfer(
                body=self.body,
                config=self.config,
                oracle=oracle,
                control_deps=control_deps,
                signatures=self.signatures,
                provider=self.provider,
                domain=domain,
            )
            lattice = IndexedThetaLattice(domain)
            boundary_state = lambda body: _seed_arguments_indexed(domain, seeds)
        engine = ForwardAnalysis(
            lattice=lattice,
            transfer=transfer,
            boundary_state=boundary_state,
        )
        fixpoint = engine.run(self.body)
        return FunctionFlowResult(
            body=self.body,
            config=self.config,
            oracle=oracle,
            transfer=transfer,
            fixpoint=fixpoint,
        )
