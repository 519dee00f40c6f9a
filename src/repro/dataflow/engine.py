"""The forward dataflow engine over Θ's join-semilattice.

The information flow analysis of Section 4.1 is "a flow-sensitive, forward
dataflow analysis pass" whose state (the dependency context Θ) forms a
join-semilattice under key-wise set union; iteration to fixpoint is
guaranteed to terminate because each function has finitely many places and
locations.  This engine runs that pass for both Θ domains: the core analysis
supplies the lattice and the transfer function, and the engine detects
change through the lattice's in-place join alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generic, List, Optional, Protocol, TypeVar

from repro.dataflow.graph import forward_cfg, reverse_post_order
from repro.mir.ir import Body, Location


S = TypeVar("S")

# Block visits after which a run is reported as not converging.
MAX_ITERATIONS = 10_000


class JoinSemiLattice(Protocol[S]):
    """The operations the engine needs from a dataflow domain."""

    def bottom(self) -> S:
        """The least element (initial state of unvisited blocks)."""

    def join_into(self, target: S, source: S) -> bool:
        """Union ``source`` into ``target`` in place; True exactly when
        ``target`` grew (the dirty bit the run detects change by)."""

    def copy(self, state: S) -> S:
        """An independent copy of a state that transfer functions may mutate."""


class TransferFunction(Protocol[S]):
    """Applies the effect of one CFG location to a state, in place."""

    def __call__(self, state: S, body: Body, location: Location) -> None: ...


@dataclass
class FixpointResult(Generic[S]):
    """Per-block entry states, the function's exit state, and on-demand
    recomputation inside blocks."""

    body: Body
    lattice: JoinSemiLattice
    transfer: TransferFunction
    entry_states: Dict[int, S]
    # The join of the return blocks' final out-states.
    exit_state: S
    iterations: int

    def state_at(self, location: Location) -> S:
        """The state *before* executing the instruction at ``location``."""
        state = self.lattice.copy(self.entry_states[location.block])
        for stmt_index in range(location.statement):
            self.transfer(state, self.body, Location(location.block, stmt_index))
        return state

    def state_after(self, location: Location) -> S:
        """The state *after* executing the instruction at ``location``."""
        state = self.state_at(location)
        self.transfer(state, self.body, location)
        return state


class ForwardAnalysis(Generic[S]):
    """Runs a forward dataflow analysis to fixpoint over a MIR body."""

    def __init__(
        self,
        lattice: JoinSemiLattice,
        transfer: TransferFunction,
        boundary_state: Optional[Callable[[Body], S]] = None,
    ):
        self.lattice = lattice
        self.transfer = transfer
        self.boundary_state = boundary_state

    def run(self, body: Body) -> FixpointResult[S]:
        lattice = self.lattice
        join_into = lattice.join_into
        view = forward_cfg(body)
        order = reverse_post_order(view)
        position = {block: i for i, block in enumerate(order)}

        entry_states: Dict[int, S] = {
            block: lattice.bottom() for block in range(len(body.blocks))
        }
        if self.boundary_state is not None:
            entry_states[0] = self.boundary_state(body)

        # Worklist initialised in reverse post-order so most blocks see their
        # predecessors' final states on the first pass.
        worklist: List[int] = list(order)
        in_worklist = set(worklist)
        iterations = 0
        # The out-state of a return block's *last* processing is its final
        # exit state; only those blocks' out-states are kept.
        return_blocks = body.return_blocks()
        return_exits: Dict[int, Optional[S]] = dict.fromkeys(return_blocks)

        # Locations are revisited every time a block re-enters the worklist:
        # construct each exactly once.
        block_locations: List[List[Location]] = [
            [Location(index, stmt) for stmt in range(block.num_locations())]
            for index, block in enumerate(body.blocks)
        ]

        while worklist:
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise RuntimeError(
                    f"dataflow analysis did not converge on {body.fn_name!r}"
                )
            block_index = worklist.pop(0)
            in_worklist.discard(block_index)

            state = lattice.copy(entry_states[block_index])
            block = body.blocks[block_index]
            for location in block_locations[block_index]:
                self.transfer(state, body, location)
            if block_index in return_exits:
                return_exits[block_index] = state

            for successor in block.terminator.successors():
                if join_into(entry_states[successor], state) and (
                    successor not in in_worklist
                ):
                    # Insert keeping rough reverse post-order priority.
                    in_worklist.add(successor)
                    worklist.append(successor)
                    worklist.sort(key=lambda b: position.get(b, len(position)))

        exit_state = lattice.bottom()
        for block_index in return_blocks:
            state = return_exits[block_index]
            if state is None:
                # A return block the run never reached: replay it from its
                # (bottom) entry state.
                state = lattice.copy(entry_states[block_index])
                for location in block_locations[block_index]:
                    self.transfer(state, body, location)
            join_into(exit_state, state)

        return FixpointResult(
            body=body,
            lattice=lattice,
            transfer=self.transfer,
            entry_states=entry_states,
            exit_state=exit_state,
            iterations=iterations,
        )
