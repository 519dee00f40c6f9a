"""Call graph construction over lowered MIR bodies.

The incremental service keys each function's cached results by its callees
(:class:`~repro.service.cache.FingerprintIndex`) and walks the reverse edges
to find what an edit invalidates (:mod:`repro.service.invalidate`).  The graph
does not bound the whole-program analysis's recursion into callee bodies
(Section 5's ``Whole-program`` condition): the engine's
:class:`~repro.core.engine.RecursiveSummaryProvider` does, with its
in-progress set on call cycles and its depth budget on long chains.  The
evaluation harness also uses the graph to size the deep-call-graph
performance workload (the ``GameEngine::render`` style case from Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.mir.ir import Body, CallTerminator
from repro.mir.lower import LoweredProgram


@dataclass
class CallGraph:
    """A directed graph of function names with call-site multiplicity."""

    edges: Dict[str, List[str]] = field(default_factory=dict)
    nodes: Set[str] = field(default_factory=set)

    def add_node(self, name: str) -> None:
        self.nodes.add(name)
        self.edges.setdefault(name, [])

    def add_edge(self, caller: str, callee: str) -> None:
        self.add_node(caller)
        self.nodes.add(callee)
        self.edges[caller].append(callee)

    def callees(self, name: str) -> List[str]:
        return self.edges.get(name, [])

    def unique_callees(self, name: str) -> List[str]:
        return sorted(set(self.callees(name)))

    def callers(self, name: str) -> List[str]:
        return sorted(
            caller for caller, callees in self.edges.items() if name in callees
        )

    def reverse_edges(self) -> Dict[str, Set[str]]:
        """Callee → set of direct callers, built in one pass.

        The incremental service walks this map to find the functions whose
        whole-program results an edit can invalidate; building it once avoids
        the O(nodes × edges) cost of repeated :meth:`callers` queries.
        """
        reverse: Dict[str, Set[str]] = {name: set() for name in self.nodes}
        for caller, callees in self.edges.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        return reverse

    def transitive_callers(self, name: str) -> Set[str]:
        """All functions from which ``name`` is transitively reachable
        (excluding ``name`` itself unless it calls itself through a cycle)."""
        reverse = self.reverse_edges()
        seen: Set[str] = set()
        stack = list(reverse.get(name, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(reverse.get(current, ()))
        return seen

    def reachable_from(self, name: str) -> Set[str]:
        """All functions transitively reachable from ``name`` (including it)."""
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, []))
        return seen


def calls_in_body(body: Body) -> List[str]:
    """Names of functions called (syntactically) in ``body``."""
    return [
        block.terminator.func
        for block in body.blocks
        if isinstance(block.terminator, CallTerminator)
    ]


def build_call_graph(lowered: LoweredProgram) -> CallGraph:
    """Build the call graph over all lowered bodies.

    Extern functions appear as leaf nodes: they are part of the graph (so the
    evaluation can count crate-boundary crossings) but have no outgoing edges.
    """
    graph = CallGraph()
    for body in lowered.bodies.values():
        graph.add_node(body.fn_name)
        for callee in calls_in_body(body):
            graph.add_edge(body.fn_name, callee)
    return graph
