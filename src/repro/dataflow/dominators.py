"""Dominator and post-dominator trees (Cooper, Harvey & Kennedy 2001).

The paper computes control dependence from the post-dominator tree and its
frontier ("we compute control-dependencies by generating the post-dominator
tree and frontier of the CFG using the algorithms of Cooper et al. and Cytron
et al.", Section 4.1).  This module implements exactly those two algorithms
over the :class:`~repro.dataflow.graph.CfgView` abstraction so they can run
on either the forward CFG (dominators) or the exit-augmented reverse CFG
(post-dominators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.dataflow.graph import CfgView, VIRTUAL_EXIT, exit_augmented_cfg, forward_cfg, reverse_post_order
from repro.mir.ir import Body


@dataclass
class DominatorTree:
    """An immediate-dominator tree plus the derived dominance frontier."""

    entry: int
    idom: Dict[int, Optional[int]] = field(default_factory=dict)
    frontier: Dict[int, Set[int]] = field(default_factory=dict)

    def dominates(self, a: int, b: int) -> bool:
        """Whether ``a`` dominates ``b`` (reflexively)."""
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            if node == self.entry and node != a:
                return False
            node = self.idom.get(node)
        return False

    def children(self, node: int) -> List[int]:
        return sorted(n for n, parent in self.idom.items() if parent == node and n != node)

    def dominators_of(self, node: int) -> List[int]:
        """All dominators of ``node``, from the node itself up to the entry."""
        out: List[int] = []
        current: Optional[int] = node
        seen: Set[int] = set()
        while current is not None and current not in seen:
            out.append(current)
            seen.add(current)
            if current == self.entry:
                break
            current = self.idom.get(current)
        return out


def _compute_idoms(view: CfgView) -> Dict[int, Optional[int]]:
    """Cooper-Harvey-Kennedy iterative immediate-dominator computation."""
    order = reverse_post_order(view)
    index_of = {node: i for i, node in enumerate(order)}
    idom: Dict[int, Optional[int]] = {node: None for node in order}
    idom[view.entry] = view.entry

    def intersect(a: int, b: int) -> int:
        finger_a, finger_b = a, b
        while finger_a != finger_b:
            while index_of[finger_a] > index_of[finger_b]:
                finger_a = idom[finger_a]  # type: ignore[assignment]
            while index_of[finger_b] > index_of[finger_a]:
                finger_b = idom[finger_b]  # type: ignore[assignment]
        return finger_a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == view.entry:
                continue
            new_idom: Optional[int] = None
            for pred in view.pred(node):
                if pred not in index_of:
                    continue  # unreachable predecessor
                if idom.get(pred) is None:
                    continue
                if new_idom is None:
                    new_idom = pred
                else:
                    new_idom = intersect(pred, new_idom)
            if new_idom is not None and idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def _compute_frontier(view: CfgView, idom: Dict[int, Optional[int]]) -> Dict[int, Set[int]]:
    """Cytron et al. dominance frontier over the same view."""
    frontier: Dict[int, Set[int]] = {node: set() for node in idom}
    for node in idom:
        preds = [p for p in view.pred(node) if p in idom]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner: Optional[int] = pred
            while runner is not None and runner != idom[node] and runner in idom:
                frontier[runner].add(node)
                if runner == idom.get(runner):
                    break
                runner = idom.get(runner)
    return frontier


def compute_dominators_view(view: CfgView) -> DominatorTree:
    """Dominator tree of an arbitrary CFG view."""
    idom = _compute_idoms(view)
    frontier = _compute_frontier(view, idom)
    return DominatorTree(entry=view.entry, idom=idom, frontier=frontier)


def compute_dominators(body: Body) -> DominatorTree:
    """Dominator tree of a MIR body's forward CFG."""
    return compute_dominators_view(forward_cfg(body))


def compute_post_dominators(body: Body) -> DominatorTree:
    """Post-dominator tree of a MIR body.

    Computed as the dominator tree of the reverse CFG rooted at a virtual
    exit node that all ``return`` blocks feed into.  Panic edges do not exist
    in our MIR, which matches the paper's choice to exclude panics from
    control dependence.
    """
    augmented = exit_augmented_cfg(body)
    reverse = CfgView(
        entry=VIRTUAL_EXIT,
        successors={n: list(p) for n, p in augmented.predecessors.items()},
        predecessors={n: list(s) for n, s in augmented.successors.items()},
    )
    return compute_dominators_view(reverse)
