"""Dataflow substrate: CFG utilities, dominators, control dependence, fixpoints.

Section 4.1 of the paper lists the classical machinery Flowistry reuses:

* a forward, flow-sensitive dataflow analysis iterated to fixpoint over a
  join-semilattice (:mod:`repro.dataflow.engine`),
* post-dominator trees computed with the algorithm of Cooper, Harvey and
  Kennedy (:mod:`repro.dataflow.dominators`),
* dominance frontiers in the style of Cytron et al., used to derive control
  dependence following Ferrante et al. (:mod:`repro.dataflow.control_deps`).
"""

from repro.dataflow.graph import CfgView, reverse_post_order
from repro.dataflow.dominators import DominatorTree, compute_dominators, compute_post_dominators
from repro.dataflow.control_deps import ControlDependencies, compute_control_deps
from repro.dataflow.engine import ForwardAnalysis, FixpointResult, JoinSemiLattice
from repro.dataflow.bitset import IndexMatrix, iter_bits, mask_of, popcount

__all__ = [
    "CfgView",
    "ControlDependencies",
    "DominatorTree",
    "FixpointResult",
    "ForwardAnalysis",
    "IndexMatrix",
    "JoinSemiLattice",
    "iter_bits",
    "mask_of",
    "popcount",
    "compute_control_deps",
    "compute_dominators",
    "compute_post_dominators",
    "reverse_post_order",
]
