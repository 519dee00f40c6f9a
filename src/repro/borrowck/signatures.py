"""Signature summaries: what a function's type says about its behaviour.

This module is the heart of the paper's modularity argument (Section 2.3).
Given only a function signature, ownership types let us answer:

* **What can the callee mutate?**  Only data reachable through the
  argument's *transitive unique references* (``ω-refs`` with ``ω = uniq``).
* **What can the callee read?**  Data reachable through any transitive
  reference plus the argument values themselves (``shrd``-refs).
* **What can the return value alias?**  Only data whose lifetime appears in
  the return type — if the return type mentions lifetime ``'a`` then it can
  only point into arguments that also mention ``'a``.

These are exactly the facts :class:`SignatureSummary` exposes; the modular
transfer function for calls (T-App) and the loan propagation for call returns
are both built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang.ast import FnSig
from repro.lang.types import Mutability, RefType, StructType, TupleType, Type


@dataclass(frozen=True)
class RefInfo:
    """One reference nested inside a parameter (or return) type.

    ``path`` is the sequence of field indices from the parameter root down to
    the reference, so a parameter ``(u32, &'a mut T)`` has a ``RefInfo`` with
    ``path = (1,)``.  The empty path denotes the parameter itself being a
    reference.
    """

    path: Tuple[int, ...]
    mutability: Mutability
    lifetime: Optional[str]
    pointee: Type

    def is_mutable(self) -> bool:
        return self.mutability is Mutability.MUT


def _collect_refs(ty: Type, path: Tuple[int, ...] = ()) -> List[RefInfo]:
    """All references reachable in ``ty`` without crossing another reference.

    This mirrors the ``ω-refs`` metafunction from Section 2.3: base types
    contribute nothing, tuples/structs recurse per field, and a reference
    contributes itself.  We do not recurse *through* a reference here — the
    loan analysis handles indirection levels one at a time.
    """
    if isinstance(ty, RefType):
        return [RefInfo(path, ty.mutability, ty.lifetime, ty.pointee)]
    if isinstance(ty, TupleType):
        out: List[RefInfo] = []
        for index, element in enumerate(ty.elements):
            out.extend(_collect_refs(element, path + (index,)))
        return out
    if isinstance(ty, StructType) and not ty.opaque:
        out = []
        for index, (_, field_ty) in enumerate(ty.fields):
            out.extend(_collect_refs(field_ty, path + (index,)))
        return out
    return []


@dataclass
class SignatureSummary:
    """Everything the modular analysis may assume about a callee."""

    sig: FnSig
    # Per parameter (by index): the references nested in its type.
    param_refs: Dict[int, List[RefInfo]] = field(default_factory=dict)
    # References appearing in the return type.
    return_refs: List[RefInfo] = field(default_factory=list)
    # Parameter indices whose data the return value may alias.
    params_tied_to_return: Set[int] = field(default_factory=set)

    # -- mutation ---------------------------------------------------------------

    def mutable_refs_of_param(self, index: int) -> List[RefInfo]:
        """References through which parameter ``index`` can be mutated.

        With the *Mut-blind* ablation the caller treats every reference as
        mutable; that decision lives in the analysis configuration, not here.
        """
        return [info for info in self.param_refs.get(index, []) if info.is_mutable()]

    def all_refs_of_param(self, index: int) -> List[RefInfo]:
        return list(self.param_refs.get(index, []))

    def param_may_be_mutated(self, index: int) -> bool:
        return bool(self.mutable_refs_of_param(index))

    def mutated_param_indices(self) -> List[int]:
        return [i for i in range(self.sig.arity()) if self.param_may_be_mutated(i)]

    # -- aliasing of the return value -------------------------------------------

    def return_contains_ref(self) -> bool:
        return bool(self.return_refs)

    def return_alias_params(self) -> Set[int]:
        """Parameters whose pointees the return value may alias."""
        return set(self.params_tied_to_return)

    # -- readability --------------------------------------------------------------

    def readable_param_indices(self) -> List[int]:
        """Parameters whose data can influence the call (all of them).

        Listed for symmetry/documentation: the modular rule assumes every
        transitively readable place of every argument flows into every
        mutation and into the return value.
        """
        return list(range(self.sig.arity()))


def summarize_signature(sig: FnSig) -> SignatureSummary:
    """Build a :class:`SignatureSummary` for ``sig``.

    The lifetime-tie computation is where ownership earns its keep: the
    return value may only alias arguments whose types mention a lifetime that
    also occurs in the return type.  If the return type contains references
    whose lifetimes do not match any input lifetime (which can only happen
    for conservatively-elided signatures), we fall back to tying the return
    to *every* reference-carrying parameter — the sound default.
    """
    summary = SignatureSummary(sig=sig)
    for index, param_ty in enumerate(sig.param_types):
        summary.param_refs[index] = _collect_refs(param_ty)
    summary.return_refs = _collect_refs(sig.ret_type)

    if not summary.return_refs:
        return summary

    return_lifetimes = {
        info.lifetime for info in summary.return_refs if info.lifetime is not None
    }
    # Also include lifetimes nested deeper in the return type (e.g. a struct
    # of references): Type.lifetimes() walks everything.
    return_lifetimes.update(sig.ret_type.lifetimes())

    tied: Set[int] = set()
    if return_lifetimes:
        for index, param_ty in enumerate(sig.param_types):
            param_lifetimes = set(param_ty.lifetimes())
            if param_lifetimes & return_lifetimes:
                tied.add(index)

    if not tied:
        # Either lifetimes were omitted or nothing matched: assume the return
        # may alias any reference-typed input.
        tied = {
            index
            for index in range(sig.arity())
            if summary.param_refs.get(index)
        }

    summary.params_tied_to_return = tied
    return summary
