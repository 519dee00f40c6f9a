"""An information flow control (IFC) checker built on the analysis.

Reproduces the Figure 5b prototype.  In the paper, a library exposes
``Secure`` and ``Insecure`` traits; a compiler plugin then reports any flow
from a value whose type implements ``Secure`` into an operation marked
``Insecure``.  MiniRust has no traits, so the policy is expressed directly:

* *sources* are variables or struct types labelled ``SECRET``,
* *sinks* are functions labelled ``INSECURE`` (for example an
  ``insecure_print`` extern).

A violation is reported when any argument of a sink call — or the decision to
execute the sink call at all (an implicit flow through control dependence,
exactly the case in Figure 5b where the print is guarded by a password
comparison) — depends on a source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.analysis import FunctionFlowResult
from repro.core.engine import FlowEngine
from repro.core.theta import arg_location
from repro.mir.ir import Body, CallTerminator, Location, Place
from repro.lang.types import RefType, StructType, Type


class SecurityLabel(Enum):
    """The two-point lattice used by the checker."""

    PUBLIC = "public"
    SECRET = "secret"


@dataclass
class IfcPolicy:
    """What counts as secret data and as an insecure operation.

    ``secret_types``: struct names whose values are secret (the paper's
    ``Secure`` trait impls, e.g. ``Password``).
    ``secret_variables``: ``(function, variable)`` pairs or ``("*", name)``
    wildcards marking specific locals as secret.
    ``insecure_functions``: names of sink functions (the paper's
    ``Insecure`` operations, e.g. ``insecure_print``).
    ``declassified_functions``: calls through which flows are permitted
    (an escape hatch, like ``declassify`` in classic IFC systems).
    """

    secret_types: Set[str] = field(default_factory=set)
    secret_variables: Set[Tuple[str, str]] = field(default_factory=set)
    insecure_functions: Set[str] = field(default_factory=set)
    declassified_functions: Set[str] = field(default_factory=set)

    @classmethod
    def from_specs(
        cls,
        secret_types: Iterable[str] = (),
        secret_variables: Iterable[str] = (),
        sinks: Iterable[str] = (),
    ) -> "IfcPolicy":
        """A policy from string specs, as ``repro ifc`` and the ``ifc`` request
        take them: a secret variable is ``fn:var``, or a bare ``var`` for
        that name in every function (the ``*`` wildcard)."""
        policy = cls(secret_types=set(secret_types), insecure_functions=set(sinks))
        for spec in secret_variables:
            fn_name, colon, variable = spec.partition(":")
            policy.secret_variables.add((fn_name, variable) if colon else ("*", spec))
        return policy

    def mark_type_secret(self, type_name: str) -> "IfcPolicy":
        self.secret_types.add(type_name)
        return self

    def mark_variable_secret(self, fn_name: str, variable: str) -> "IfcPolicy":
        self.secret_variables.add((fn_name, variable))
        return self

    def mark_function_insecure(self, fn_name: str) -> "IfcPolicy":
        self.insecure_functions.add(fn_name)
        return self

    def is_variable_secret(self, fn_name: str, variable: str) -> bool:
        return (fn_name, variable) in self.secret_variables or ("*", variable) in self.secret_variables

    def type_is_secret(self, ty: Optional[Type]) -> bool:
        if ty is None:
            return False
        for component in ty.walk():
            if isinstance(component, StructType) and component.name in self.secret_types:
                return True
            if isinstance(component, RefType) and self.type_is_secret(component.pointee):
                return True
        return False


@dataclass(frozen=True)
class IfcViolation:
    """One flow from secret data into an insecure operation.

    ``line`` is the sink call's line, relative to ``unit`` when a
    multi-unit workspace names the unit that holds it.
    """

    fn_name: str
    sink_function: str
    sink_location: Location
    source_description: str
    via_control_flow: bool
    line: int = 0
    unit: Optional[str] = None

    def render(self) -> str:
        kind = "implicit (control) flow" if self.via_control_flow else "explicit data flow"
        where = f" at line {self.line}" if self.line else ""
        if self.unit is not None:
            where = f" in unit {self.unit!r}{where}"
        return (
            f"[{self.fn_name}] {kind} from {self.source_description} "
            f"into insecure operation `{self.sink_function}`{where}"
        )


def render_report(violations: List[IfcViolation]) -> str:
    """The checker's text report of ``violations``: a count, then one line
    per violation."""
    if not violations:
        return "ifc: no insecure flows detected"
    lines = [f"ifc: {len(violations)} insecure flow(s) detected"]
    for violation in violations:
        lines.append("  " + violation.render())
    return "\n".join(lines)


# Per call block of a body (its index as a string, a JSON key), the
# dependencies of each argument (``"args"``) and of the decision to make the
# call (``"control"``), as ``[block, statement]`` pairs; argument tags are
# ``[-2, i]``.
CallFlows = Dict[str, dict]


def call_flows(result: FunctionFlowResult) -> CallFlows:
    """Where the arguments and the control of each call of ``result``'s body
    come from: what a policy is checked against, and no part of a policy.

    Every call and every argument is covered, so one record serves any
    policy, and it is JSON, so the analysis service stores it as it is.
    Dependencies keep the order the analysis yields them in, so a check
    reports the same source from the record as from the result.
    """
    body = result.body
    transfer = result.transfer
    flows: CallFlows = {}
    for block_index, block in enumerate(body.blocks):
        terminator = block.terminator
        if not isinstance(terminator, CallTerminator):
            continue
        theta = result.theta_at(body.terminator_location(block_index))
        flows[str(block_index)] = {
            "args": [
                [list(dep) for dep in transfer.deps_of_operand(theta, arg)]
                for arg in terminator.args
            ],
            "control": [
                list(dep) for dep in transfer.control_dependencies(theta, block_index)
            ],
        }
    return flows


def _first_secret(deps: List[List[int]], secret_locations: Dict[Location, str]) -> Optional[str]:
    """The description of the first of ``deps`` that is a secret location."""
    for block, statement in deps:
        description = secret_locations.get(Location(block, statement))
        if description is not None:
            return description
    return None


class IfcChecker:
    """Checks every function of a program against an :class:`IfcPolicy`.

    ``engine`` analyses the program; the analysis service's session passes
    the one it already holds, and :meth:`from_source` runs the front end.
    A check is in two parts: :meth:`may_leak` tells whether a body needs its
    flows at all, and :meth:`violations` applies the policy to the flows
    :func:`call_flows` records.
    """

    def __init__(self, engine: FlowEngine, policy: IfcPolicy):
        self.engine = engine
        self.policy = policy
        # Secret places per function, found once for the checker's lifetime:
        # the guard and the check of one body both read them.
        self._secrets: Dict[str, Dict[Place, str]] = {}

    @classmethod
    def from_source(cls, source: str, policy: IfcPolicy) -> "IfcChecker":
        """A checker over the program ``source``, under the Modular condition."""
        return cls(FlowEngine.from_source(source), policy)

    # -- secret seeds ---------------------------------------------------------------

    def _secret_places(self, body: Body) -> Dict[Place, str]:
        """Places of the function that hold secret data, with labels."""
        fn_name = body.fn_name
        secrets = self._secrets.get(fn_name)
        if secrets is not None:
            return secrets
        secrets = self._secrets[fn_name] = {}
        for local in body.locals:
            place = Place.from_local(local.index)
            if local.name and self.policy.is_variable_secret(fn_name, local.name):
                secrets[place] = f"variable `{local.name}`"
            elif self.policy.type_is_secret(local.ty):
                label = local.name or f"_{local.index}"
                secrets[place] = f"value `{label}` of secret type {local.ty.pretty()}"
        return secrets

    def _secret_locations(self, body: Body, secrets: Dict[Place, str]) -> Dict[Location, str]:
        """Locations whose results are secret: writes to secret places plus
        the argument tags of secret parameters."""
        out: Dict[Location, str] = {}
        for location in body.locations():
            written = body.written_place(location)
            if written is None:
                continue
            for secret_place, description in secrets.items():
                if written.conflicts_with(secret_place):
                    out[location] = description
                    break
        for param_index, local in enumerate(body.arg_locals()):
            place = Place.from_local(local.index)
            if place in secrets:
                out[arg_location(param_index)] = secrets[place]
        return out

    def _sink_blocks(self, body: Body) -> List[int]:
        """The blocks of ``body`` that call a sink the policy does not
        declassify."""
        return [
            block_index
            for block_index, block in enumerate(body.blocks)
            if isinstance(block.terminator, CallTerminator)
            and block.terminator.func in self.policy.insecure_functions
            and block.terminator.func not in self.policy.declassified_functions
        ]

    # -- checking ----------------------------------------------------------------------

    def may_leak(self, body: Body) -> bool:
        """Whether ``body`` needs its flows checked.

        A flow can only leak at a call to a sink that is not declassified,
        and only from a secret place, so a body without both is not
        analysed at all.
        """
        return bool(self._sink_blocks(body)) and bool(self._secret_places(body))

    def violations(self, body: Body, flows: CallFlows) -> List[IfcViolation]:
        """The violations in ``body``, given its :func:`call_flows`."""
        secrets = self._secret_places(body)
        secret_locations = self._secret_locations(body, secrets)
        violations: List[IfcViolation] = []
        for block_index in self._sink_blocks(body):
            terminator = body.blocks[block_index].terminator
            flow = flows[str(block_index)]

            # Explicit flows: any argument's dependencies intersect a secret.
            explicit_source = None
            for arg, deps in zip(terminator.args, flow["args"]):
                explicit_source = _first_secret(deps, secret_locations)
                place = arg.place()
                if explicit_source is None and place is not None:
                    for secret_place, description in secrets.items():
                        if place.conflicts_with(secret_place):
                            explicit_source = description
                            break
                if explicit_source:
                    break

            # Implicit flows: the call is control-dependent on secret data.
            source = explicit_source or _first_secret(flow["control"], secret_locations)
            if source is None:
                continue
            violations.append(
                IfcViolation(
                    fn_name=body.fn_name,
                    sink_function=terminator.func,
                    sink_location=body.terminator_location(block_index),
                    source_description=source,
                    via_control_flow=explicit_source is None,
                    line=terminator.span.start_line if not terminator.span.is_dummy() else 0,
                )
            )
        return violations

    def check_function(self, fn_name: str) -> List[IfcViolation]:
        """The violations in ``fn_name``; a body that :meth:`may_leak` is
        analysed."""
        body = self.engine.lowered.bodies[fn_name]
        if not self.may_leak(body):
            return []
        return self.violations(body, call_flows(self.engine.analyze_function(fn_name)))

    def check_all(self) -> List[IfcViolation]:
        """Check every function of the local crate."""
        violations: List[IfcViolation] = []
        for name in self.engine.local_function_names():
            violations.extend(self.check_function(name))
        return violations
