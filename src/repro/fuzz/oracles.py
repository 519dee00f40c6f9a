"""The metamorphic/differential oracle battery.

Every generated program is run through five oracles, each checking one
property the rest of the system promises:

* ``validate`` — the full pipeline (parse → typecheck → lower) succeeds and
  every lowered body passes MIR structural validation *and* the span-fidelity
  pass (:mod:`repro.mir.validate`).  Any crash in any oracle is also folded
  into a failing verdict, so this doubles as the crash oracle.
* ``engine_equivalence`` — the indexed bitset engine and the object referee
  engine agree byte-for-byte (dependency sizes and exit-Θ entries) on every
  local function, under both the Modular and Whole-program conditions.
* ``cache_equality`` — analysing the program through
  :class:`~repro.service.session.AnalysisSession` twice over one shared
  store (cold, then warm) yields byte-identical canonical JSON, and the warm
  pass actually hits the cache.
* ``noninterference`` — the interpreter-backed soundness check (Theorem
  3.1): perturbing arguments *outside* the computed dependency set of the
  return value never changes the observed result.
* ``focus_agreement`` — the precomputed all-places
  :class:`~repro.focus.table.FocusTable` agrees with per-query slices
  computed directly from the flow result, in both directions.

Injected oracles (``injected:*``) deliberately fail on harmless syntactic
features; they exist so the shrinker and the repro pipeline can be exercised
end-to-end without a real bug.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MODULAR, WHOLE_PROGRAM, AnalysisConfig
from repro.core.engine import FlowEngine
from repro.core.theta import arg_location
from repro.errors import ReproError
from repro.lang import ast
from repro.lang.interp import (
    Interpreter,
    Value,
    VBool,
    VInt,
    VRef,
    VStruct,
    VTuple,
)
from repro.lang.parser import parse_program
from repro.lang.typeck import CheckedProgram, check_program
from repro.lang.types import (
    BoolType,
    Mutability,
    RefType,
    StructType,
    TupleType,
    Type,
    U32Type,
)
from repro.mir.lower import LoweredProgram, lower_program
from repro.mir.validate import validate_program


# ---------------------------------------------------------------------------
# Verdicts and prepared programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    """The outcome of one oracle on one program."""

    oracle: str
    ok: bool
    detail: str = ""

    def kind(self) -> str:
        """A stable failure signature: the detail up to the first ``:``.

        The shrinker matches on ``(oracle, kind)`` so reduction cannot drift
        from one failure mode into a different one.
        """
        return self.detail.split(":", 1)[0] if self.detail else ""

    def to_json_dict(self) -> Dict[str, object]:
        return {"oracle": self.oracle, "ok": self.ok, "detail": self.detail}


@dataclass
class PreparedProgram:
    """A program that made it through the front end, shared by the oracles."""

    source: str
    crate_name: str
    checked: CheckedProgram
    lowered: LoweredProgram


def prepare(source: str, crate_name: str = "fuzzed") -> PreparedProgram:
    """Parse, typecheck, and lower; raises :class:`ReproError` on failure."""
    program = parse_program(source, local_crate=crate_name)
    checked = check_program(program)
    lowered = lower_program(checked)
    return PreparedProgram(
        source=source, crate_name=crate_name, checked=checked, lowered=lowered
    )


# ---------------------------------------------------------------------------
# Oracle: pipeline validity
# ---------------------------------------------------------------------------


def oracle_validate(prep: PreparedProgram) -> OracleVerdict:
    """Structural + span validity of every lowered local body."""
    problems = validate_program(prep.lowered, check_spans=True, local_only=True)
    if problems:
        fn_name, issues = sorted(problems.items())[0]
        return OracleVerdict(
            "validate",
            ok=False,
            detail=f"invalid_mir: {fn_name}: {issues[0]}"
            + (f" (+{len(issues) - 1} more)" if len(issues) > 1 else ""),
        )
    return OracleVerdict("validate", ok=True)


# ---------------------------------------------------------------------------
# Oracle: bitset vs object engine equivalence
# ---------------------------------------------------------------------------


def _engine_snapshot(prep: PreparedProgram, config: AnalysisConfig) -> Dict[str, object]:
    engine = FlowEngine(prep.checked, lowered=prep.lowered, config=config)
    out: Dict[str, object] = {}
    for fn_name in engine.local_function_names():
        result = engine.analyze_function(fn_name)
        theta_items = sorted(
            (place.pretty(result.body), sorted(loc.pretty() for loc in deps))
            for place, deps in result.exit_theta.items()
        )
        out[fn_name] = {
            "sizes": result.dependency_sizes(),
            "theta": theta_items,
        }
    return out


def oracle_engine_equivalence(prep: PreparedProgram) -> OracleVerdict:
    """The bitset engine must agree with the object referee under Modular
    and Whole-program."""
    import dataclasses

    for base in (MODULAR, WHOLE_PROGRAM):
        bitset = _engine_snapshot(prep, base)
        referee = _engine_snapshot(prep, dataclasses.replace(base, engine="object"))
        if bitset == referee:
            continue
        diverged = sorted(fn for fn in bitset if bitset[fn] != referee.get(fn))
        return OracleVerdict(
            "engine_equivalence",
            ok=False,
            detail=f"engine_divergence: condition={base.name} "
            f"engine=bitset functions={diverged[:3]}",
        )
    return OracleVerdict("engine_equivalence", ok=True)


# ---------------------------------------------------------------------------
# Oracle: warm-vs-cold cache byte-equality through the service session
# ---------------------------------------------------------------------------


def oracle_cache_equality(prep: PreparedProgram) -> OracleVerdict:
    """A warm session over a shared store answers byte-identically to cold."""
    from repro.service.cache import SummaryStore
    from repro.service.session import AnalysisSession

    store = SummaryStore(max_entries=1 << 14)

    def one_pass() -> Tuple[bytes, AnalysisSession]:
        session = AnalysisSession(store=store, local_crate=prep.crate_name)
        session.open_unit("fuzz", prep.source)
        snapshot = session.snapshot(max_variables_per_function=6)
        return json.dumps(snapshot, sort_keys=True).encode("utf-8"), session

    cold_bytes, _ = one_pass()
    hits_before = store.stats.to_dict().get("hits", 0)
    warm_bytes, warm_session = one_pass()
    hits_after = store.stats.to_dict().get("hits", 0)

    if cold_bytes != warm_bytes:
        return OracleVerdict(
            "cache_equality",
            ok=False,
            detail=f"cache_divergence: cold and warm snapshots differ "
            f"({len(cold_bytes)} vs {len(warm_bytes)} bytes)",
        )
    if warm_session.function_names() and hits_after <= hits_before:
        return OracleVerdict(
            "cache_equality",
            ok=False,
            detail="cache_cold_warm: warm pass recorded no store hits",
        )
    return OracleVerdict("cache_equality", ok=True)


# ---------------------------------------------------------------------------
# Oracle: interpreter-backed noninterference
# ---------------------------------------------------------------------------

#: Deterministic pure implementations for the generator's extern crate.
U32_MODULUS = 2 ** 32


def _ext_int(args: Sequence[Value], index: int) -> int:
    value = args[index]
    if not isinstance(value, VInt):
        raise ReproError(f"extern argument {index} is not a u32")
    return value.value


EXTERN_IMPLS = {
    "ext_mix": lambda interp, args: VInt(
        (_ext_int(args, 0) * 31 + _ext_int(args, 1)) % U32_MODULUS
    ),
    "ext_scale": lambda interp, args: VInt(
        (_ext_int(args, 0) * _ext_int(args, 1) + 7) % U32_MODULUS
    ),
    "ext_pick": lambda interp, args: (
        args[1] if isinstance(args[0], VBool) and args[0].value else args[2]
    ),
    "ext_probe": lambda interp, args: VBool(_ext_int(args, 0) % 3 == 0),
}


def _build_value(ty: Type, registry, fill: Callable[[], int]) -> Value:
    """A concrete value of ``ty`` with scalar leaves drawn from ``fill``."""
    if isinstance(ty, U32Type):
        return VInt(fill() % U32_MODULUS)
    if isinstance(ty, BoolType):
        return VBool(fill() % 2 == 0)
    if isinstance(ty, TupleType):
        return VTuple([_build_value(t, registry, fill) for t in ty.elements])
    if isinstance(ty, StructType):
        resolved = registry.lookup(ty.name) or ty
        return VStruct(
            resolved.name, [_build_value(t, registry, fill) for _, t in resolved.fields]
        )
    raise ReproError(f"cannot build an interpreter value for {ty.pretty()}")


def _run_function(
    checked: CheckedProgram,
    fn_name: str,
    param_types: Sequence[Type],
    leaf_values: Sequence[Sequence[int]],
) -> Value:
    """Run ``fn_name`` with arguments built from per-parameter scalar leaves.

    Reference parameters point into a synthetic caller frame, exactly like
    real calls would; ``leaf_values[i]`` supplies the scalar leaves of
    parameter ``i`` in deterministic construction order.
    """
    interpreter = Interpreter(checked, extern_impls=EXTERN_IMPLS, fuel=400_000)
    frame = interpreter.stack.push("<fuzz-caller>")
    registry = checked.registry
    args: List[Value] = []
    for index, ty in enumerate(param_types):
        leaves = list(leaf_values[index])
        cursor = [0]

        def fill() -> int:
            value = leaves[cursor[0] % len(leaves)]
            cursor[0] += 1
            return value

        if isinstance(ty, RefType):
            slot = f"__arg{index}"
            frame.slots[slot] = _build_value(ty.pointee, registry, fill)
            args.append(
                VRef(frame.frame_id, slot, (), ty.mutability is Mutability.MUT)
            )
        else:
            args.append(_build_value(ty, registry, fill))
    try:
        return interpreter.call_function(fn_name, args)
    finally:
        interpreter.stack.pop()


def _leaf_count(ty: Type, registry) -> int:
    if isinstance(ty, (U32Type, BoolType)):
        return 1
    if isinstance(ty, TupleType):
        return sum(_leaf_count(t, registry) for t in ty.elements)
    if isinstance(ty, StructType):
        resolved = registry.lookup(ty.name) or ty
        return sum(_leaf_count(t, registry) for _, t in resolved.fields)
    if isinstance(ty, RefType):
        return _leaf_count(ty.pointee, registry)
    return -1  # unsupported


def oracle_noninterference(
    prep: PreparedProgram, trials: int = 3, seed: int = 0
) -> OracleVerdict:
    """Theorem 3.1, empirically: arguments outside the return value's
    dependency set cannot influence the returned value.

    Checked under both the Modular and the (more precise, hence stricter)
    Whole-program condition, for every local function whose parameters the
    interpreter can construct.
    """
    rng = random.Random(0xF0CC ^ seed)
    checked = prep.checked
    registry = checked.registry
    for config in (MODULAR, WHOLE_PROGRAM):
        engine = FlowEngine(prep.checked, lowered=prep.lowered, config=config)
        for fn_name in engine.local_function_names():
            sig = checked.signatures.get(fn_name)
            if sig is None:
                continue
            param_types = list(sig.param_types)
            leaf_counts = [_leaf_count(ty, registry) for ty in param_types]
            if any(count < 0 for count in leaf_counts):
                continue  # parameter shape the runner cannot construct
            result = engine.analyze_function(fn_name)
            return_deps = result.deps_of_return()
            relevant = {
                index
                for index in range(len(param_types))
                if arg_location(index) in return_deps
            }
            irrelevant = [i for i in range(len(param_types)) if i not in relevant]

            base_leaves = [
                [rng.randrange(0, 64) for _ in range(max(1, count))]
                for count in leaf_counts
            ]
            try:
                baseline = _run_function(checked, fn_name, param_types, base_leaves)
            except ReproError as error:
                return OracleVerdict(
                    "noninterference",
                    ok=False,
                    detail=f"interp_error: {fn_name}: {error}",
                )
            if not irrelevant:
                continue
            for _ in range(trials):
                varied = [list(leaves) for leaves in base_leaves]
                for index in irrelevant:
                    varied[index] = [
                        rng.randrange(0, 64) for _ in range(len(varied[index]))
                    ]
                try:
                    outcome = _run_function(checked, fn_name, param_types, varied)
                except ReproError as error:
                    return OracleVerdict(
                        "noninterference",
                        ok=False,
                        detail=f"interp_error: {fn_name}: {error}",
                    )
                if outcome != baseline:
                    names = [sig.param_names[i] for i in irrelevant]
                    return OracleVerdict(
                        "noninterference",
                        ok=False,
                        detail=f"noninterference_violation: {fn_name} "
                        f"({config.name}): varying {names} (outside the return "
                        f"dependency set) changed the result from "
                        f"{baseline.pretty()} to {outcome.pretty()}",
                    )
    return OracleVerdict("noninterference", ok=True)


# ---------------------------------------------------------------------------
# Oracle: focus-table vs per-query slice agreement
# ---------------------------------------------------------------------------


def oracle_focus_agreement(prep: PreparedProgram) -> OracleVerdict:
    """The all-places focus table must equal per-query slices exactly."""
    from repro.apps.slicer import forward_slice_locations
    from repro.focus.table import FocusTable

    engine = FlowEngine(prep.checked, lowered=prep.lowered, config=MODULAR)
    for fn_name in engine.local_function_names():
        result = engine.analyze_function(fn_name)
        table = FocusTable.build(result)
        body = result.body
        for local in body.user_locals():
            if local.name is None:
                continue
            entry = table.entry_for_variable(local.name)
            backward = frozenset(entry.backward)
            expected_backward = result.backward_slice_of_variable(local.name)
            if backward != expected_backward:
                return OracleVerdict(
                    "focus_agreement",
                    ok=False,
                    detail=f"focus_backward_mismatch: {fn_name}.{local.name}: "
                    f"table {len(backward)} vs query {len(expected_backward)}",
                )
            forward = frozenset(entry.forward)
            expected_forward = forward_slice_locations(result, local.name)
            if forward != expected_forward:
                return OracleVerdict(
                    "focus_agreement",
                    ok=False,
                    detail=f"focus_forward_mismatch: {fn_name}.{local.name}: "
                    f"table {len(forward)} vs query {len(expected_forward)}",
                )
    return OracleVerdict("focus_agreement", ok=True)


# ---------------------------------------------------------------------------
# Injected oracles (pipeline self-tests)
# ---------------------------------------------------------------------------


def _injected_while_loop(prep: PreparedProgram) -> OracleVerdict:
    from repro.fuzz.reduce import walk_statements

    loops = 0
    for fn in prep.checked.program.local.functions():
        if fn.body is None:
            continue
        loops += sum(
            1 for stmt in walk_statements(fn.body) if isinstance(stmt, ast.WhileStmt)
        )
    if loops:
        return OracleVerdict(
            "injected:while_loop",
            ok=False,
            detail=f"injected_while_loop: program contains {loops} while loop(s)",
        )
    return OracleVerdict("injected:while_loop", ok=True)


def _injected_deref_write(prep: PreparedProgram) -> OracleVerdict:
    from repro.fuzz.reduce import walk_statements

    for fn in prep.checked.program.local.functions():
        if fn.body is None:
            continue
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, ast.AssignStmt) and isinstance(stmt.target, ast.Deref):
                return OracleVerdict(
                    "injected:deref_write",
                    ok=False,
                    detail=f"injected_deref_write: {fn.name} assigns through a deref",
                )
    return OracleVerdict("injected:deref_write", ok=True)


INJECTED_ORACLES: Dict[str, Callable[[PreparedProgram], OracleVerdict]] = {
    "while_loop": _injected_while_loop,
    "deref_write": _injected_deref_write,
}


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------


_ORACLE_FUNCTIONS: Dict[str, Callable[[PreparedProgram], OracleVerdict]] = {
    "validate": oracle_validate,
    "engine_equivalence": oracle_engine_equivalence,
    "cache_equality": oracle_cache_equality,
    "noninterference": oracle_noninterference,
    "focus_agreement": oracle_focus_agreement,
}

DEFAULT_ORACLES: Tuple[str, ...] = tuple(_ORACLE_FUNCTIONS)


def oracle_names(include_injected: bool = False) -> List[str]:
    names = list(DEFAULT_ORACLES)
    if include_injected:
        names.extend(f"injected:{name}" for name in sorted(INJECTED_ORACLES))
    return names


def run_battery(
    source: str,
    crate_name: str = "fuzzed",
    oracles: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[OracleVerdict]:
    """Run the selected oracles (default: all five) on one program.

    A front-end failure is reported as a failing ``validate`` verdict and the
    remaining oracles are skipped (they need a prepared program).  Any
    unexpected exception inside an oracle becomes a failing verdict with a
    ``crash`` signature, so the battery never raises.
    """
    selected = list(oracles) if oracles is not None else list(DEFAULT_ORACLES)
    for name in selected:
        base = name.split(":", 1)
        if name not in _ORACLE_FUNCTIONS and (
            base[0] != "injected" or len(base) != 2 or base[1] not in INJECTED_ORACLES
        ):
            raise ReproError(
                f"unknown oracle {name!r} (known: {oracle_names(include_injected=True)})"
            )

    try:
        prep = prepare(source, crate_name)
    except ReproError as error:
        verdict = OracleVerdict(
            "validate", ok=False, detail=f"{type(error).__name__}: {error}"
        )
        return [verdict]
    except Exception as error:  # pragma: no cover - defensive crash oracle
        return [
            OracleVerdict(
                "validate",
                ok=False,
                detail=f"crash: {type(error).__name__}: {error}",
            )
        ]

    verdicts: List[OracleVerdict] = []
    for name in selected:
        if name.startswith("injected:"):
            runner = INJECTED_ORACLES[name.split(":", 1)[1]]
        else:
            runner = _ORACLE_FUNCTIONS[name]
        try:
            if name == "noninterference":
                verdicts.append(oracle_noninterference(prep, seed=seed))
            else:
                verdicts.append(runner(prep))
        except Exception as error:
            trace = traceback.format_exc(limit=3).strip().splitlines()[-1]
            verdicts.append(
                OracleVerdict(
                    name,
                    ok=False,
                    detail=f"crash: {type(error).__name__}: {error} [{trace}]",
                )
            )
    return verdicts


def first_failure(verdicts: Sequence[OracleVerdict]) -> Optional[OracleVerdict]:
    for verdict in verdicts:
        if not verdict.ok:
            return verdict
    return None
