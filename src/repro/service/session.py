"""The :class:`AnalysisSession` façade: a mutable workspace served from cache.

A session owns named MiniRust source *units* (think open editor buffers or
crate files), keeps them parsed/checked/lowered, and answers ``analyze``,
``slice``, ``focus`` and ``ifc`` queries.  Every per-function answer flows
through the content-addressed :class:`~repro.service.cache.SummaryStore`,
the session's only cache of flow results: a repeated query over unchanged
code is a cache lookup, a miss stores what it derived and keeps no flow
result, and applying an edit re-runs only what
:mod:`repro.service.invalidate` says could have changed.

The interaction-time contract this encodes is the paper's: modular analysis
makes per-function results independent of other bodies, so in the common
(modular) configuration an edit costs one re-analysis regardless of
workspace size.  The rebuild before it has the same locality: units are
parsed one by one, and only a unit whose text or first line changed is
parsed again.  In a unit whose first line stayed, only the runs of
top-level items (or ``crate`` blocks) on the lines the edit changed are
parsed again; every other item is kept as the served declaration.  While
no struct changed, a kept function keeps its elaborated signature and
signature fingerprint, and while no signature changed either, its checked
form, lowered body and body fingerprint too.
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.apps.ifc import IfcChecker, IfcPolicy, call_flows, render_report
from repro.core.analysis import FunctionFlowResult
from repro.core.config import MODULAR, AnalysisConfig, condition_name
from repro.core.engine import FlowEngine
from repro.errors import Diagnostic, LexError, ParseError, QueryError, ReproError, Span
from repro.focus.resolve import CursorIndex, resolve_cursor
from repro.focus.table import FocusTable
from repro.lang import ast
from repro.lang.parser import assemble_program, parse_program
from repro.lang.typeck import check_program
from repro.mir.callgraph import CallGraph, build_call_graph
from repro.mir.ir import Body
from repro.mir.lower import lower_program
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span
from repro.service.cache import (
    KIND_CALLS,
    KIND_FOCUS,
    KIND_RECORD,
    FingerprintIndex,
    FunctionRecord,
    SummaryStore,
    config_cache_key,
)
from repro.service.invalidate import InvalidationPlan, apply_invalidation, plan_both_conditions
from repro.service.scheduler import BatchScheduler


# One unit's parse: (source, first line in the joined workspace, program).
# The program's entries carry their lines, which lets the next parse of the
# unit keep every entry on lines an edit left alone.
UnitParse = Tuple[str, int, ast.Program]


def _changed_lines(old: List[str], new: List[str], first_line: int) -> Sequence[int]:
    """The lines, numbered from ``first_line``, that an edit from ``old`` to
    ``new`` touched, in order: each line whose text differs when the line
    count is unchanged, else every line from the first difference on,
    because every later line moves.  When ``new`` is a line prefix of
    ``old``, its last line counts as changed: an item the cut splits holds
    that line, so it is parsed again and fails as a fresh parse fails."""
    if len(old) == len(new):
        return [line for line, (a, b) in enumerate(zip(old, new), first_line) if a != b]
    first = next(
        (index for index, (a, b) in enumerate(zip(old, new)) if a != b),
        min(len(old), len(new) - 1),
    )
    return range(first_line + first, first_line + max(len(old), len(new)))


def _touches(changed: Sequence[int], first: int, last: int) -> bool:
    """Whether a line of ``first..last`` is in the sorted ``changed``."""
    index = bisect_left(changed, first)
    return index < len(changed) and changed[index] <= last


def _kept_entries(entries: List[ast.Entry], changed: Sequence[int]) -> List[bool]:
    """For each entry, whether it is kept: no changed line is on its lines,
    nor on the lines of an entry it shares a line with (``} fn b() {``,
    ``} extern``).  Only neighbours share lines, so one pass each way
    spreads a touch along a chain of shared lines."""
    kept = [not _touches(changed, first, last) for first, last, _ in entries]
    for index in range(1, len(entries)):
        if not kept[index - 1] and entries[index][0] <= entries[index - 1][1]:
            kept[index] = False
    for index in range(len(entries) - 2, -1, -1):
        if not kept[index + 1] and entries[index][1] >= entries[index + 1][0]:
            kept[index] = False
    return kept


def _parse_unit(
    source: str, first_line: int, served: Optional[UnitParse]
) -> Tuple[UnitParse, int]:
    """The parse of one unit whose first line is ``first_line``, and the
    number of top-level entries parsed for it.

    When the served parse starts on the same line, its entries that the
    edit left alone are kept, as the served objects, and only each run of
    lines between kept entries that holds a changed line is parsed again.
    A run parsed alone is exact: no token spans two lines, and an item's
    parse never looks past its closing ``}`` or ``;``, so a run that cuts
    an item in two does not parse.  When a run does not parse, the whole
    unit is parsed, which raises the error a fresh parse raises or gives
    its result.
    """
    if served is None or served[1] != first_line:
        program = parse_program(source, first_line=first_line)
        return (source, first_line, program), len(program.entries)
    lines = source.split("\n")
    changed = _changed_lines(served[0].split("\n"), lines, first_line)
    # (first line, last line, the kept entry after them or None at the end).
    stretches: List[Tuple[int, int, Optional[ast.Entry]]] = []
    next_line = first_line
    served_entries = served[2].entries
    for entry, kept in zip(served_entries, _kept_entries(served_entries, changed)):
        if kept:
            stretches.append((next_line, entry[0] - 1, entry))
            next_line = entry[1] + 1
    stretches.append((next_line, first_line + len(lines) - 1, None))
    entries: List[ast.Entry] = []
    parsed = 0
    try:
        for first, last, entry in stretches:
            if _touches(changed, first, last):
                text = "\n".join(lines[first - first_line : last - first_line + 1])
                run = parse_program(text, first_line=first).entries
                entries.extend(run)
                parsed += len(run)
            if entry is not None:
                entries.append(entry)
    except (LexError, ParseError):
        program = parse_program(source, first_line=first_line)
        return (source, first_line, program), len(program.entries)
    program = assemble_program(entry for _, _, entry in entries)
    program.entries = entries
    return (source, first_line, program), parsed


def _unit_at_line(unit_lines: Dict[str, Tuple[int, int]], line: int) -> Optional[str]:
    """The unit that holds ``line`` of the joined source."""
    for name, (offset, lines) in unit_lines.items():
        if offset < line <= offset + lines:
            return name
    return None


def _locate_in_units(error: ReproError, unit_lines: Dict[str, Tuple[int, int]]) -> None:
    """Rewrite ``error`` so that each position it names, in its message and
    in its ``diagnostics``, is relative to the unit that holds it, and the
    message names that unit.

    Units are parsed and checked in the lines of the joined source, but a
    client addresses positions within one unit.  An error none of whose
    positions lies in a unit is left as it is.
    """
    messages: List[str] = []
    relative: List[Diagnostic] = []
    located = False
    for diagnostic in error.diagnostics:
        span = diagnostic.span
        unit = None if span.is_dummy() else _unit_at_line(unit_lines, span.start_line)
        if unit is None:
            messages.append(diagnostic.render())
        else:
            offset = unit_lines[unit][0]
            span = Span(
                span.start_line - offset, span.start_col, span.end_line - offset, span.end_col
            )
            messages.append(f"error in unit {unit!r} at {span}: {diagnostic.message}")
            diagnostic = diagnostic._replace(span=span)
            located = True
        relative.append(diagnostic)
    if located:
        error.args = ("\n".join(messages),)
        error.span = relative[0].span
        error.diagnostics = tuple(relative)


class AnalysisSession:
    """A long-lived, incremental analysis workspace."""

    def __init__(
        self,
        store: Optional[SummaryStore] = None,
        cache_dir: Optional[str] = None,
        max_entries: int = 4096,
        local_crate: str = "main",
    ):
        self.store = store if store is not None else SummaryStore(
            max_entries=max_entries, disk_dir=cache_dir
        )
        self.local_crate = local_crate
        self.generation = 0
        self.counters: Dict[str, int] = {
            "analyze_queries": 0,
            "slice_queries": 0,
            "focus_queries": 0,
            "ifc_queries": 0,
            "edits": 0,
        }
        self.last_plans: Optional[Dict[bool, InvalidationPlan]] = None
        self._units: "OrderedDict[str, str]" = OrderedDict()
        self._checked = None
        self._lowered = None
        self._call_graph: Optional[CallGraph] = None
        self._fingerprints: Optional[FingerprintIndex] = None
        # The served program's cursor index; its tables are built by the
        # generation's first cursor queries.
        self._cursor_index: Optional[CursorIndex] = None
        self._engines: Dict[str, FlowEngine] = {}
        # unit name -> (line offset in the joined source, line count).
        self._unit_lines: Dict[str, Tuple[int, int]] = {}
        # unit name -> its parse in the served generation, which the next
        # rebuild may reuse.
        self._parsed: Dict[str, UnitParse] = {}
        # Serialises cache-miss computation when the session is shared across
        # threads (the concurrent server's read path): a query served from
        # the store — analyze, slice, focus or ifc alike — takes no lock,
        # but the dataflow engines keep per-run state (the recursive summary
        # provider's taint/height tracking), so only one thread may be
        # *computing* at a time.  ``_stored`` holds it for a miss alone.
        self._compute_lock = threading.RLock()
        # Counter increments happen on the concurrent query path too.
        self._counter_lock = threading.Lock()

    def _bump(self, counter: str) -> None:
        """Increment one stats counter without losing concurrent updates."""
        with self._counter_lock:
            self.counters[counter] += 1

    # -- workspace ---------------------------------------------------------------

    @property
    def source(self) -> str:
        """The joined workspace source (units concatenated with newlines)."""
        return "\n".join(self._units.values())

    def unit_names(self) -> List[str]:
        """The open units' names, in workspace (concatenation) order."""
        return list(self._units)

    def units(self) -> List[Tuple[str, str]]:
        """``(name, source)`` of every open unit, in workspace order.

        The snapshot that workspace persistence serialises into the manifest.
        """
        return list(self._units.items())

    def open_unit(self, name: str, source: str) -> dict:
        """Open (or replace — an *edit*) one source unit.

        Workspace changes are transactional: if the new workspace fails to
        parse/check/lower, the unit map (its order included) and all derived
        state are left as they were and the error propagates to the caller.
        """
        return self.open_units([(name, source)])

    def update_unit(self, name: str, source: str) -> dict:
        """Apply an edit to an already-open unit (errors on unknown units)."""
        if name not in self._units:
            raise QueryError(f"no open unit named {name!r}", code=QueryError.UNKNOWN_UNIT)
        return self.open_unit(name, source)

    def open_units(
        self, units: Iterable[Tuple[str, str]], local_crate: Optional[str] = None
    ) -> dict:
        """Open (or replace) several units with a *single* workspace rebuild,
        analysing ``local_crate`` from then on when it is given.

        Units in one workspace may reference each other's functions, so
        opening them one at a time can fail on intermediate states that are
        not closed under calls.  This entry point — used by workspace
        restore and the protocol's ``open`` — installs the whole batch and
        rebuilds once, with the same transactional guarantee as
        :meth:`open_unit`: on failure the unit map, the crate selection and
        derived state are exactly as before.
        """
        edited = OrderedDict(self._units)
        for name, source in units:
            edited[str(name)] = source
        return self._edit(edited, local_crate)

    def close_unit(self, name: str) -> dict:
        """Remove one unit from the workspace (transactional, like ``open``)."""
        if name not in self._units:
            raise QueryError(f"no open unit named {name!r}", code=QueryError.UNKNOWN_UNIT)
        edited = OrderedDict(self._units)
        del edited[name]
        return self._edit(edited)

    def _edit(self, units: "OrderedDict[str, str]", local_crate: Optional[str] = None) -> dict:
        """Rebuild with ``units`` as the unit map, and ``local_crate`` as the
        crate when given: one transaction, which puts back the unit map and
        the crate the session had when the rebuild fails."""
        previous = self._units, self.local_crate
        self._units = units
        if local_crate is not None:
            self.local_crate = local_crate
        try:
            return self._rebuild()
        except Exception:
            self._units, self.local_crate = previous
            raise

    def _require_workspace(self) -> None:
        if self._checked is None:
            raise QueryError(
                "no sources opened; send an `open` request first",
                code=QueryError.NO_WORKSPACE,
            )

    def _rebuild(self) -> dict:
        """Re-derive program state after a workspace change and evict exactly
        the cache entries the edit can have affected."""
        with obs_span("rebuild") as sp:
            out, work = self._rebuild_inner()
            if sp is not None:
                sp.set(
                    generation=out["generation"],
                    functions=out["functions"],
                    evicted_entries=out["evicted_entries"],
                    **work,
                )
            return out

    def _parse_units(self) -> Tuple[Dict[str, UnitParse], Dict[str, Tuple[int, int]], int]:
        """Each unit's parse, reusing the served one where the unit's text
        and first line are unchanged, each unit's line position, and the
        number of top-level entries parsed."""
        parsed: Dict[str, UnitParse] = {}
        unit_lines: Dict[str, Tuple[int, int]] = {}
        items_parsed = 0
        offset = 0
        for name, source in self._units.items():
            lines = source.count("\n") + 1
            unit_lines[name] = (offset, lines)
            first_line = offset + 1
            offset += lines
            served = self._parsed.get(name)
            if served is not None and served[0] == source and served[1] == first_line:
                parsed[name] = served
                continue
            try:
                parsed[name], items = _parse_unit(source, first_line, served)
            except ReproError as error:
                _locate_in_units(error, unit_lines)
                raise
            items_parsed += items
        return parsed, unit_lines, items_parsed

    def _rebuild_inner(self) -> Tuple[dict, Dict[str, int]]:
        old_snapshot = (
            self._fingerprints.snapshot() if self._fingerprints is not None else {}
        )
        old_graph = self._call_graph

        # Derive everything into locals first: if any stage fails, the
        # session keeps serving the previous workspace generation intact.
        parsed, unit_lines, items_parsed = self._parse_units()
        program = assemble_program(
            (crate for _, _, unit in parsed.values() for crate in unit.crates),
            self.local_crate,
        )
        try:
            checked = check_program(program, previous=self._checked)
            lowered = lower_program(checked, previous=self._lowered)
            call_graph = build_call_graph(lowered)
        except ReproError as error:
            _locate_in_units(error, unit_lines)
            raise
        previous_signatures = self._checked.signatures if self._checked is not None else {}
        previous_bodies = self._lowered.bodies if self._lowered is not None else {}
        work = {
            "units_parsed": sum(
                entry is not self._parsed.get(name) for name, entry in parsed.items()
            ),
            "items_parsed": items_parsed,
            "signatures_elaborated": sum(
                signature is not previous_signatures.get(name)
                for name, signature in checked.signatures.items()
            ),
            "functions_checked": sum(
                function.decl.name not in checked.reused
                for function in checked.functions_with_bodies()
            ),
            "bodies_lowered": sum(
                body is not previous_bodies.get(name) for name, body in lowered.bodies.items()
            ),
        }
        self._parsed = parsed
        self._unit_lines = unit_lines
        self._checked = checked
        self._lowered = lowered
        self._cursor_index = CursorIndex(lowered)
        self._call_graph = call_graph
        self._fingerprints = FingerprintIndex(
            lowered,
            checked.signatures,
            program.local_crate,
            call_graph,
            previous=self._fingerprints,
        )
        self._engines.clear()
        self.generation += 1

        new_snapshot = self._fingerprints.snapshot()
        body_changed: Set[str] = set()
        sig_changed: Set[str] = set()
        removed: Set[str] = set(old_snapshot) - set(new_snapshot)
        for name, (new_sig, new_body) in new_snapshot.items():
            if name not in old_snapshot:
                continue
            old_sig, old_body = old_snapshot[name]
            if new_sig != old_sig:
                sig_changed.add(name)
            elif new_body != old_body:
                body_changed.add(name)

        evicted_entries = 0
        plans: Optional[Dict[bool, InvalidationPlan]] = None
        if old_graph is not None and (body_changed or sig_changed or removed):
            plans = plan_both_conditions(
                old_graph,
                body_changed=body_changed,
                sig_changed=sig_changed,
                removed=removed,
            )
            registry = obs_metrics.get_registry()
            for wp, plan in plans.items():
                evicted_entries += apply_invalidation(self.store, plan)
                registry.histogram(
                    "invalidation_cone_size",
                    buckets=obs_metrics.COUNT_BUCKETS,
                    condition="whole_program" if wp else "modular",
                ).observe(len(plan.evict))
            registry.counter("invalidation_entries_total").inc(evicted_entries)
            self._bump("edits")
        self.last_plans = plans

        return {
            "generation": self.generation,
            "units": self.unit_names(),
            "functions": len(self._local_function_names()),
            "body_changed": sorted(body_changed),
            "sig_changed": sorted(sig_changed),
            "removed": sorted(removed),
            "evicted_entries": evicted_entries,
            "invalidation": {
                ("whole_program" if wp else "modular"): plan.to_json_dict()
                for wp, plan in (plans or {}).items()
            },
        }, work

    # -- engines and results -----------------------------------------------------

    def _local_function_names(self) -> List[str]:
        if self._lowered is None:
            return []
        local = self._checked.program.local_crate
        return sorted(
            body.fn_name for body in self._lowered.bodies.values() if body.crate == local
        )

    def function_names(self) -> List[str]:
        """Names of the local-crate functions currently in the workspace."""
        return self._local_function_names()

    def variables_of(self, fn_name: str) -> List[str]:
        """Source-level variable names (args and lets) of one function."""
        body = self._body(fn_name)
        return [local.name for local in body.user_locals() if local.name is not None]

    def engine(self, config: AnalysisConfig) -> FlowEngine:
        """The (lazily created, per-condition) flow engine for ``config``.

        An engine keeps no flow result; a whole-program engine memoises its
        callee summaries, for this workspace generation: a rebuild drops
        every engine.
        """
        self._require_workspace()
        key = config_cache_key(config)
        if key not in self._engines:
            with self._compute_lock:
                if key not in self._engines:
                    self._engines[key] = FlowEngine(
                        self._checked, lowered=self._lowered, config=config
                    )
        return self._engines[key]

    def _body(self, fn_name: str) -> Body:
        self._require_workspace()
        body = self._lowered.body(fn_name)
        if body is None:
            raise QueryError(
                f"no function named {fn_name!r} with a body",
                code=QueryError.UNKNOWN_FUNCTION,
            )
        return body

    def _stored(
        self,
        kind: str,
        fn_name: str,
        config: AnalysisConfig,
        derive: Callable[[FunctionFlowResult], dict],
    ) -> Tuple[dict, str]:
        """The stored value of ``kind`` for one function, and its cache
        label (``"hit"``/``"miss"``): every answer's one path through the
        store.

        A miss analyses the function, stores ``derive(result)`` and drops
        the result; it holds the compute lock, a hit takes no lock.
        """
        key = self._fingerprints.key(kind, fn_name, config)
        data = self.store.get(key)
        if data is not None:
            return data, "hit"
        with self._compute_lock:
            # Double-check under the lock: a concurrent thread may have just
            # computed and stored this value while we waited.
            data = self.store.get(key)
            if data is not None:
                return data, "hit"
            data = derive(self.engine(config).analyze_function(fn_name))
            self.store.put(key, data)
            return data, "miss"

    # -- queries -----------------------------------------------------------------

    def analyze(
        self, function: Optional[str] = None, config: Optional[AnalysisConfig] = None
    ) -> dict:
        """Dependency-set sizes per variable, served from the store when warm."""
        config = config or MODULAR
        self._bump("analyze_queries")
        engine = self.engine(config)
        if function is not None:
            self._body(function)  # raises ReproError for unknown functions
            names = [function]
        else:
            names = engine.local_function_names()

        functions: Dict[str, dict] = {}
        hits = 0
        for name in names:
            data, cache = self._stored(
                KIND_RECORD, name, config, lambda r: FunctionRecord.from_result(r).to_json_dict()
            )
            if cache == "hit":
                hits += 1
            functions[name] = {
                "cache": cache,
                "dependency_sizes": FunctionRecord.from_json_dict(data).dependency_sizes,
            }
        return {
            "condition": condition_name(config),
            "functions": functions,
            "cache_hits": hits,
            "cache_misses": len(names) - hits,
            "stats": self.store.stats.to_dict(),
        }

    def _unit_position(self, unit: str) -> Tuple[int, int]:
        """``(line offset, line count)`` of ``unit`` in the joined source.

        The workspace concatenates units with newlines, so a client that
        addresses positions within one document (the LSP model) needs its
        cursor shifted into — and response spans shifted out of — the joined
        coordinate space.
        """
        position = self._unit_lines.get(unit)
        if position is None:
            raise QueryError(f"no open unit named {unit!r}", code=QueryError.UNKNOWN_UNIT)
        return position

    def _require_in_unit(self, function: str, body: Body, unit: str) -> None:
        """Raise ``invalid_params`` unless ``unit`` holds ``function``."""
        owner = _unit_at_line(self._unit_lines, body.span.start_line)
        if owner != unit:
            raise QueryError(
                f"function {function!r} is in unit {owner!r}, not {unit!r}",
                code=QueryError.INVALID_PARAMS,
            )

    def _focus_table(
        self, fn_name: str, config: AnalysisConfig
    ) -> Tuple[FocusTable, str]:
        """The function's precomputed focus table, served from the store.

        A warm query wraps the stored table, a cold one runs the dataflow
        analysis once and tabulates every place, and an edit makes the key
        unreachable (the invalidation plan reclaims the entry).
        """
        data, cache = self._stored(
            KIND_FOCUS, fn_name, config, lambda r: FocusTable.build(r).to_json_dict()
        )
        # The fingerprint hashes the lowered MIR, not source positions: a
        # cached table's locations are valid whenever the key matches, even
        # after a pure position shift (a line added above the function or
        # inside it).  Its spans come from the current body's span table.
        return FocusTable.from_json_dict(data).respan(self._body(fn_name)), cache

    def slice(
        self,
        function: str,
        variable: str,
        direction: str = "backward",
        config: Optional[AnalysisConfig] = None,
        unit: Optional[str] = None,
    ) -> dict:
        """A backward or forward slice, rendered as source line numbers.

        Both directions are served from the function's focus table: the
        all-places tabulation already holds every variable's slice, so a
        repeated query in either direction is a cache hit.  With ``unit``,
        which must hold ``function``, lines and spans are relative to that
        unit, as in :meth:`focus`.
        """
        if direction not in ("backward", "forward"):
            raise QueryError(
                f"unknown slice direction {direction!r}", code=QueryError.INVALID_PARAMS
            )
        config = config or MODULAR
        self._bump("slice_queries")
        body = self._body(function)
        offset = 0
        if unit is not None:
            offset = self._unit_position(unit)[0]
            self._require_in_unit(function, body, unit)
        if body.local_by_name(variable) is None:
            raise QueryError(
                f"function {function!r} has no variable {variable!r}",
                code=QueryError.UNKNOWN_VARIABLE,
            )
        table, cache = self._focus_table(function, config)
        rendered = table.entry_for_variable(variable).slice_json(direction, offset)
        return {
            "function": function,
            "variable": variable,
            "direction": direction,
            "condition": condition_name(config),
            "size": rendered["locations"],
            "lines": rendered["lines"],
            "spans": rendered["spans"],
            "cache": cache,
            "stats": self.store.stats.to_dict(),
        }

    def focus(
        self,
        line: Optional[int] = None,
        col: Optional[int] = None,
        function: Optional[str] = None,
        variable: Optional[str] = None,
        direction: str = "both",
        config: Optional[AnalysisConfig] = None,
        unit: Optional[str] = None,
    ) -> dict:
        """A cursor-driven focus query: span-precise slices in both directions.

        Two addressing modes: a ``(line, col)`` cursor (resolved to the
        enclosing MIR place, the IDE workflow) or an explicit
        ``(function, variable)`` pair.  With ``unit``, cursor positions and
        response spans are relative to that document rather than the joined
        workspace — the multi-document editor contract.  The answer comes
        from the function's precomputed focus table, so every place of a
        function costs one dataflow pass total.
        """
        if direction not in ("backward", "forward", "both"):
            raise QueryError(
                f"unknown focus direction {direction!r}", code=QueryError.INVALID_PARAMS
            )
        config = config or MODULAR
        self._bump("focus_queries")
        self._require_workspace()
        offset, unit_lines = self._unit_position(unit) if unit is not None else (0, None)

        if function is not None and variable is not None:
            body = self._body(function)
            if unit is not None:
                self._require_in_unit(function, body, unit)
            if body.local_by_name(variable) is None:
                raise QueryError(
                    f"function {function!r} has no variable {variable!r}",
                    code=QueryError.UNKNOWN_VARIABLE,
                )
            table, cache = self._focus_table(function, config)
            entry = table.entry_for_variable(variable)
            seed_span = entry.defining_span
        elif line is not None and col is not None:
            line = int(line)
            if unit_lines is not None and not 1 <= line <= unit_lines:
                raise QueryError(
                    f"position {line}:{col} is outside unit {unit!r} "
                    f"(lines 1-{unit_lines})",
                    code=QueryError.POSITION_OUT_OF_RANGE,
                )
            target = resolve_cursor(
                self._lowered, line, int(col), line_offset=offset, index=self._cursor_index
            )
            table, cache = self._focus_table(target.fn_name, config)
            entry = table.entry_for_place(target.place)
            if entry is None:
                raise QueryError(
                    f"function {target.fn_name!r} has no focus entry for "
                    f"{target.label!r}",
                    code=QueryError.NO_PLACE_AT_POSITION,
                )
            seed_span = target.span
        else:
            raise QueryError(
                "focus needs either (line, col) or (function, variable)",
                code=QueryError.INVALID_PARAMS,
            )

        out = table.response_for(entry, direction, condition_name(config), offset, seed_span)
        out["cache"] = cache
        out["stats"] = self.store.stats.to_dict()
        return out

    def ifc(
        self,
        secret_types: Sequence[str] = (),
        secret_variables: Sequence[str] = (),
        sinks: Sequence[str] = (),
        config: Optional[AnalysisConfig] = None,
    ) -> dict:
        """Run the IFC checker over the whole workspace.

        A fresh checker applies the policy to each function that may leak,
        over the function's call flows served from the store (kind
        ``calls``): the stored record holds no part of the policy, so every
        policy is served from it.  Each violation names the unit that holds
        its sink call and the line inside that unit.
        """
        self._require_workspace()
        self._bump("ifc_queries")
        config = config or MODULAR
        policy = IfcPolicy.from_specs(secret_types, secret_variables, sinks)
        checker = IfcChecker(self.engine(config), policy)
        violations = []
        for name in self.function_names():
            body = self._lowered.body(name)
            if not checker.may_leak(body):
                continue
            flows, _ = self._stored(KIND_CALLS, name, config, call_flows)
            for violation in checker.violations(body, flows):
                unit = _unit_at_line(self._unit_lines, violation.line)
                if unit is not None:
                    violation = dataclasses.replace(
                        violation, unit=unit, line=violation.line - self._unit_lines[unit][0]
                    )
                violations.append(violation)
        return {
            "violations": [violation.render() for violation in violations],
            "count": len(violations),
            "report": render_report(violations),
        }

    def warm(self, config: Optional[AnalysisConfig] = None) -> dict:
        """Batch-analyse every local function into the store, in one pass;
        functions the store already holds are served from it."""
        config = config or MODULAR
        engine = self.engine(config)
        with self._compute_lock:
            batch = BatchScheduler().run(
                engine, store=self.store, fingerprints=self._fingerprints
            )
        out = batch.to_json_dict()
        out["condition"] = condition_name(config)
        out["stats"] = self.store.stats.to_dict()
        return out

    def snapshot(
        self,
        config: Optional[AnalysisConfig] = None,
        max_variables_per_function: Optional[int] = None,
    ) -> dict:
        """A canonical, cache-independent picture of the whole workspace.

        Covers every local function's analyze record plus both slice
        directions for its (first ``max_variables_per_function``, sorted)
        variables, with all volatile bookkeeping (``cache``/``stats``
        labels, hit counters) stripped.  Two sessions over the same sources
        must produce byte-identical JSON for this structure whether they
        were served cold or warm — the differential property the fuzzing
        subsystem's cache oracle checks, and a convenient equality witness
        for tests.
        """
        config = config or MODULAR
        out: Dict[str, dict] = {}
        for fn_name in self.function_names():
            analyze = self.analyze(function=fn_name, config=config)
            entry: dict = {
                "dependency_sizes": analyze["functions"][fn_name]["dependency_sizes"],
                "slices": {},
            }
            variables = sorted(self.variables_of(fn_name))
            if max_variables_per_function is not None:
                variables = variables[:max_variables_per_function]
            for variable in variables:
                slices = {}
                for direction in ("backward", "forward"):
                    response = self.slice(fn_name, variable, direction, config=config)
                    slices[direction] = {
                        "size": response["size"],
                        "lines": response["lines"],
                        "spans": response["spans"],
                    }
                entry["slices"][variable] = slices
            out[fn_name] = entry
        return {"condition": condition_name(config), "functions": out}

    def snapshot_digest(
        self,
        config: Optional[AnalysisConfig] = None,
        max_variables_per_function: Optional[int] = None,
    ) -> str:
        """sha256 over the canonical :meth:`snapshot` JSON.

        One hex string that commits to every analyze record and slice in the
        workspace — the per-program verdict token the mass-evaluation
        harness records, and a compact equality witness anywhere two
        sessions must be provably answer-identical.
        """
        import hashlib
        import json

        payload = json.dumps(
            self.snapshot(
                config=config, max_variables_per_function=max_variables_per_function
            ),
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def stats(self) -> dict:
        """Session/store/counter snapshot, including the last invalidation plan."""
        return {
            "generation": self.generation,
            "units": self.unit_names(),
            "functions": len(self._local_function_names()),
            "store_entries": len(self.store),
            "stats": self.store.stats.to_dict(),
            "counters": dict(self.counters),
            "last_invalidation": {
                ("whole_program" if wp else "modular"): plan.to_json_dict()
                for wp, plan in (self.last_plans or {}).items()
            },
        }
