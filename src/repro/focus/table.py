"""Precomputed focus tables: every place's slices from one dataflow pass.

The paper's key systems observation is that the dataflow fixpoint already
computes the dependencies of **all** places at once — answering a focus query
per-cursor by re-running the analysis would throw that away.  A
:class:`FocusTable` materialises the all-places view: after a single
:class:`~repro.core.analysis.FunctionFlowResult` is available, one pass over
the body inverts the "written place depends on ℓ" relation into a forward
influence map, and every direct place's backward and forward slice is
tabulated as MIR locations.

A table *is* its JSON value: entries keyed by label, plus an index from each
place to its entry, and nothing else — no source spans, and no function name
or condition, which the cache key already carries.  The analysis service
caches that value in the content-addressed
:class:`~repro.service.cache.SummaryStore` keyed by the function's
fingerprint, so a warm focus query wraps the stored dict, finds its entry
with two dictionary lookups, and reads that entry as stored: its location
counts, and the spans of the directions it answers, looked up in the
current body's span table.  :meth:`FocusTable.response_for` writes the
answer once, already in the lines of the client's unit.  An edit
invalidates tables through the same call-graph plan as every other cached
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.analysis import FunctionFlowResult
from repro.core.theta import IndexedDependencyContext, arg_location
from repro.errors import QueryError, Span
from repro.obs import stage as obs_stage
from repro.focus.spans import span_set_to_json, span_to_json, spans_of_locations
from repro.mir.ir import Body, Location, Place, PlaceElem, ProjectionKind


def _place_to_json(place: Place) -> List:
    return [
        place.local,
        [[elem.kind.value, elem.index] for elem in place.projection],
    ]


def _place_from_json(data) -> Place:
    local = int(data[0])
    projection = tuple(
        PlaceElem(ProjectionKind(str(kind)), int(index)) for kind, index in data[1]
    )
    return Place(local, projection)


def _place_key(place: Place) -> str:
    """The ``places`` index key of ``place``, e.g. ``3.deref0.field1``."""
    return ".".join(
        [str(place.local)]
        + [f"{elem.kind.value}{elem.index}" for elem in place.projection]
    )


class FocusEntry(NamedTuple):
    """Both slice directions for one direct place, bound to a body.

    ``stored`` is the entry's stored JSON value, read but never mutated;
    ``body`` is the function's current body.  Everything else is derived
    from the two when read: the place, the location tuples, and each
    direction's spans from the body's span table.  A focus therefore reads
    only the location counts and the spans of the directions it answers.
    """

    stored: dict
    body: Body

    @property
    def place(self) -> Place:
        return _place_from_json(self.stored["place"])

    @property
    def label(self) -> str:
        return self.stored["label"]

    @property
    def defining_span(self) -> Span:
        """Where the place's base local is declared."""
        return self.body.locals[self.stored["place"][0]].span

    @property
    def backward(self) -> Tuple[Location, ...]:
        return tuple(Location(block, stmt) for block, stmt in self.stored["backward"])

    @property
    def forward(self) -> Tuple[Location, ...]:
        return tuple(Location(block, stmt) for block, stmt in self.stored["forward"])

    @property
    def backward_spans(self) -> Tuple[Span, ...]:
        return spans_of_locations(self.body, self.stored["backward"])

    @property
    def forward_spans(self) -> Tuple[Span, ...]:
        return spans_of_locations(self.body, self.stored["forward"])

    def slice_json(self, direction: str, line_offset: int) -> dict:
        """The ``"backward"`` or ``"forward"`` slice as served: its location
        count, its spans and the lines they touch, every line counted from
        ``line_offset``.  No location is decoded, and the other direction
        is not read."""
        locations = self.stored[direction]
        spans, lines = span_set_to_json(spans_of_locations(self.body, locations), line_offset)
        return {"locations": len(locations), "spans": spans, "lines": lines}


@dataclass(frozen=True)
class FocusTable:
    """All-places focus information for one function under one condition.

    ``data`` is the stored JSON value, read but never mutated: the store
    hands the same dict to every reader thread.  ``body`` is the function's
    current body: every decoded entry takes its spans from it, and a
    response its function name.
    """

    data: dict
    body: Optional[Body] = None

    # -- lookup ------------------------------------------------------------------

    def _entry(self, key: str) -> FocusEntry:
        """The stored entry under ``key``, bound to the table's body."""
        return FocusEntry(self.data["entries"][key], self.body)

    def entry_for_place(self, place: Place) -> Optional[FocusEntry]:
        """The entry for ``place``, falling back to its base local.

        Projected places the analysis never tracked individually (e.g. a
        field that is only ever written as part of the whole struct) answer
        with the base local's entry — a sound over-approximation, the same
        the dependency context itself makes.
        """
        places = self.data["places"]
        key = places.get(_place_key(place))
        if key is None:
            key = places.get(_place_key(place.base_local()))
        return self._entry(key) if key is not None else None

    def entry_for_variable(self, variable: str) -> FocusEntry:
        """Entry by source-level variable name (raises a typed error).

        Entry labels are source-level renderings (``x``, ``x.0``, ``(*p)``),
        so a plain variable name is itself a label.
        """
        if variable not in self.data["entries"]:
            raise QueryError(
                f"function {self.body.fn_name!r} has no variable {variable!r}",
                code=QueryError.UNKNOWN_VARIABLE,
            )
        return self._entry(variable)

    def labels(self) -> List[str]:
        """The printable labels of every tabulated place, sorted."""
        return sorted(self.data["entries"])

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(cls, result: FunctionFlowResult) -> "FocusTable":
        """Tabulate every direct place of ``result`` in one pass.

        The forward direction is computed by inverting the dependency
        relation once: for each location ℓ' that writes a place ``w``, every
        dependency ``d`` of ``w`` immediately after ℓ' gains ℓ' as an
        influencee.  A place's forward slice is then the union of
        ``influenced[ℓ]`` over its writing locations (plus the writes
        themselves) — byte-identical to running
        :meth:`FunctionFlowResult.forward_slice` per query, without the
        per-query scan.

        Each block is walked *once*, replaying the transfer function
        incrementally from the block's fixpoint entry state, instead of
        re-deriving Θ-after from scratch per location.  Under the indexed
        engine the whole inversion additionally stays in bit-matrix space
        (location masks keyed by dependency index) and only converts to
        locations when the table entries are written.
        """
        with obs_stage("focus_table", fn=result.body.fn_name) as sp:
            table = cls._build(result)
            if sp is not None:
                sp.set(entries=len(table.data["entries"]))
            return table

    @classmethod
    def _build(cls, result: FunctionFlowResult) -> "FocusTable":
        body = result.body
        fixpoint = result.fixpoint
        exit_theta = result.exit_theta
        indexed = isinstance(exit_theta, IndexedDependencyContext)
        if indexed:
            domain = exit_theta.domain
            loc_index = domain.locations.index
            place_index = domain.places.index
            # dependency location index -> bitset of influencee locations.
            influenced_masks: Dict[int, int] = {}
        else:
            influenced: Dict[Location, Set[Location]] = {}

        # One walk per block: written place per location, and the inverted
        # influence map.
        writes: List[Tuple[Location, Place]] = []
        for block_idx, block in enumerate(body.blocks):
            state = fixpoint.lattice.copy(fixpoint.entry_states[block_idx])
            for stmt_idx in range(block.num_locations()):
                location = Location(block_idx, stmt_idx)
                written = body.written_place(location)
                fixpoint.transfer(state, body, location)
                if written is None:
                    continue
                writes.append((location, written))
                if indexed:
                    location_bit = 1 << loc_index(location)
                    bits = state.read_conflicts_bits(place_index(written))
                    while bits:
                        lsb = bits & -bits
                        bits ^= lsb
                        dep = lsb.bit_length() - 1
                        influenced_masks[dep] = influenced_masks.get(dep, 0) | location_bit
                else:
                    for dep in state.read_conflicts(written):
                        influenced.setdefault(dep, set()).add(location)

        # Direct places worth tabulating: every local, plus every projected
        # place the exit state tracks (the analysis' own field-sensitivity
        # decides how fine this gets), plus every written place.
        places: Set[Place] = {Place.from_local(local.index) for local in body.locals}
        places.update(exit_theta.places())
        places.update(place for _, place in writes)

        if indexed:
            # Written place index -> its writing locations and everything
            # they influence, so a place visits only the written places it
            # conflicts with.
            written_mask = 0
            written_forward: Dict[int, int] = {}
            for loc, written in writes:
                written_idx = place_index(written)
                write_loc_idx = loc_index(loc)
                written_mask |= 1 << written_idx
                written_forward[written_idx] = (
                    written_forward.get(written_idx, 0)
                    | 1 << write_loc_idx
                    | influenced_masks.get(write_loc_idx, 0)
                )
            arg_tag_mask = domain.locations.arg_tag_mask
            locations_of = domain.locations.locations_of
            conflicts_mask = domain.places.conflicts_mask

        entries: Dict[str, dict] = {}
        keys_by_place: Dict[str, str] = {}
        for place in sorted(places, key=lambda p: (p.local, tuple(
            (elem.kind.value, elem.index) for elem in p.projection
        ))):
            local = body.locals[place.local]
            if indexed:
                # Matrix-row form: backward is the place's exit dependencies
                # minus seed tags; forward is the union of the influence
                # masks of its writing locations (plus the writes).
                backward_bits = exit_theta.read_many_bits(
                    result.oracle.resolve_indices(place, domain.places)
                ) & ~arg_tag_mask
                hits = conflicts_mask(place_index(place)) & written_mask
                forward_bits = 0
                while hits:
                    lsb = hits & -hits
                    hits ^= lsb
                    forward_bits |= written_forward[lsb.bit_length() - 1]
                if local.is_arg and place.is_local():
                    tag_idx = loc_index(arg_location(place.local - 1))
                    forward_bits |= influenced_masks.get(tag_idx, 0)
                backward: Tuple[Location, ...] = tuple(locations_of(backward_bits))
                forward: Tuple[Location, ...] = tuple(locations_of(forward_bits))
            else:
                backward = tuple(sorted(result.backward_slice(place)))
                write_locs: Set[Location] = {
                    loc for loc, written in writes if written.conflicts_with(place)
                }
                forward_set: Set[Location] = set(write_locs)
                for loc in write_locs:
                    forward_set |= influenced.get(loc, set())
                # Parameters are never written in-body: their forward flow is
                # everything depending on the synthetic argument tag seeded at
                # entry (matching `forward_slice_locations`).
                if local.is_arg and place.is_local():
                    forward_set |= influenced.get(arg_location(place.local - 1), set())
                forward = tuple(sorted(forward_set))
            label = place.pretty(body)
            # Shadowed bindings render to the same label; the first (lowest
            # local index) keeps the bare name so name lookups agree with
            # `Body.local_by_name`, while later bindings stay addressable by
            # place (cursor queries) under a disambiguated key.
            key = label if label not in entries else f"{label}@{place.local}"
            entries[key] = {
                "place": _place_to_json(place),
                "label": label,
                "backward": [list(loc) for loc in backward],
                "forward": [list(loc) for loc in forward],
            }
            keys_by_place[_place_key(place)] = key
        return cls({"entries": entries, "places": keys_by_place}, body)

    def respan(self, body: Body) -> "FocusTable":
        """This table bound to ``body``, the function's current body.

        Focus tables are cached under a *span-insensitive* content
        fingerprint (the lowered MIR), so an edit that only shifts a
        function's position — a line added above it or inside it, a sibling
        edited — legitimately serves the cached locations, but spans are
        positional.  Entries therefore store no spans: each entry a lookup
        on the result returns reads its spans from the span table of
        ``body``, which lives as long as that body, so highlights always
        track the text on screen.
        """
        return FocusTable(self.data, body)

    # -- serialisation ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The whole table as the JSON value cached in the SummaryStore."""
        return self.data

    @classmethod
    def from_json_dict(cls, data: dict) -> "FocusTable":
        """Wrap a stored :meth:`to_json_dict` value (a warm hit).

        Nothing is decoded or copied: entries are decoded one at a time by
        the lookups, once :meth:`respan` has bound the current body.
        """
        return cls(data)

    # -- views --------------------------------------------------------------------

    def response_for(
        self,
        entry: FocusEntry,
        direction: str,
        condition: str,
        line_offset: int,
        seed_span: Span,
    ) -> dict:
        """The JSON payload served for one focus query over this table, under
        the condition named ``condition``, seeded at ``seed_span``.

        Written once, already in the client's lines: every span and line is
        counted from ``line_offset``, the line offset of the client's unit
        in the joined source (0 for the joined source itself).  Each
        direction's lines are read off its merged spans.
        """
        function_span = self.body.span
        out: dict = {
            "function": self.body.fn_name,
            "target": entry.label,
            "condition": condition,
            "defining_span": span_to_json(entry.defining_span, line_offset),
            "direction": direction,
        }
        if direction in ("backward", "both"):
            out["backward"] = entry.slice_json("backward", line_offset)
        if direction in ("forward", "both"):
            out["forward"] = entry.slice_json("forward", line_offset)
        out["seed_span"] = None if seed_span.is_dummy() else span_to_json(seed_span, line_offset)
        out["function_span"] = (
            None if function_span.is_dummy() else span_to_json(function_span, line_offset)
        )
        return out
