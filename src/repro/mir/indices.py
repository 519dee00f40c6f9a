"""Per-body interning tables: dense integer indices for places and locations.

The reference implementation gets its speed from rustc-style indexed
collections (``IndexedDomain``/``IndexMatrix``): every domain object a
function body can name is assigned a small dense integer once, and all the
hot set operations of the dataflow analysis become bitwise arithmetic over
machine words instead of hashing and re-allocating ``frozenset`` objects.
This module is the interning layer of that substrate:

* :class:`PlaceDomain` interns :class:`~repro.mir.ir.Place` values.  It is
  **append-only and extensible**: a body's locals (and its argument
  pointees) are seeded up front, and every other place — the places its
  statements name, field projections of aggregates, deref expansions
  produced by the alias oracle, conflict-reachable sub-places — interns on
  demand.  Alongside the table it maintains, per place, bitmasks
  of its interned ancestors and descendants under the paper's prefix
  relation, so the conflict queries of Section 2.1 (``π1 ⊓ π2``) are a
  single mask test instead of a projection-path walk.
* :class:`LocationDomain` interns :class:`~repro.mir.ir.Location` values.
  Indices are assigned monotone in the (total) location order — synthetic
  per-argument tags (``block == -2``) first, then body locations in
  ``(block, statement)`` order — so iterating a bitset from the lowest bit
  upward yields locations already sorted, with no per-call ``sorted()``.
* :class:`BodyIndex` bundles both tables for one body and is what the
  indexed analysis stack (theta, transfer, focus, loans) shares.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.mir.ir import Body, Location, Place


class PlaceDomain:
    """An append-only interning table of places with conflict bitmasks.

    ``index(place)`` is the only mutating operation: it assigns the next
    dense integer to an unseen place and incrementally updates the
    ancestor/descendant masks of every already-interned place (O(n) per
    intern, with n the handful of places a single body names).  Masks are
    therefore always exact, and the read/write-over-conflicts operations of
    the dependency context reduce to ``mask >> i & 1`` tests.
    """

    __slots__ = (
        "_places",
        "_index",
        "_ancestors",
        "_descendants",
        "_proj_len",
        "_by_local",
        "_field_proj",
        "_deref_proj",
        "_base_index",
    )

    def __init__(self, places: Iterable[Place] = ()):
        self._places: List[Place] = []
        self._index: Dict[Place, int] = {}
        # Masks over place indices; entry i includes bit i itself (the prefix
        # relation is reflexive).
        self._ancestors: List[int] = []
        self._descendants: List[int] = []
        self._proj_len: List[int] = []
        # Indices grouped by base local: only same-local places can be
        # prefix-related, so interning scans one bucket, not the table.
        self._by_local: Dict[int, List[int]] = {}
        # Memoised structural projections between interned places.
        self._field_proj: Dict[Tuple[int, int], int] = {}
        self._deref_proj: Dict[int, int] = {}
        self._base_index: Dict[int, int] = {}
        for place in places:
            self.index(place)

    def __len__(self) -> int:
        return len(self._places)

    def __iter__(self) -> Iterator[Place]:
        return iter(self._places)

    def __contains__(self, place: Place) -> bool:
        return place in self._index

    def get(self, place: Place) -> Optional[int]:
        """The index of ``place`` if already interned, else ``None``."""
        return self._index.get(place)

    def index(self, place: Place) -> int:
        """The dense index of ``place``, interning it on first sight."""
        idx = self._index.get(place)
        if idx is not None:
            return idx
        idx = len(self._places)
        bit = 1 << idx
        ancestors = bit
        descendants = bit
        bucket = self._by_local.setdefault(place.local, [])
        places = self._places
        for other_idx in bucket:
            other = places[other_idx]
            if other.is_prefix_of(place):
                ancestors |= 1 << other_idx
                self._descendants[other_idx] |= bit
            if place.is_prefix_of(other):
                descendants |= 1 << other_idx
                self._ancestors[other_idx] |= bit
        bucket.append(idx)
        self._index[place] = idx
        places.append(place)
        self._ancestors.append(ancestors)
        self._descendants.append(descendants)
        self._proj_len.append(len(place.projection))
        return idx

    def place_of(self, idx: int) -> Place:
        return self._places[idx]

    def places_of(self, indices: Iterable[int]) -> List[Place]:
        return [self._places[i] for i in indices]

    # -- structural projections --------------------------------------------------

    def base_index(self, local: int) -> int:
        """Index of the bare local's place, memoised (no Place allocation)."""
        idx = self._base_index.get(local)
        if idx is None:
            idx = self.index(Place(local, ()))
            self._base_index[local] = idx
        return idx

    def project_field_index(self, idx: int, field_index: int) -> int:
        """Index of ``place_of(idx).field(field_index)``, memoised."""
        key = (idx, field_index)
        out = self._field_proj.get(key)
        if out is None:
            out = self.index(self._places[idx].project_field(field_index))
            self._field_proj[key] = out
        return out

    def project_deref_index(self, idx: int) -> int:
        """Index of ``*place_of(idx)``, memoised."""
        out = self._deref_proj.get(idx)
        if out is None:
            out = self.index(self._places[idx].project_deref())
            self._deref_proj[idx] = out
        return out

    # -- conflict masks ----------------------------------------------------------

    def ancestors_mask(self, idx: int) -> int:
        """Interned places of which ``idx`` is a (non-strict) extension."""
        return self._ancestors[idx]

    def descendants_mask(self, idx: int) -> int:
        """Interned places extending ``idx`` (including ``idx`` itself)."""
        return self._descendants[idx]

    def conflicts_mask(self, idx: int) -> int:
        """Interned places conflicting with ``idx`` (Section 2.1's ``⊓``)."""
        return self._ancestors[idx] | self._descendants[idx]

    def projection_len(self, idx: int) -> int:
        """Projection-path length (nearest-ancestor tie-breaking)."""
        return self._proj_len[idx]


class LocationDomain:
    """An interning table of locations with order-preserving indices.

    When locations are interned in ascending :class:`Location` order (the
    constructor from :func:`index_body` guarantees this: argument tags sort
    before real locations because their block is negative), index order *is*
    location order, and :meth:`locations_of` can walk a bitset from the
    lowest set bit upward to produce a sorted list with no ``sorted()``
    call.  Interning out of order afterwards is allowed — the table notices
    and falls back to sorting.
    """

    __slots__ = ("_locations", "_index", "_monotone", "arg_tag_mask")

    def __init__(self, locations: Iterable[Location] = ()):
        self._locations: List[Location] = []
        self._index: Dict[Location, int] = {}
        self._monotone = True
        # Bits of the synthetic per-argument tag locations (block == -2):
        # lets consumers strip or count seed tags without iterating.
        self.arg_tag_mask = 0
        for location in locations:
            self.index(location)

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self) -> Iterator[Location]:
        return iter(self._locations)

    def __contains__(self, location: Location) -> bool:
        return location in self._index

    def index(self, location: Location) -> int:
        """The dense index of ``location``, interning it on first sight."""
        idx = self._index.get(location)
        if idx is not None:
            return idx
        idx = len(self._locations)
        if idx and location < self._locations[-1]:
            self._monotone = False
        self._index[location] = idx
        self._locations.append(location)
        if location.block == ARG_BLOCK:
            self.arg_tag_mask |= 1 << idx
        return idx

    def get(self, location: Location) -> Optional[int]:
        return self._index.get(location)

    @property
    def is_monotone(self) -> bool:
        return self._monotone

    # -- bitset bridging ---------------------------------------------------------

    def mask(self, locations: Iterable[Location]) -> int:
        """The bitset with exactly the bits of ``locations`` set."""
        bits = 0
        for location in locations:
            bits |= 1 << self.index(location)
        return bits

    def locations_of(self, bits: int) -> List[Location]:
        """The locations of a bitset, in ascending location order."""
        out: List[Location] = []
        locations = self._locations
        while bits:
            lsb = bits & -bits
            out.append(locations[lsb.bit_length() - 1])
            bits ^= lsb
        if not self._monotone:
            out.sort()
        return out

    def frozenset_of(self, bits: int) -> frozenset:
        """The locations of a bitset as a frozenset (order-free boundary)."""
        out = set()
        locations = self._locations
        while bits:
            lsb = bits & -bits
            out.add(locations[lsb.bit_length() - 1])
            bits ^= lsb
        return frozenset(out)


class BodyIndex:
    """The pair of interning tables the indexed analysis stack shares."""

    __slots__ = ("body", "places", "locations")

    def __init__(self, body: Body, places: PlaceDomain, locations: LocationDomain):
        self.body = body
        self.places = places
        self.locations = locations


# Synthetic block index tagging "argument i" pseudo-locations.  Kept equal to
# repro.core.theta.ARG_BLOCK (asserted there) without importing core from mir.
ARG_BLOCK = -2


def index_body(body: Body, arg_seed_places: Sequence[Place] = ()) -> BodyIndex:
    """Build the interning tables for ``body``.

    Seeds the locals and the caller-provided ``arg_seed_places`` (the
    deref-reachable argument pointees the analysis driver tags at entry;
    computed by the caller so :mod:`mir` stays below :mod:`borrowck` in the
    layering).  The location table gets one argument tag per parameter, then
    every body location in order, so indices are monotone in location order.
    Every other place interns on demand: the transfer compiler touches every
    place the body names, plus whatever the alias oracle conjures (deref
    expansions, conflict-reachable sub-places).
    """
    places = PlaceDomain()
    for local in body.locals:
        places.index(Place.from_local(local.index))
    for place in arg_seed_places:
        places.index(place)

    locations = LocationDomain()
    for param_index in range(body.arg_count):
        locations.index(Location(ARG_BLOCK, param_index))
    for location in body.locations():
        locations.index(location)
    return BodyIndex(body, places, locations)
