"""Dense bitsets and index matrices: the storage layer of the fast engine.

Python's arbitrary-precision integers are contiguous arrays of 30-bit limbs,
so a dependency set over an interned :class:`~repro.mir.indices.LocationDomain`
stored as one ``int`` supports union (``|``), subset (``a & b == a``) and
membership (``bits >> i & 1``) as single C-level operations — the same trick
rustc's bit-set and index-matrix types play with ``u64`` words.  The indexed
dependency context stores raw ints on its hot path; :class:`IndexMatrix` is
the structured face of that representation: rows of bits keyed by a row
index (place index → location bits for Θ, place index → place bits for loan
sets), with key-wise in-place union that returns a *dirty bit*, the change
signal the worklist fixpoint keys off.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple


def popcount(bits: int) -> int:
    """Number of set bits of a non-negative int."""
    return bits.bit_count()


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def mask_of(indices: Iterable[int]) -> int:
    """The bitset with exactly ``indices`` set."""
    bits = 0
    for index in indices:
        bits |= 1 << index
    return bits


class IndexMatrix:
    """A sparse matrix of bit rows: row index → int bitset.

    Absent rows read as empty; a row is materialised by the first write.
    This is the value representation behind the indexed dependency context
    (Θ as place-index rows of location bits) and the interned loan map.
    """

    __slots__ = ("rows", "keys_mask")

    def __init__(self, rows: Dict[int, int] = None, keys_mask: int = None):
        self.rows: Dict[int, int] = {} if rows is None else rows
        # Bitset of materialised row indices, maintained on every insert: it
        # lets conflict scans intersect against the tracked-row set in one
        # ``&`` and then visit only the overlapping rows.
        if keys_mask is None:
            keys_mask = mask_of(self.rows)
        self.keys_mask = keys_mask

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: int) -> bool:
        return row in self.rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("IndexMatrix is mutable and unhashable")

    # -- rows -------------------------------------------------------------------

    def row(self, index: int) -> int:
        return self.rows.get(index, 0)

    def set_row(self, index: int, bits: int) -> None:
        self.rows[index] = bits
        self.keys_mask |= 1 << index

    def or_row(self, index: int, bits: int) -> bool:
        """Union ``bits`` into one row; True when the row grew (dirty bit).

        The row is materialised even when ``bits`` is empty — presence of a
        row is meaningful to Θ (a tracked place with no dependencies is
        different from an untracked place).
        """
        before = self.rows.get(index)
        if before is None:
            self.rows[index] = bits
            self.keys_mask |= 1 << index
            return True
        after = before | bits
        if after != before:
            self.rows[index] = after
            return True
        return False

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self.rows.items())

    # -- whole-matrix operations -------------------------------------------------

    def union_into(self, other: "IndexMatrix") -> bool:
        """Key-wise in-place union of ``other`` into self; returns the dirty
        bit — the change-detection signal of the bitset fixpoint driver."""
        dirty = False
        rows = self.rows
        for index, bits in other.rows.items():
            before = rows.get(index)
            if before is None:
                rows[index] = bits
                dirty = True
            else:
                after = before | bits
                if after != before:
                    rows[index] = after
                    dirty = True
        self.keys_mask |= other.keys_mask
        return dirty

    def copy(self) -> "IndexMatrix":
        return IndexMatrix(dict(self.rows), self.keys_mask)

    def popcount_total(self) -> int:
        """Total number of set bits across all rows."""
        return sum(popcount(bits) for bits in self.rows.values())

    def density(self, num_rows: int, num_cols: int) -> float:
        """Fraction of set bits over a ``num_rows × num_cols`` dense grid."""
        cells = num_rows * num_cols
        if cells <= 0:
            return 0.0
        return self.popcount_total() / cells
