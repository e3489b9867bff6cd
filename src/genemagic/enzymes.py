"""Tetramer antiparallel classification and the restriction-enzyme table.

Sixteen tetramers built from all four letters are known cut sites of the
tetrameric restriction enzymes; eight have the A-T/G-C pairing in the
same orientation, eight in the opposite orientation.  Counts per site
are embedded data and are never recomputed.  Each same-orientation site
pairs with its right rotation in the opposite group.
"""

from __future__ import annotations

from typing import NamedTuple

from .encoding import Notation, encode, parse_word
from .errors import DataError, DomainError, ShapeError
from .tables import Grid

SAME = "same"
OPPOSITE = "opposite"
UNLISTED = "unlisted"


class EnzymeRecord(NamedTuple):
    tetramer: str
    orientation: str
    enzyme_count: int


# Orientation groups in table order; counts total 88 (same) + 20 (opposite).
ENZYME_TABLE: tuple[EnzymeRecord, ...] = (
    EnzymeRecord("AGCT", SAME, 9),
    EnzymeRecord("CGTA", SAME, 0),
    EnzymeRecord("TACG", SAME, 0),
    EnzymeRecord("CTAG", SAME, 1),
    EnzymeRecord("GCAT", SAME, 1),
    EnzymeRecord("TCGA", SAME, 32),
    EnzymeRecord("ATGC", SAME, 0),
    EnzymeRecord("GATC", SAME, 45),
    EnzymeRecord("TAGC", OPPOSITE, 0),
    EnzymeRecord("ACGT", OPPOSITE, 2),
    EnzymeRecord("GTAC", OPPOSITE, 4),
    EnzymeRecord("GCTA", OPPOSITE, 0),
    EnzymeRecord("TGCA", OPPOSITE, 11),
    EnzymeRecord("ATCG", OPPOSITE, 0),
    EnzymeRecord("CATG", OPPOSITE, 3),
    EnzymeRecord("CGAT", OPPOSITE, 0),
)

_BY_TETRAMER = {r.tetramer: r for r in ENZYME_TABLE}

#: The eight antiparallel pairs (same-orientation site, its opposite partner).
ANTIPARALLEL_PAIRS: tuple[tuple[str, str], ...] = tuple(
    (s.tetramer, o.tetramer)
    for s, o in zip(ENZYME_TABLE[:8], ENZYME_TABLE[8:])
)


def _all_distinct(tetramer: str) -> str:
    word = parse_word(tetramer)
    if len(word) != 4 or set(word) != set("ACGT"):
        raise DomainError(
            f"{tetramer!r} must use each of the four letters exactly once"
        )
    return word


def record(tetramer: str) -> EnzymeRecord | None:
    """The embedded record for a listed tetramer, or None."""
    return _BY_TETRAMER.get(_all_distinct(tetramer))


def classify(tetramer: str) -> str:
    """Orientation of a four-distinct-letter tetramer, or "unlisted"."""
    rec = record(tetramer)
    return rec.orientation if rec else UNLISTED


def antiparallel_check(tetramer: str) -> bool:
    """True when the tetramer holds AT, TA, GC, or CG as an adjacent pair.

    Adjacency wraps around the last letter.  Over the 24 all-distinct
    tetramers this criterion selects exactly the 16 listed ones.
    """
    word = _all_distinct(tetramer)
    wrapped = word + word[0]
    return any(dimer in wrapped for dimer in ("AT", "TA", "GC", "CG"))


def orientation_sums(notation: Notation) -> dict[str, int]:
    """Sum of tetramer encodings per orientation group."""
    sums = {SAME: 0, OPPOSITE: 0}
    for rec in ENZYME_TABLE:
        sums[rec.orientation] += encode(rec.tetramer, notation)
    return sums


def block_locality_check(grid: Grid) -> bool:
    """Check that every antiparallel pair shares one aligned 4x4 block.

    Both members of each pair must land in the same block, and all pairs
    must lie in the lower eight blocks (block rows 3 and 4 of 4).
    """
    if grid.side != 16 or grid.word_len != 4:
        raise ShapeError("block locality is defined for 16x16 grids of tetramers")
    position: dict[str, tuple[int, int]] = {}
    for i, row in enumerate(grid.cells):
        for j, word in enumerate(row):
            position[word] = (i, j)
    for same, opposite in ANTIPARALLEL_PAIRS:
        for tetramer in (same, opposite):
            if tetramer not in position:
                raise DataError(f"grid is missing listed tetramer {tetramer}")
        (si, sj), (oi, oj) = position[same], position[opposite]
        if (si // 4, sj // 4) != (oi // 4, oj // 4):
            return False
        if si // 4 < 2:
            return False
    return True
