"""Antiparallel tetramer classification and the enzyme orientation table."""

from itertools import permutations

import pytest

from genemagic import (
    ANTIPARALLEL_PAIRS,
    ENZYME_TABLE,
    Grid,
    Notation,
    antiparallel_check,
    block_locality_check,
    classify,
    load_canonical,
    orientation_sums,
)
from genemagic.enzymes import OPPOSITE, SAME, UNLISTED, record
from genemagic.errors import DataError, DomainError, ShapeError

ALL_DISTINCT = ["".join(p) for p in permutations("ACGT")]
R16 = load_canonical("R16")


def test_table_counts():
    assert len(ENZYME_TABLE) == 16
    same = [r for r in ENZYME_TABLE if r.orientation == SAME]
    opposite = [r for r in ENZYME_TABLE if r.orientation == OPPOSITE]
    assert len(same) == len(opposite) == 8
    assert sum(r.enzyme_count for r in same) == 88
    assert sum(r.enzyme_count for r in opposite) == 20
    assert sum(r.enzyme_count for r in ENZYME_TABLE) == 108


def test_classify_known_tetramers():
    assert classify("GATC") == SAME
    assert record("GATC").enzyme_count == 45
    assert classify("TGCA") == OPPOSITE
    assert record("TGCA").enzyme_count == 11
    assert record("TCGA").enzyme_count == 32
    assert record("AGCT").enzyme_count == 9
    assert classify("AGTC") == UNLISTED
    assert record("AGTC") is None


def test_classify_rejects_repeated_letters():
    with pytest.raises(DomainError):
        classify("AATC")
    with pytest.raises(DomainError):
        antiparallel_check("GGGG")


def test_classify_partitions_the_24_permutations():
    groups = {SAME: 0, OPPOSITE: 0, UNLISTED: 0}
    for tetramer in ALL_DISTINCT:
        groups[classify(tetramer)] += 1
    assert groups == {SAME: 8, OPPOSITE: 8, UNLISTED: 8}


def test_antiparallel_check_known():
    assert antiparallel_check("AGCT")  # holds GC
    assert not antiparallel_check("AGTC")


def test_antiparallel_check_separates_listed_from_unlisted():
    # oracle: full enumeration of the 24 all-distinct tetramers
    listed = {r.tetramer for r in ENZYME_TABLE}
    for tetramer in ALL_DISTINCT:
        assert antiparallel_check(tetramer) == (tetramer in listed)


@pytest.mark.parametrize(
    "notation,total",
    [(Notation.DEC, 1028), (Notation.DIGIT, 22220), (Notation.BIN, 44444444)],
)
def test_orientation_sums(notation, total):
    sums = orientation_sums(notation)
    assert sums == {SAME: total, OPPOSITE: total}


def test_pairs_relate_by_single_rotation():
    # each opposite-orientation member is its partner rotated right by one
    assert len(ANTIPARALLEL_PAIRS) == 8
    for same, opposite in ANTIPARALLEL_PAIRS:
        assert opposite == same[-1] + same[:-1]
        assert classify(same) == SAME
        assert classify(opposite) == OPPOSITE


def test_groups_closed_under_double_rotation():
    same = {r.tetramer for r in ENZYME_TABLE if r.orientation == SAME}
    opposite = {r.tetramer for r in ENZYME_TABLE if r.orientation == OPPOSITE}
    rot2 = lambda w: w[2:] + w[:2]
    assert {rot2(w) for w in same} == same
    assert {rot2(w) for w in opposite} == opposite


def test_block_locality_of_r16():
    assert block_locality_check(R16)


def test_block_locality_detects_cross_block_swap():
    cells = [list(row) for row in R16.cells]
    # move GATC (row 9, col 3) out of its block by swapping with a cell
    # in the next block over
    assert cells[8][2] == "GATC"
    cells[8][2], cells[8][6] = cells[8][6], cells[8][2]
    swapped = Grid(tuple(tuple(row) for row in cells))
    assert not block_locality_check(swapped)


def test_block_locality_rejects_pairs_in_the_upper_blocks():
    # every pair still shares a 4x4 block, but in block rows 1-2 of 4
    assert not block_locality_check(Grid(tuple(reversed(R16.cells))))


def test_block_locality_requires_listed_tetramers():
    cells = [list(row) for row in R16.cells]
    cells[8][2] = "CCCC"  # replace GATC; duplicates are fine, absence is not
    broken = Grid(tuple(tuple(row) for row in cells))
    with pytest.raises(DataError, match="GATC"):
        block_locality_check(broken)


def test_block_locality_needs_16x16_tetramers():
    with pytest.raises(ShapeError):
        block_locality_check(load_canonical("ENZ"))


def test_pairs_live_in_the_lower_blocks():
    position = {
        word: (i, j)
        for i, row in enumerate(R16.cells)
        for j, word in enumerate(row)
    }
    for same, opposite in ANTIPARALLEL_PAIRS:
        si, sj = position[same]
        oi, oj = position[opposite]
        assert (si // 4, sj // 4) == (oi // 4, oj // 4)
        assert si // 4 >= 2


def test_enz_grid_agrees_with_table():
    enz = load_canonical("ENZ")
    assert list(enz.cells[0]) + list(enz.cells[1]) == [
        r.tetramer for r in ENZYME_TABLE if r.orientation == SAME
    ]
    assert list(enz.cells[2]) + list(enz.cells[3]) == [
        r.tetramer for r in ENZYME_TABLE if r.orientation == OPPOSITE
    ]


def test_block_locality_rejects_upper_pairs_off_the_first_row():
    # block rows 3-4 moved to the top, then the first block's pair moved from
    # grid row 1 to row 2: every pair shares a block, none lies on row 1
    cells = [list(row) for row in R16.cells[8:] + R16.cells[:8]]
    cells[0][:4], cells[1][:4] = cells[1][:4], cells[0][:4]
    grid = Grid(tuple(tuple(row) for row in cells))
    members = {tetramer for pair in ANTIPARALLEL_PAIRS for tetramer in pair}
    assert members.isdisjoint(grid.cells[0])
    assert block_locality_check(Grid(grid.cells[8:] + grid.cells[:8]))
    assert not block_locality_check(grid)
