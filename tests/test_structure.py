"""Place permutations, Latin-square checks, and XOR letter grids."""

import re

import pytest

from genemagic import (
    Region,
    balance_report,
    latin_square_check,
    load_canonical,
    orthogonality_check,
    place_letters,
    place_permutation_report,
    standard_regions,
    xor_letter_grid,
)
from genemagic.errors import ShapeError
from genemagic.structure import (
    blocks,
    columns,
    diagonals,
    half_columns,
    half_diagonals,
    half_rows,
    rows,
)

R4 = load_canonical("R4")
M2 = load_canonical("M2")
R8A = load_canonical("R8A")
R8B = load_canonical("R8B")
R16 = load_canonical("R16")

# Expected XOR letter grids of the two 8x8 tables.
R8A_XOR = ["ahcfdebg", "debgahcf", "fchagbed", "gbedfcha",
           "cfahbgde", "bgdecfah", "hafcedgb", "edgbhafc"]
R8B_XOR = ["agechbdf", "hbdfagec", "agechbdf", "hbdfagec",
           "hbdfagec", "agechbdf", "hbdfagec", "agechbdf"]


def test_place_letters_projection():
    assert place_letters(R4, 1) == (
        ("A", "T", "C", "G"),
        ("C", "G", "A", "T"),
        ("G", "C", "T", "A"),
        ("T", "A", "G", "C"),
    )
    with pytest.raises(ShapeError):
        place_letters(R4, 3)
    with pytest.raises(ShapeError):
        place_letters(R4, 0)


def test_r4_place_permutations_pass_everywhere():
    for place in (1, 2):
        report = place_permutation_report(R4, place, standard_regions(4))
        assert all(report.values())


def test_m2_row_passes_but_column_fails():
    # oracle: M2 row 1 first letters are C,A,T,G; column 1 first letters C,C,C,C
    assert [w[0] for w in M2.cells[0]] == ["C", "A", "T", "G"]
    assert [row[0][0] for row in M2.cells] == ["C", "C", "C", "C"]
    report = place_permutation_report(M2, 1, rows(4) + columns(4))
    assert report[Region("row", (0,))] is True
    assert report[Region("column", (0,))] is False


def test_region_size_must_be_multiple_of_four():
    with pytest.raises(ShapeError, match="multiple of 4"):
        place_permutation_report(M2, 1, [Region("half_row", (0, 0))])


def test_r16_place_permutations_exhaustive():
    regions = rows(16) + columns(16) + blocks(16, 4)
    for place in range(1, 5):
        report = place_permutation_report(R16, place, regions)
        assert all(report.values())


def test_r4_projections_are_orthogonal_diagonal_latin_squares():
    first, second = place_letters(R4, 1), place_letters(R4, 2)
    assert latin_square_check(first).diagonal_latin
    assert latin_square_check(second).diagonal_latin
    assert orthogonality_check(first, second)


def test_orthogonality_of_identical_squares_fails():
    first = place_letters(R4, 1)
    assert not orthogonality_check(first, first)


def test_m2_projections_orthogonal():
    # oracle: M2 holds all 16 two-letter words once, so the superimposed
    # (first, second) pairs enumerate all 16 combinations
    pairs = {(w[0], w[1]) for w in M2.words()}
    assert len(pairs) == 16
    assert orthogonality_check(place_letters(M2, 1), place_letters(M2, 2))


def test_orthogonality_shape_mismatch():
    with pytest.raises(ShapeError):
        orthogonality_check(place_letters(M2, 1), place_letters(R8A, 1))


def test_all_same_symbol_square_is_not_latin():
    square = [["C"] * 4 for _ in range(4)]
    verdict = latin_square_check(square)
    assert not verdict.latin
    assert not verdict.diagonal_latin


def test_latin_check_rejects_oversized_alphabet():
    with pytest.raises(ShapeError):
        latin_square_check([["a", "b"], ["c", "d"]])
    with pytest.raises(ShapeError):
        latin_square_check([["a", "b", "c"], ["b", "c", "a"]])


def test_r4_xor_grid_values():
    grid = xor_letter_grid(R4)
    assert [list(row) for row in grid] == [
        [3, 2, 0, 1],
        [1, 0, 2, 3],
        [0, 1, 3, 2],
        [2, 3, 1, 0],
    ]
    verdict = latin_square_check(grid)
    assert verdict.latin
    assert not verdict.diagonal_latin


def test_r8a_xor_grid_is_diagonal_latin():
    grid = xor_letter_grid(R8A)
    assert ["".join(row) for row in grid] == R8A_XOR
    assert grid[0] == tuple("ahcfdebg")
    assert latin_square_check(grid).diagonal_latin


def test_r8b_xor_grid_is_not_latin():
    grid = xor_letter_grid(R8B)
    assert ["".join(row) for row in grid] == R8B_XOR
    assert not latin_square_check(grid).latin


def test_r8a_xor_blocks_split_into_two_groups():
    grid = xor_letter_grid(R8A)
    groups = {
        frozenset(grid[bi * 2 + di][bj * 2 + dj] for di in range(2) for dj in range(2))
        for bi in range(4)
        for bj in range(4)
    }
    assert groups == {frozenset("adeh"), frozenset("bcfg")}


def test_xor_grid_rejects_unsupported_word_length():
    with pytest.raises(ShapeError):
        xor_letter_grid(R16)
    with pytest.raises(ShapeError):
        xor_letter_grid(load_canonical("M1"))


def test_region_cells_and_labels():
    assert Region("row", (0,)).cells(4) == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert Region("anti_diagonal").cells(2) == ((0, 1), (1, 0))
    assert Region("block", (2, 1, 0)).cells(4) == ((2, 0), (2, 1), (3, 0), (3, 1))
    assert Region("half_row", (2, 1)).cells(8) == tuple((2, j) for j in range(4, 8))
    assert Region("half_diagonal", (1, 0)).cells(4) == ((0, 3), (1, 2))
    assert Region("row", (1,)).label == "row 2"
    assert Region("block", (4, 0, 2)).label == "block 4x4 (1,3)"
    assert Region("half_row", (0, 0)).label == "half row 1 (left)"
    assert Region("half_diagonal", (1, 1)).label == "half anti diagonal (second)"
    assert Region("main_diagonal").label == "main diagonal"


def test_region_errors():
    with pytest.raises(ShapeError):
        Region("block", (3, 0, 0)).cells(4)
    with pytest.raises(ShapeError):
        Region("half_row", (0, 0)).cells(5)
    with pytest.raises(ShapeError):
        Region("bogus").cells(4)
    with pytest.raises(ShapeError):
        blocks(8, 3)


@pytest.mark.parametrize(
    "region, side, label",
    [
        (Region("row", (20,)), 4, "row 21"),
        (Region("column", (-1,)), 4, "column 0"),
        (Region("block", (2, 2, 0)), 4, "block 2x2 (3,1)"),
        (Region("half_row", (8, 1)), 8, "half row 9 (right)"),
    ],
)
def test_region_cells_outside_the_grid_are_a_shape_error(region, side, label):
    message = f"region {label!r} lies outside a grid of side {side}"
    with pytest.raises(ShapeError, match=re.escape(message)):
        region.cells(side)


def test_standard_regions_is_a_fresh_list_of_the_same_regions():
    first = standard_regions(8)
    first.clear()
    assert standard_regions(8) == (
        rows(8) + columns(8) + diagonals() + blocks(8, 2) + blocks(8, 4)
        + half_rows(8) + half_columns(8) + half_diagonals()
    )


def test_standard_regions_sizes():
    assert len(standard_regions(4)) == 4 + 4 + 2 + 4
    assert len(standard_regions(8)) == 8 + 8 + 2 + 16 + 4 + 16 + 16 + 4
    assert len(standard_regions(16)) == 16 + 16 + 2 + 64 + 16 + 32 + 32 + 4


def test_half_rows_cover_rows():
    for region in half_rows(8):
        assert len(region.cells(8)) == 4
    assert len(half_rows(8)) == 16
    assert len(diagonals()) == 2


@pytest.mark.parametrize(
    "kind, index, words",
    [
        ("block", (0, 0, 0), "block size 0"),
        ("block", (-2, 0, 0), "block size -2"),
        ("row", (), "length 1"),
        ("main_diagonal", (0,), "length 0"),
        ("half_row", (0, 2), "selectors must be 0 or 1"),
        ("half_column", (1, -1), "selectors"),
        ("half_diagonal", (5, 0), "selectors"),
        ("bogus", (), "unknown region kind"),
    ],
)
def test_malformed_region_index_is_a_shape_error(kind, index, words):
    # the message names the kind and the index: no label can be built for these
    region = Region(kind, index)
    message = rf"{kind} region index {re.escape(repr(index))}.*{words}"
    with pytest.raises(ShapeError, match=message):
        region.cells(4)
    with pytest.raises(ShapeError, match=message):
        region.label
    with pytest.raises(ShapeError):
        place_permutation_report(R4, 1, [region])
    with pytest.raises(ShapeError):
        balance_report(R4, [region])


def test_region_is_an_immutable_value():
    region = Region("row", (0,))
    assert repr(region) == "Region(kind='row', index=(0,))"
    assert repr(Region("main_diagonal")) == "Region(kind='main_diagonal', index=())"
    with pytest.raises(AttributeError):
        region.kind = "column"
    with pytest.raises(AttributeError):
        region.extra = 1


def test_reports_answer_lookups_by_separately_built_regions():
    regions = standard_regions(16)
    place = place_permutation_report(R16, 1, regions)
    # balance needs regions of a multiple of 2^4 cells: lines and 4x4 blocks
    balance = balance_report(R16, [r for r in regions if len(r.cells(16)) % 16 == 0])
    expected = {Region("row", (0,)): True, blocks(16, 4)[5]: True, Region("main_diagonal"): False}
    for key, balanced in expected.items():
        assert not any(key is region for region in regions)
        assert place[key] is True
        assert balance[key] is balanced
