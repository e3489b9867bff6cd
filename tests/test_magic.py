"""Exact S1/S2 verification, block reports, and 37-divisibility."""

import pytest

from genemagic import (
    Grid,
    Notation,
    analyze,
    block_report,
    divisibility_facts,
    load_canonical,
    numeric_grid,
    rect_block_report,
)
from genemagic.errors import ShapeError

R4 = load_canonical("R4")
R8A = load_canonical("R8A")
R8B = load_canonical("R8B")
R16 = load_canonical("R16")


@pytest.mark.parametrize(
    "notation,s1",
    [(Notation.BIN, 2222), (Notation.DIGIT, 110), (Notation.DEC, 34)],
)
def test_r4_magic_sums(notation, s1):
    report = analyze(R4, notation)
    assert report.magic
    assert report.s1 == s1


@pytest.mark.parametrize(
    "notation,s1,s2",
    [
        (Notation.BIN, 444444, 44893328844),
        (Notation.DIGIT, 2220, 717060),
        (Notation.DEC, 260, 11180),
    ],
)
def test_r8a_is_column_bimagic_only(notation, s1, s2):
    report = analyze(R8A, notation)
    assert report.magic
    assert report.s1 == s1
    assert report.column_bimagic
    assert set(report.s2_cols) == {s2}
    assert report.s2 == s2
    assert not report.bimagic
    assert len(set(report.s2_rows)) > 1


@pytest.mark.parametrize(
    "notation,s1,s2",
    [
        (Notation.BIN, 444444, 44893328844),
        (Notation.DIGIT, 2220, 717060),
        (Notation.DEC, 260, 11180),
    ],
)
def test_r8b_is_fully_bimagic(notation, s1, s2):
    report = analyze(R8B, notation)
    assert report.bimagic
    assert report.s1 == s1
    assert report.s2 == s2
    assert set(report.s2_rows) == set(report.s2_cols) == set(report.s2_diags) == {s2}


@pytest.mark.parametrize(
    "notation,s1,s2,block_s1",
    [
        (Notation.BIN, 88888888, 897867554657688, 22222222),
        (Notation.DIGIT, 44440, 143634120, 11110),
        (Notation.DEC, 2056, 351576, 514),
    ],
)
def test_r16_bimagic_and_blocks(notation, s1, s2, block_s1):
    report = analyze(R16, notation)
    assert report.bimagic
    assert report.s1 == s1
    assert report.s2 == s2
    blocks = block_report(R16, notation, 4)
    assert len(blocks) == 16
    assert all(b.magic_subsquare for b in blocks.values())
    assert {b.total for b in blocks.values()} == {4 * block_s1}


def test_r16_block_square_totals_partition_the_grid():
    # the 16 blocks cover the grid, so their square totals add to 16 * S2
    # (they are not individually S2)
    blocks = block_report(R16, Notation.BIN, 4)
    assert sum(b.square_total for b in blocks.values()) == 16 * 897867554657688
    assert len({b.square_total for b in blocks.values()}) > 1


def test_r8a_blocks():
    blocks = block_report(R8A, Notation.BIN, 4)
    assert all(b.magic_subsquare for b in blocks.values())
    assert {b.total for b in blocks.values()} == {4 * 222222}
    digit_blocks = block_report(R8A, Notation.DIGIT, 4)
    assert {b.total for b in digit_blocks.values()} == {4 * 1110}


def test_r8a_two_by_two_blocks_sum_130():
    # oracle: direct summation of all sixteen 2x2 blocks
    values = numeric_grid(R8A, Notation.DEC).values
    assert values[0][0] + values[0][1] + values[1][0] + values[1][1] == 1 + 39 + 58 + 32
    expected = {
        sum(values[bi * 2 + di][bj * 2 + dj] for di in range(2) for dj in range(2))
        for bi in range(4)
        for bj in range(4)
    }
    assert expected == {130}
    blocks = block_report(R8A, Notation.DEC, 2)
    assert {b.total for b in blocks.values()} == {130}
    assert all(b.magic_subsquare is None for b in blocks.values())


@pytest.mark.parametrize(
    "notation,s1,s2",
    [
        (Notation.DEC, 260, 11180),
        (Notation.DIGIT, 2220, 717060),
        (Notation.BIN, 444444, 44893328844),
    ],
)
def test_r8b_rect_blocks_are_bimagic(notation, s1, s2):
    blocks = rect_block_report(R8B, notation, 2, 4)
    assert len(blocks) == 8
    assert {b.total for b in blocks.values()} == {s1}
    assert {b.square_total for b in blocks.values()} == {s2}


def test_r8b_first_rect_block_oracle():
    # first 2x4 block, summed by hand from the rendered values
    cells = [16, 41, 36, 5, 26, 63, 54, 19]
    assert sum(cells) == 260
    assert sum(v * v for v in cells) == 11180


def test_r4_whole_grid_rect_block():
    blocks = rect_block_report(R4, Notation.DEC, 4, 4)
    assert list(blocks.values())[0].total == 4 * 34


def test_divisibility_quotients():
    bin_report = analyze(R8B, Notation.BIN)
    assert (444444, 12012) in bin_report.divisibility
    assert (44893328844, 1213333212) in bin_report.divisibility
    digit_report = analyze(R8B, Notation.DIGIT)
    assert (2220, 60) in digit_report.divisibility
    assert (717060, 19380) in digit_report.divisibility
    r16_report = analyze(R16, Notation.BIN)
    assert r16_report.divisibility == ((897867554657688, 24266690666424),)
    dec_report = analyze(R8B, Notation.DEC)
    values = [v for v, _ in dec_report.divisibility]
    assert 260 not in values
    assert 11180 not in values


def test_r8a_half_lines_and_divisibility():
    digit_report = analyze(R8A, Notation.DIGIT)
    assert set(digit_report.half_line_sums.values()) == {1110}
    assert digit_report.divisibility == ((1110, 30), (2220, 60), (717060, 19380))
    bin_report = analyze(R8A, Notation.BIN)
    assert set(bin_report.half_line_sums.values()) == {222222}
    assert (222222, 6006) in bin_report.divisibility
    dec_report = analyze(R8A, Notation.DEC)
    assert set(dec_report.half_line_sums.values()) == {130}
    assert dec_report.divisibility == ()


def test_r8b_half_rows_pair_to_s1_but_are_not_constant():
    # unlike the first 8x8 table, halves here are unequal; the two halves
    # of every line still add to S1
    report = analyze(R8B, Notation.DEC)
    sums = report.half_line_sums
    by_line = {}
    for region, total in sums.items():
        by_line.setdefault((region.kind, region.index[0]), []).append(total)
    assert all(sum(halves) == 260 for halves in by_line.values())
    assert len(set(sums.values())) > 1


def test_base_grids_are_not_magic():
    for table_id in ("M1", "M2", "M3"):
        grid = load_canonical(table_id)
        for notation in Notation:
            report = analyze(grid, notation)
            assert not report.magic
            # oracle: row sums computed directly
            values = numeric_grid(grid, notation).values
            row_sums = {sum(row) for row in values}
            col_sums = {
                sum(values[i][j] for i in range(grid.side)) for j in range(grid.side)
            }
            assert len(row_sums | col_sums) > 1


def test_s1_defined_by_common_row_sum():
    # rows of M2 under DIGIT share no sum, so s1 is absent
    report = analyze(load_canonical("M2"), Notation.DIGIT)
    assert report.s1 is None
    assert not report.magic


def test_block_report_rejects_bad_sizes():
    with pytest.raises(ShapeError):
        block_report(R8A, Notation.DEC, 3)
    with pytest.raises(ShapeError):
        rect_block_report(R8B, Notation.DEC, 3, 4)
    with pytest.raises(ShapeError):
        rect_block_report(R8B, Notation.DEC, 2, 0)


def test_divisibility_facts_reads_report():
    report = analyze(R8A, Notation.DIGIT)
    assert divisibility_facts(report) == report.divisibility


def test_largest_value_is_exact():
    assert 24266690666424 * 37 == 897867554657688
    report = analyze(R16, Notation.BIN)
    assert report.s2 == 897867554657688


@pytest.mark.parametrize("k", [0, -2])
def test_block_size_below_one_is_a_shape_error(k):
    with pytest.raises(ShapeError, match=f"block size {k} does not divide side 4"):
        block_report(R4, Notation.DEC, k)


def test_one_row_blocks():
    values = numeric_grid(R4, Notation.DEC).values
    report = rect_block_report(R4, Notation.DEC, 1, 2)
    assert list(report) == [(i, j) for i in range(4) for j in range(2)]
    for (i, j), sums in report.items():
        pair = values[i][2 * j:2 * j + 2]
        assert sums == (sum(pair), sum(v * v for v in pair), None)


def test_column_bimagic_needs_a_magic_grid():
    # every column holds the same values, so equal sums and square sums,
    # but the two diagonals differ
    report = analyze(Grid((("C", "A"), ("A", "C"))), Notation.DEC)
    assert len(set(report.s1_cols + report.s2_cols)) == 2
    assert not report.magic and not report.column_bimagic
