"""Probability normalization, Shannon entropy, and the order index."""

import math
from fractions import Fraction

import pytest

from genemagic import (
    Notation,
    ProbabilityGrid,
    analyze,
    entropy_term,
    load_canonical,
    normalize,
    order_index,
    parse_grid,
    shannon_report,
)
from genemagic.errors import PreconditionError, ShapeError

R4 = load_canonical("R4")
R8A = load_canonical("R8A")
R8B = load_canonical("R8B")
R16 = load_canonical("R16")

# Reference entropy line sums (base-10 logs, rounded to table precision).
R8A_ROW_ENTROPY = [0.6732, 0.6734, 0.6734, 0.6732, 0.6797, 0.6796, 0.6796, 0.6797]
R8A_COL_ENTROPY = [0.6761, 0.6761, 0.6761, 0.6761, 0.6768, 0.6768, 0.6769, 0.6769]
R8B_ROW_ENTROPY = [0.6768, 0.6769, 0.6761, 0.6761, 0.6761, 0.6761, 0.6769, 0.6768]
R8B_COL_ENTROPY = [0.6763, 0.6763, 0.6766, 0.6766, 0.6764, 0.6763, 0.6766, 0.6766]
R16_ROW_ENTROPY = [
    0.97749, 0.97752, 0.97752, 0.97749, 0.97749, 0.97752, 0.97752, 0.97749,
    0.97752, 0.97749, 0.97749, 0.97752, 0.97752, 0.97749, 0.97749, 0.97752,
]
R16_COL_ENTROPY = [
    0.97750, 0.97750, 0.97751, 0.97751, 0.97751, 0.97751, 0.97750, 0.97750,
    0.97750, 0.97750, 0.97751, 0.97751, 0.97751, 0.97751, 0.97750, 0.97750,
]

TOLERANCE = 5e-5


def close(computed, expected):
    return all(abs(c - e) <= TOLERANCE for c, e in zip(computed, expected))


def test_normalize_r8a_bin_first_row():
    prob = normalize(R8A, Notation.BIN)
    numerators = (0, 100110, 111011, 11101, 101, 100011, 111110, 11000)
    assert prob.values[0] == tuple(Fraction(v, 444444) for v in numerators)
    rendered = [f"{float(v):.5f}" for v in prob.values[0]]
    assert rendered == [
        "0.00000", "0.22525", "0.24977", "0.02498",
        "0.00023", "0.22502", "0.25000", "0.02475",
    ]


def test_rows_and_columns_sum_to_exactly_one():
    for grid, notation in (
        (R4, Notation.BIN),
        (R8A, Notation.BIN),
        (R8B, Notation.DEC),
        (R16, Notation.DIGIT),
    ):
        prob = normalize(grid, notation)
        for row in prob.values:
            assert sum(row) == 1
        for j in range(prob.side):
            assert sum(prob.values[i][j] for i in range(prob.side)) == 1


def test_normalize_rejects_non_magic_grid():
    with pytest.raises(PreconditionError) as excinfo:
        normalize(load_canonical("M2"), Notation.DEC)
    message = str(excinfo.value)
    assert "28" in message and "32" in message


def test_normalize_rejects_unequal_columns():
    # rows share a sum but columns do not
    grid = parse_grid("n=1 size=2\nC G\nC G\n")
    with pytest.raises(PreconditionError, match="column"):
        normalize(grid, Notation.DEC)


def test_entropy_term_known_value():
    term = entropy_term(Fraction(11, 2222))
    assert f"{term:.4f}" == "0.0114"
    assert entropy_term(Fraction(0, 1)) == 0.0


def test_terms_computed_from_exact_rationals():
    # recomputing from the 4-decimal display value 0.0050 gives 0.0115,
    # not the 0.0114 the exact rational produces
    rounded = -0.0050 * math.log10(0.0050)
    assert f"{rounded:.4f}" == "0.0115"
    assert f"{entropy_term(Fraction(11, 2222)):.4f}" == "0.0114"


def test_r8a_bin_entropy_lines():
    report = shannon_report(normalize(R8A, Notation.BIN))
    assert close(sorted(report.row_sums), sorted(R8A_ROW_ENTROPY))
    assert close(report.row_sums, R8A_ROW_ENTROPY)
    assert close(report.col_sums, R8A_COL_ENTROPY)
    assert close(report.diag_sums, (0.6763, 0.6766))


def test_r8a_bin_first_term_row():
    report = shannon_report(normalize(R8A, Notation.BIN))
    rendered = [f"{t:.4f}" for t in report.terms[0]]
    assert rendered == [
        "0.0000", "0.1458", "0.1505", "0.0400",
        "0.0008", "0.1458", "0.1505", "0.0398",
    ]


def test_r8b_bin_entropy_lines():
    report = shannon_report(normalize(R8B, Notation.BIN))
    assert close(report.row_sums, R8B_ROW_ENTROPY)
    assert close(report.col_sums, R8B_COL_ENTROPY)
    assert close(report.diag_sums, (0.6763, 0.6763))
    for value in list(report.row_sums) + list(report.col_sums):
        assert 0.6761 - TOLERANCE <= value <= 0.6769 + TOLERANCE


def test_r16_bin_entropy_lines():
    report = shannon_report(normalize(R16, Notation.BIN))
    assert close(report.row_sums, R16_ROW_ENTROPY)
    assert close(report.col_sums, R16_COL_ENTROPY)
    for value in list(report.row_sums) + list(report.col_sums):
        assert 0.97749 - TOLERANCE <= value <= 0.97752 + TOLERANCE
    assert close(report.diag_sums, (0.97750, 0.97751))


def test_r4_bin_probability_rows_match_reference_table():
    # the reference 4x4 probability table is a cell permutation of this
    # one: row multisets agree even though positions do not
    prob = normalize(R4, Notation.BIN)
    reference = [
        {1000, 11, 101, 1110},
        {110, 1101, 1011, 0},
        {1111, 100, 10, 1001},
        {1, 1010, 1100, 111},
    ]
    mine = [{v.numerator * 2222 // v.denominator if v else 0 for v in row} for row in prob.values]
    assert sorted(map(sorted, mine)) == sorted(map(sorted, reference))


def test_r4_bin_row_entropies():
    # three of the four reference row entropies are reproduced; the fourth
    # (0.2630) rests on a term of 0.0400 for p near 0.45, an arithmetic slip
    # whose correct value is 0.1561
    report = shannon_report(normalize(R4, Notation.BIN))
    rounded = sorted(round(v, 4) for v in report.row_sums)
    assert rounded == [0.3713, 0.3733, 0.3777, 0.3791]
    for expected in (0.3713, 0.3733, 0.3777):
        assert any(abs(v - expected) <= TOLERANCE for v in report.row_sums)


def test_row_entropy_invariant_under_cell_permutation():
    prob = normalize(R4, Notation.BIN)
    for row in prob.values:
        base = math.fsum(entropy_term(v) for v in row)
        shuffled = math.fsum(entropy_term(v) for v in reversed(row))
        assert abs(base - shuffled) < 1e-15


def test_entropy_bounded_by_log_side():
    for grid, notation in ((R4, Notation.BIN), (R8B, Notation.BIN), (R16, Notation.BIN)):
        report = shannon_report(normalize(grid, notation))
        bound = math.log10(grid.side) + 1e-12
        for value in list(report.row_sums) + list(report.col_sums):
            assert 0 <= value <= bound


@pytest.mark.parametrize("notation", list(Notation))
def test_r8b_order_index_identity(notation):
    # for a bimagic grid sum(p^2) is S2 / S1^2 exactly, on every line
    report = analyze(R8B, notation)
    expected = Fraction(report.s2, report.s1**2)
    index = order_index(normalize(R8B, notation))
    assert set(index.rows) == {expected}
    assert set(index.cols) == {expected}


def test_r8b_bin_order_index_decimal():
    index = order_index(normalize(R8B, Notation.BIN))
    assert index.rows[0] == Fraction(44893328844, 444444**2)
    assert f"{float(index.rows[0]):.4f}" == "0.2273"


def test_r16_bin_order_index_decimal():
    index = order_index(normalize(R16, Notation.BIN))
    assert set(index.rows) == set(index.cols) == {Fraction(897867554657688, 88888888**2)}
    assert f"{float(index.rows[0]):.5f}" == "0.11364"


def test_degenerate_single_mass_row():
    # rows holding a single nonzero cell give order index exactly 1
    grid = parse_grid("n=2 size=2\nCC TT\nTT CC\n")
    prob = normalize(grid, Notation.BIN)
    index = order_index(prob)
    assert set(index.rows) == {Fraction(1)}
    report = shannon_report(prob)
    assert set(report.row_sums) == {0.0}


def test_uniform_rows_reach_maximum_entropy():
    grid = parse_grid("n=2 size=4\n" + "\n".join(["AT AT AT AT"] * 4))
    report = shannon_report(normalize(grid, Notation.DEC))
    for value in report.row_sums:
        assert abs(value - math.log10(4)) < 1e-12


def test_ragged_probability_row_message_names_the_row_and_its_length():
    values = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3),) * 3)
    with pytest.raises(ShapeError, match=r"^probability row 2 has 3 values, expected 2$"):
        ProbabilityGrid(values, Notation.DEC, 1)
