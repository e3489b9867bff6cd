"""The integer region-tally kernels against the per-cell algorithms they replaced.

Each ``ref_*`` function below is the plain per-cell computation: encode
every word from its letter codes, sum the cells of each region, count
letters and weights cell by cell, and square every probability.  The
library must give equal results, or raise the same error, on the
canonical tables, their complements and dihedral images, and generated
grids.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genemagic import (
    CANONICAL_IDS,
    Grid,
    Notation,
    ProbabilityGrid,
    Region,
    analyze,
    balance_report,
    block_report,
    complement,
    encoding,
    entropy_term,
    latin_square_check,
    load_canonical,
    normalize,
    numeric_grid,
    order_index,
    parse_grid,
    place_letters,
    place_permutation_report,
    rect_block_report,
    serialize_grid,
    shannon_report,
    standard_regions,
    tables,
    weight_grid,
    xor_letter_grid,
    xor_reduce,
)
from genemagic.cli import main
from genemagic.encoding import BIT_PAIRS, LETTER_DIGITS, LETTERS
from genemagic.entropy import EntropyReport, OrderIndex
from genemagic.errors import GenemagicError, PreconditionError, ShapeError
from genemagic.hamming import monomial
from genemagic.magic import DIVISOR, BlockSums, MagicReport
from genemagic.structure import (
    blocks,
    columns,
    diagonals,
    half_columns,
    half_diagonals,
    half_rows,
    rows,
)


def examples(count):
    return settings(max_examples=count, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# Reference algorithms, one cell at a time.
# ---------------------------------------------------------------------------

def ref_value(word, notation):
    bits = "".join(BIT_PAIRS[c] for c in word)
    if notation is Notation.BIN:
        return int(bits, 10)
    if notation is Notation.DIGIT:
        return int("".join(LETTER_DIGITS[c] for c in word), 10)
    return int(bits, 2) + 1


def ref_values(grid, notation):
    return tuple(tuple(ref_value(word, notation) for word in row) for row in grid.cells)


def ref_line_sums(values, side):
    return (
        tuple(sum(row) for row in values),
        tuple(sum(values[i][j] for i in range(side)) for j in range(side)),
        (
            sum(values[i][i] for i in range(side)),
            sum(values[i][side - 1 - i] for i in range(side)),
        ),
    )


def ref_constant(*sums):
    flat = {v for group in sums for v in group}
    return flat.pop() if len(flat) == 1 else None


def ref_block_report(grid, notation, k):
    side = grid.side
    if k <= 0 or side % k:
        raise ShapeError(f"block size {k} does not divide side {side}")
    values = ref_values(grid, notation)
    report = {}
    for bi in range(side // k):
        for bj in range(side // k):
            block = [
                [values[bi * k + di][bj * k + dj] for dj in range(k)] for di in range(k)
            ]
            verdict = None
            if k >= 3:
                verdict = ref_constant(*ref_line_sums(block, k)) is not None
            report[(bi, bj)] = BlockSums(
                sum(sum(row) for row in block), sum(v * v for row in block for v in row), verdict
            )
    return report


def ref_rect_block_report(grid, notation, height, width):
    side = grid.side
    if height <= 0 or width <= 0 or side % height or side % width:
        raise ShapeError(f"block shape {height}x{width} does not tile a grid of side {side}")
    values = ref_values(grid, notation)
    report = {}
    for bi in range(side // height):
        for bj in range(side // width):
            cells = [
                values[bi * height + di][bj * width + dj]
                for di in range(height)
                for dj in range(width)
            ]
            report[(bi, bj)] = BlockSums(sum(cells), sum(v * v for v in cells))
    return report


def ref_analyze(grid, notation):
    side = grid.side
    values = ref_values(grid, notation)
    squares = tuple(tuple(v * v for v in row) for row in values)
    s1_rows, s1_cols, s1_diags = ref_line_sums(values, side)
    s2_rows, s2_cols, s2_diags = ref_line_sums(squares, side)
    s1 = ref_constant(s1_rows, s1_cols, s1_diags)
    magic = s1 is not None
    bimagic = magic and ref_constant(s2_rows, s2_cols, s2_diags) is not None
    column_bimagic = magic and ref_constant(s2_cols) is not None
    if s1 is None:
        s1 = ref_constant(s1_rows)
    s2 = ref_constant(s2_rows, s2_cols, s2_diags)
    if s2 is None:
        s2 = ref_constant(s2_cols)
    half_line_sums = {}
    if side % 2 == 0 and side > 1:
        for region in half_rows(side) + half_columns(side) + half_diagonals():
            half_line_sums[region] = sum(values[i][j] for i, j in region.cells(side))
    candidates = set(half_line_sums.values()) | {v for v in (s1, s2) if v is not None}
    return MagicReport(
        grid_name=grid.name,
        notation=notation,
        side=side,
        s1_rows=s1_rows,
        s1_cols=s1_cols,
        s1_diags=s1_diags,
        s2_rows=s2_rows,
        s2_cols=s2_cols,
        s2_diags=s2_diags,
        magic=magic,
        column_bimagic=column_bimagic,
        bimagic=bimagic,
        s1=s1,
        s2=s2,
        block_sums={
            k: ref_block_report(grid, notation, k) for k in (2, 4) if k < side and side % k == 0
        },
        half_line_sums=half_line_sums,
        divisibility=tuple(
            (v, v // DIVISOR) for v in sorted(candidates) if v and v % DIVISOR == 0
        ),
    )


def ref_normalize(grid, notation):
    side = grid.side
    values = ref_values(grid, notation)
    target = sum(values[0])
    for i, row in enumerate(values):
        if sum(row) != target:
            raise PreconditionError(
                f"not magic under {notation.value}: row 1 sums to {target} "
                f"but row {i + 1} sums to {sum(row)}"
            )
    for j in range(side):
        col = sum(values[i][j] for i in range(side))
        if col != target:
            raise PreconditionError(
                f"not magic under {notation.value}: rows sum to {target} "
                f"but column {j + 1} sums to {col}"
            )
    if target == 0:
        raise PreconditionError("magic sum is zero; cannot normalize")
    return ProbabilityGrid(
        tuple(tuple(Fraction(v, target) for v in row) for row in values),
        notation,
        target,
        grid.name,
    )


def ref_order_index(p):
    side = p.side
    return OrderIndex(
        rows=tuple(sum(v * v for v in row) for row in p.values),
        cols=tuple(
            sum(p.values[i][j] * p.values[i][j] for i in range(side)) for j in range(side)
        ),
    )


def ref_shannon_report(p):
    side = p.side
    terms = tuple(tuple(entropy_term(v) for v in row) for row in p.values)
    return EntropyReport(
        terms=terms,
        row_sums=tuple(math.fsum(row) for row in terms),
        col_sums=tuple(math.fsum(terms[i][j] for i in range(side)) for j in range(side)),
        diag_sums=(
            math.fsum(terms[i][i] for i in range(side)),
            math.fsum(terms[i][side - 1 - i] for i in range(side)),
        ),
    )


def ref_check_place(grid, place):
    if not 1 <= place <= grid.word_len:
        raise ShapeError(f"place {place} out of range 1..{grid.word_len}")


def ref_place_letters(grid, place):
    ref_check_place(grid, place)
    return tuple(tuple(word[place - 1] for word in row) for row in grid.cells)


def ref_place_permutation_report(grid, place, regions):
    ref_check_place(grid, place)
    report = {}
    for region in regions:
        cells = region.cells(grid.side)
        if len(cells) % 4:
            raise ShapeError(
                f"region {region.label!r} has size {len(cells)}, not a multiple of 4"
            )
        seen = [grid.cells[i][j][place - 1] for i, j in cells]
        report[region] = all(seen.count(c) == len(cells) // 4 for c in LETTERS)
    return report


def ref_xor_letter_grid(grid):
    values = tuple(tuple(int(xor_reduce(word), 2) for word in row) for row in grid.cells)
    if grid.word_len == 3:
        return tuple(tuple("abcdefgh"[v] for v in row) for row in values)
    return values


def ref_weight(word):
    return sum(1 for c in word if c in "AT")


def ref_weight_grid(grid):
    n = grid.word_len
    weights = tuple(tuple(ref_weight(word) for word in row) for row in grid.cells)
    labels = tuple(tuple(monomial(w, n) for w in row) for row in weights)
    return weights, labels


def ref_balance_report(grid, regions):
    n = grid.word_len
    unit = 2**n
    report = {}
    for region in regions:
        cells = region.cells(grid.side)
        if len(cells) % unit:
            raise ShapeError(
                f"region {region.label!r} has size {len(cells)}, "
                f"not a multiple of 2^{n} = {unit}"
            )
        observed = [0] * (n + 1)
        for i, j in cells:
            observed[ref_weight(grid.cells[i][j])] += 1
        report[region] = all(observed[k] == comb(n, k) * len(cells) // unit for k in range(n + 1))
    return report


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except GenemagicError as exc:
        return type(exc), str(exc)


def balance_regions(grid):
    unit, side = 2**grid.word_len, grid.side
    regions = rows(side) + columns(side) + diagonals() if side % unit == 0 else []
    for k in (2, 4):
        if k < side and side % k == 0 and (k * k) % unit == 0:
            regions += blocks(side, k)
    return regions


def assert_matches_reference(grid):
    for notation in Notation:
        assert numeric_grid(grid, notation).values == ref_values(grid, notation)
        assert analyze(grid, notation) == ref_analyze(grid, notation)
        for k in (1, 2, 3, 4, 8):
            assert outcome(block_report, grid, notation, k) == outcome(
                ref_block_report, grid, notation, k
            )
        for shape in ((2, 4), (4, 2), (1, 2), (3, 3), (4, 4)):
            assert outcome(rect_block_report, grid, notation, *shape) == outcome(
                ref_rect_block_report, grid, notation, *shape
            )
        prob = outcome(normalize, grid, notation)
        assert prob == outcome(ref_normalize, grid, notation)
        if isinstance(prob, ProbabilityGrid):
            assert order_index(prob) == ref_order_index(prob)
            assert shannon_report(prob) == ref_shannon_report(prob)
    regions = standard_regions(grid.side)
    for place in range(0, grid.word_len + 2):
        assert outcome(place_letters, grid, place) == outcome(ref_place_letters, grid, place)
        assert outcome(place_permutation_report, grid, place, regions) == outcome(
            ref_place_permutation_report, grid, place, regions
        )
    if grid.word_len in (2, 3):
        assert xor_letter_grid(grid) == ref_xor_letter_grid(grid)
    wg = weight_grid(grid)
    assert (wg.weights, wg.monomials) == ref_weight_grid(grid)
    for regions in (balance_regions(grid), standard_regions(grid.side)):
        assert outcome(balance_report, grid, regions) == outcome(
            ref_balance_report, grid, regions
        )


def dihedral(cells, d):
    """Map 0..7 of the square: transpose when bit 2 is set, then d % 4 quarter turns."""
    cells = [tuple(row) for row in cells]
    if d & 4:
        cells = list(zip(*cells))
    for _ in range(d & 3):
        cells = list(zip(*cells[::-1]))
    return tuple(tuple(row) for row in cells)


def images(grid):
    """The grid, its letterwise complement and its seven other dihedral images."""
    yield grid
    yield Grid(tuple(tuple(complement(word) for word in row) for row in grid.cells))
    for d in range(1, 8):
        yield Grid(dihedral(grid.cells, d))


@pytest.mark.parametrize("table_id", CANONICAL_IDS)
def test_kernels_match_reference_on_canonical_images(table_id):
    for grid in images(load_canonical(table_id)):
        assert_matches_reference(grid)


@pytest.mark.parametrize("table_id, block", [("R8A", (1, 0)), ("R16", (0, 0)), ("R16", (2, 3))])
def test_kernels_match_reference_with_one_4x4_block_broken(table_id, block):
    # swapping two cells of one block breaks its own magic square and no
    # other block's, so each block's verdict must come from its own lines
    cells = [list(row) for row in load_canonical(table_id).cells]
    i, j = block[0] * 4, block[1] * 4
    cells[i][j], cells[i + 1][j + 2] = cells[i + 1][j + 2], cells[i][j]
    grid = Grid(tuple(map(tuple, cells)))
    verdicts = [sums.magic_subsquare for sums in block_report(grid, Notation.DEC, 4).values()]
    assert verdicts.count(False) == 1
    assert_matches_reference(grid)


@st.composite
def random_grids(draw):
    n = draw(st.integers(1, 4))
    side = draw(st.integers(1, 16))
    word = st.text(alphabet=LETTERS, min_size=n, max_size=n)
    row = st.lists(word, min_size=side, max_size=side)
    cells = draw(st.lists(row, min_size=side, max_size=side))
    return Grid(tuple(tuple(row) for row in cells))


@st.composite
def orbit_grids(draw, table_ids=("R4", "R8A", "R8B", "R16")):
    """A complete table under a letter relabelling, a place permutation and a dihedral map."""
    grid = load_canonical(draw(st.sampled_from(table_ids)))
    relabel = str.maketrans(LETTERS, "".join(draw(st.permutations(LETTERS))))
    places = draw(st.permutations(range(grid.word_len)))
    cells = tuple(
        tuple("".join(word[p] for p in places).translate(relabel) for word in row)
        for row in grid.cells
    )
    return Grid(dihedral(cells, draw(st.integers(0, 7))))


@examples(40)
@given(random_grids())
def test_kernels_match_reference_on_random_grids(grid):
    assert_matches_reference(grid)


@examples(20)
@given(orbit_grids())
def test_kernels_match_reference_on_orbit_grids(grid):
    assert_matches_reference(grid)


@examples(25)
@given(
    st.integers(1, 6).flatmap(
        lambda side: st.lists(
            st.lists(st.fractions(0, 1), min_size=side, max_size=side),
            min_size=side,
            max_size=side,
        )
    )
)
def test_order_index_matches_reference_on_any_probabilities(values):
    prob = ProbabilityGrid(tuple(tuple(row) for row in values), Notation.DEC, 1)
    assert order_index(prob) == ref_order_index(prob)


def float_bits(report):
    """Every float of an entropy report as its hex form, which tells -0.0 from 0.0."""
    return tuple(
        tuple(x.hex() for x in group)
        for group in (*report.terms, report.row_sums, report.col_sums, report.diag_sums)
    )


def ref_entropy_term(p):
    return 0.0 if p in (0, 1) else -float(p) * math.log10(float(p))


def test_entropy_term_of_a_certain_cell_is_positive_zero():
    assert entropy_term(Fraction(1)).hex() == (0.0).hex()


@examples(60)
@given(
    st.integers(1, 6).flatmap(
        lambda side: st.lists(
            st.lists(st.fractions(0, 1), min_size=side, max_size=side),
            min_size=side,
            max_size=side,
        )
    )
)
def test_shannon_report_matches_reference_bit_for_bit_on_any_probabilities(values):
    prob = ProbabilityGrid(tuple(tuple(row) for row in values), Notation.DEC, 1)
    for row in prob.values:
        for p in row:
            assert entropy_term(p).hex() == ref_entropy_term(p).hex()
    assert float_bits(shannon_report(prob)) == float_bits(ref_shannon_report(prob))


@pytest.mark.parametrize("table_id", ["R4", "R8A", "R8B", "R16", "M2"])
def test_normalize_equals_the_hand_built_grid_of_the_same_fractions(table_id):
    grid = load_canonical(table_id)
    for notation in Notation:
        prob = outcome(normalize, grid, notation)
        if not isinstance(prob, ProbabilityGrid):
            continue
        by_hand = ProbabilityGrid(
            tuple(tuple(Fraction(p) for p in row) for row in prob.values),
            notation,
            prob.line_sum,
            grid.name,
        )
        assert prob == by_hand and repr(prob) == repr(by_hand)
        assert float_bits(shannon_report(prob)) == float_bits(shannon_report(by_hand))
        assert float_bits(shannon_report(prob)) == float_bits(ref_shannon_report(prob))
        assert order_index(prob) == order_index(by_hand) == ref_order_index(prob)


def test_replaced_probabilities_give_the_new_grids_entropy():
    r16 = normalize(load_canonical("R16"), Notation.DEC)
    for table_id in ("R4", "R8A"):
        new = normalize(load_canonical(table_id), Notation.DEC)
        replaced = ProbabilityGrid(new.values, r16.notation, new.line_sum, r16.source)
        assert float_bits(shannon_report(replaced)) == float_bits(shannon_report(new))
        assert float_bits(shannon_report(replaced)) == float_bits(ref_shannon_report(new))
        assert order_index(replaced) == order_index(new) == ref_order_index(new)
    with pytest.raises(TypeError):
        ProbabilityGrid(r16.values, Notation.DEC, r16.line_sum, scaled=((1,), 1))


def test_float_probabilities_give_the_reference_entropy():
    values = ((0.1, 0.2, 0.7), (0.7, 0.1, 0.2), (0.2, 0.7, 0.1))
    prob = ProbabilityGrid(values, Notation.DEC, 1)
    assert float_bits(shannon_report(prob)) == float_bits(ref_shannon_report(prob))


@pytest.mark.parametrize(
    "values",
    [
        ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), (Fraction(1),)),
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),)),
        ((Fraction(1),), (Fraction(1),)),
        ((Fraction(1), Fraction(0)),),
    ],
)
def test_ragged_probability_grid_is_rejected(values):
    with pytest.raises(ShapeError, match="probability row"):
        ProbabilityGrid(values, Notation.DEC, 1)


def test_analyze_and_normalize_encode_each_grid_once_per_notation(monkeypatch):
    encoded = Counter()
    encode_words = tables._encode_words

    def counting(words, notation):
        encoded[notation] += 1
        return encode_words(words, notation)

    parsed = Counter()
    parse_word = encoding.parse_word

    def counting_parse(text):
        parsed["words"] += 1
        return parse_word(text)

    monkeypatch.setattr(tables, "_encode_words", counting)
    monkeypatch.setattr(encoding, "parse_word", counting_parse)
    text = serialize_grid(load_canonical("R16"))
    for expected in (1, 2):
        # a fresh grid with the same cells is encoded again: values are
        # kept per Grid instance, not per content
        grid = parse_grid(text)
        for notation in Notation:
            analyze(grid, notation)
            normalize(grid, notation)
        assert encoded == {notation: expected for notation in Notation}
    assert parsed["words"] == 0


# ---------------------------------------------------------------------------
# Generated malformed inputs end in a GenemagicError, never another exception.
# ---------------------------------------------------------------------------

REGION_KINDS = (
    "row", "column", "main_diagonal", "anti_diagonal", "block",
    "half_row", "half_column", "half_diagonal", "spiral",
)


@examples(400)
@given(
    st.sampled_from(REGION_KINDS),
    st.lists(st.integers(-3, 20), max_size=4).map(tuple),
    st.sampled_from(("R4", "R16")),
)
def test_any_region_is_checked_or_rejected_with_a_genemagic_error(kind, index, table_id):
    grid = load_canonical(table_id)
    region = Region(kind, index)
    for call in (
        lambda: region.cells(grid.side),
        lambda: place_permutation_report(grid, 1, [region]),
        lambda: balance_report(grid, [region]),
    ):
        try:
            call()
        except GenemagicError:
            continue
        # any region that is not rejected covers cells, all inside the grid
        cells = region.cells(grid.side)
        assert cells and all(0 <= i < grid.side and 0 <= j < grid.side for i, j in cells)


def grid_like_texts():
    """A header and rows of words, each part possibly malformed."""
    words = st.text(alphabet="CATGUax", max_size=4)
    rows = st.lists(st.lists(words, max_size=5).map(" ".join), max_size=5)
    return st.builds(
        lambda n, size, body: f"n={n} size={size}\n" + "\n".join(body),
        st.integers(-1, 5),
        st.integers(-1, 5),
        rows,
    )


@examples(200)
@given(st.one_of(st.text(), st.text(alphabet="CATGcU n=size0123#\n\t"), grid_like_texts()))
def test_parse_grid_rejects_any_text_with_a_genemagic_error(text):
    try:
        parse_grid(text)
    except GenemagicError:
        pass


# ---------------------------------------------------------------------------
# Laws of the maths on generated orbit grids.
# ---------------------------------------------------------------------------

@examples(20)
@given(orbit_grids())
def test_normalized_rows_and_columns_sum_to_exactly_one(grid):
    side = grid.side
    for notation in Notation:
        report = analyze(grid, notation)
        if len(set(report.s1_rows + report.s1_cols)) > 1:
            with pytest.raises(PreconditionError):
                normalize(grid, notation)
            continue
        prob = normalize(grid, notation)
        assert all(sum(row) == 1 for row in prob.values)
        assert all(sum(prob.values[i][j] for i in range(side)) == 1 for j in range(side))


@examples(10)
@given(orbit_grids(["R16"]))
def test_order_index_is_s2_over_s1_squared_on_bimagic_orbit_grids(grid):
    for notation in Notation:
        report = analyze(grid, notation)
        assert report.bimagic
        index = order_index(normalize(grid, notation))
        assert set(index.rows) == set(index.cols) == {Fraction(report.s2, report.s1**2)}


def orbit_facts(grid):
    """Verdicts and region counts that every dihedral map of the square keeps."""
    verdicts = []
    for notation in Notation:
        report = analyze(grid, notation)
        magic_blocks = sum(
            sums.magic_subsquare for sums in report.block_sums.get(4, {}).values()
        )
        # a report's S1 and S2 (so its divisibility facts) fall back to the
        # rows or the columns alone when the grid is not magic or bimagic,
        # and a transpose swaps those
        s1 = report.s1 if report.magic else None
        s2 = (report.s2, report.divisibility) if report.bimagic else None
        half_sums = sorted(report.half_line_sums.values())
        verdicts.append((report.magic, report.bimagic, s1, s2, magic_blocks, half_sums))
    regions = standard_regions(grid.side)
    uniform = [
        sum(place_permutation_report(grid, place, regions).values())
        for place in range(1, grid.word_len + 1)
    ]
    return verdicts, uniform, sum(balance_report(grid, balance_regions(grid)).values())


@examples(12)
@given(orbit_grids())
def test_dihedral_maps_keep_every_verdict_and_region_count(grid):
    facts = orbit_facts(grid)
    for d in range(1, 8):
        assert orbit_facts(Grid(dihedral(grid.cells, d))) == facts


@examples(60)
@given(st.one_of(orbit_grids(), random_grids()), st.text(min_size=1, max_size=8))
def test_serialized_grids_parse_back_equal_whatever_their_names(grid, name):
    parsed = parse_grid(serialize_grid(grid), name=name)
    assert parsed == grid and hash(parsed) == hash(grid)
    assert (parsed.cells, parsed.name, grid.name) == (grid.cells, name, None)
    renamed = Grid(grid.cells, "x")
    assert renamed == grid and hash(renamed) == hash(grid)
    assert parse_grid(serialize_grid(renamed)) == renamed


def ref_latin_square_check(array):
    side = len(array)
    if any(len(row) != side for row in array):
        raise ShapeError("array is not square")
    alphabet = {sym for row in array for sym in row}
    if len(alphabet) > side:
        raise ShapeError(
            f"{len(alphabet)} distinct symbols cannot form a Latin square of side {side}"
        )
    columns = [[array[i][j] for i in range(side)] for j in range(side)]
    latin = all(len(set(line)) == side for line in [*array, *columns])
    main = {array[i][i] for i in range(side)}
    anti = {array[i][side - 1 - i] for i in range(side)}
    return latin, latin and len(main) == side and len(anti) == side


@st.composite
def latin_candidates(draw):
    """Cyclic squares a*i + j (Latin when gcd(a, side) is 1), sometimes under
    random row and column permutations, under a random symbol permutation,
    and sometimes with one cell overwritten."""
    side = draw(st.integers(1, 6))
    a = draw(st.integers(1, side))
    identity = list(range(side))
    row_perm = draw(st.permutations(identity) | st.just(identity))
    col_perm = draw(st.permutations(identity) | st.just(identity))
    symbols = draw(st.permutations("abcdef"[:side]))
    square = [
        [symbols[(a * row_perm[i] + col_perm[j]) % side] for j in range(side)]
        for i in range(side)
    ]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
        square[i][j] = draw(st.sampled_from(symbols))
    return square


@examples(50)
@given(latin_candidates())
def test_latin_square_check_matches_reference(square):
    assert outcome(latin_square_check, square) == outcome(ref_latin_square_check, square)


def complement_constant(notation, n):
    """R with complement(v) = R - v for the value v of any word of length n."""
    if notation is Notation.BIN:
        return int("11" * n)
    if notation is Notation.DIGIT:
        return int("5" * n)
    return 4**n + 1


@examples(50)
@given(st.one_of(random_grids(), orbit_grids()))
def test_complement_law_on_line_sums_and_verdicts(grid):
    # Over a line of N cells, S1' = N*R - S1 and S2' = N*R^2 - 2R*S1 + S2.
    mirrored = Grid(tuple(tuple(complement(word) for word in row) for row in grid.cells))
    cells = grid.side
    for notation in Notation:
        r = complement_constant(notation, grid.word_len)
        values = numeric_grid(grid, notation).values
        assert numeric_grid(mirrored, notation).values == tuple(
            tuple(r - v for v in row) for row in values
        )
        before, after = analyze(grid, notation), analyze(mirrored, notation)
        for lines in ("rows", "cols", "diags"):
            s1s, s2s = getattr(before, f"s1_{lines}"), getattr(before, f"s2_{lines}")
            assert getattr(after, f"s1_{lines}") == tuple(cells * r - s1 for s1 in s1s)
            assert getattr(after, f"s2_{lines}") == tuple(
                cells * r * r - 2 * r * s1 + s2 for s1, s2 in zip(s1s, s2s)
            )
        assert (after.magic, after.bimagic, after.column_bimagic) == (
            before.magic, before.bimagic, before.column_bimagic
        )


# ---------------------------------------------------------------------------
# The region sets the CLI reports
# ---------------------------------------------------------------------------

def test_cli_reports_the_reference_region_sets(tmp_path, capsys):
    rng = random.Random(20)
    for side in range(1, 21):
        for n in range(1, 5):
            # an XOR grid with more distinct values than its side has no Latin
            # verdict and structure exits 2, so such grids hold only C and G
            letters = LETTERS if n not in (2, 3) or side >= 2**n else "CG"
            cells = tuple(
                tuple("".join(rng.choices(letters, k=n)) for _ in range(side))
                for _ in range(side)
            )
            grid = Grid(cells)
            path = tmp_path / f"grid_{side}_{n}.txt"
            path.write_text(serialize_grid(grid), encoding="utf-8")
            reports = {}
            for command in ("hamming", "structure"):
                assert main([command, "--input", str(path), "--format", "json"]) == 0
                reports[command] = json.loads(capsys.readouterr().out)
            assert list(reports["hamming"]["balance"]) == [
                region.label for region in balance_regions(grid)
            ]
            expected = [r.label for r in standard_regions(side)] if side % 4 == 0 else []
            places = reports["structure"]["places"]
            assert list(places) == [str(place) for place in range(1, n + 1)]
            for entry in places.values():
                assert list(entry["regions"]) == expected
