"""Embedded canonical grids and the grid text format."""

import pytest

from genemagic import (
    CANONICAL_IDS,
    Grid,
    Notation,
    all_words,
    encode,
    load_canonical,
    parse_grid,
    serialize_grid,
)
from genemagic.errors import DataError, ParseError, ShapeError

KHAJURAHO = [
    [7, 12, 1, 14],
    [2, 13, 8, 11],
    [16, 3, 10, 5],
    [9, 6, 15, 4],
]

# Reference numeral renderings of the 8x8 and 16x16 tables under the +1
# notation; every cell is pinned.
R8A_DEC = [
    [1, 39, 60, 30, 6, 36, 63, 25],
    [58, 32, 3, 37, 61, 27, 8, 34],
    [31, 57, 38, 4, 28, 62, 33, 7],
    [40, 2, 29, 59, 35, 5, 26, 64],
    [12, 46, 49, 23, 15, 41, 54, 20],
    [51, 21, 10, 48, 56, 18, 13, 43],
    [22, 52, 47, 9, 17, 55, 44, 14],
    [45, 11, 24, 50, 42, 16, 19, 53],
]

R8B_DEC = [
    [16, 41, 36, 5, 27, 62, 55, 18],
    [26, 63, 54, 19, 13, 44, 33, 8],
    [1, 40, 45, 12, 22, 51, 58, 31],
    [23, 50, 59, 30, 4, 37, 48, 9],
    [38, 3, 10, 47, 49, 24, 29, 60],
    [52, 21, 32, 57, 39, 2, 11, 46],
    [43, 14, 7, 34, 64, 25, 20, 53],
    [61, 28, 17, 56, 42, 15, 6, 35],
]

R16_DEC = [
    [1, 154, 239, 120, 23, 144, 249, 98, 44, 179, 198, 93, 62, 165, 212, 75],
    [232, 127, 10, 145, 242, 105, 32, 135, 205, 86, 35, 188, 219, 68, 53, 174],
    [122, 225, 152, 15, 112, 247, 130, 25, 83, 204, 189, 38, 69, 222, 171, 52],
    [159, 8, 113, 234, 137, 18, 103, 256, 182, 45, 92, 195, 164, 59, 78, 213],
    [46, 181, 196, 91, 60, 163, 214, 77, 7, 160, 233, 114, 17, 138, 255, 104],
    [203, 84, 37, 190, 221, 70, 51, 172, 226, 121, 16, 151, 248, 111, 26, 129],
    [85, 206, 187, 36, 67, 220, 173, 54, 128, 231, 146, 9, 106, 241, 136, 31],
    [180, 43, 94, 197, 166, 61, 76, 211, 153, 2, 119, 240, 143, 24, 97, 250],
    [55, 176, 217, 66, 33, 186, 207, 88, 30, 133, 244, 107, 12, 147, 230, 125],
    [210, 73, 64, 167, 200, 95, 42, 177, 251, 100, 21, 142, 237, 118, 3, 156],
    [80, 215, 162, 57, 90, 193, 184, 47, 101, 254, 139, 20, 115, 236, 157, 6],
    [169, 50, 71, 224, 191, 40, 81, 202, 132, 27, 110, 245, 150, 13, 124, 227],
    [28, 131, 246, 109, 14, 149, 228, 123, 49, 170, 223, 72, 39, 192, 201, 82],
    [253, 102, 19, 140, 235, 116, 5, 158, 216, 79, 58, 161, 194, 89, 48, 183],
    [99, 252, 141, 22, 117, 238, 155, 4, 74, 209, 168, 63, 96, 199, 178, 41],
    [134, 29, 108, 243, 148, 11, 126, 229, 175, 56, 65, 218, 185, 34, 87, 208],
]


def dec_cells(grid):
    return [[encode(w, Notation.DEC) for w in row] for row in grid.cells]


@pytest.mark.parametrize(
    "table_id,n",
    [("M1", 1), ("M2", 2), ("M3", 3), ("R4", 2), ("R8A", 3), ("R8B", 3), ("R16", 4)],
)
def test_canonical_grids_are_complete(table_id, n):
    grid = load_canonical(table_id)
    assert grid.word_len == n
    assert grid.side**2 == 4**n
    assert sorted(grid.words()) == sorted(all_words(n))
    assert grid.is_complete()


def test_enz_grid_is_partial():
    enz = load_canonical("ENZ")
    assert (enz.side, enz.word_len) == (4, 4)
    assert not enz.is_complete()
    assert len(set(enz.words())) == 16


def test_known_cells():
    assert load_canonical("M1").cells == (("C", "A"), ("T", "G"))
    assert load_canonical("M2").cells[0] == ("CC", "AC", "TC", "GC")
    assert load_canonical("M3").cells[0][0] == "CCC"
    assert load_canonical("R4").cells[0][0] == "AT"
    assert load_canonical("R8B").cells[0][0] == "CGG"
    assert load_canonical("R16").cells[0][0] == "CCCC"


def test_load_is_case_insensitive_and_cached():
    assert load_canonical("r4") is load_canonical("R4")


def test_r4_dec_is_khajuraho():
    assert dec_cells(load_canonical("R4")) == KHAJURAHO


def test_r4_digit_first_row():
    row = [encode(w, Notation.DIGIT) for w in load_canonical("R4").cells[0]]
    assert row == [23, 34, 11, 42]


def test_r8a_dec_rendering():
    assert dec_cells(load_canonical("R8A")) == R8A_DEC


def test_r8b_dec_rendering():
    assert dec_cells(load_canonical("R8B")) == R8B_DEC


def test_r16_dec_rendering():
    assert dec_cells(load_canonical("R16")) == R16_DEC


def test_r8a_and_r8b_hold_the_same_words():
    assert sorted(load_canonical("R8A").words()) == sorted(load_canonical("R8B").words())


def test_serialize_khajuraho_text():
    text = serialize_grid(load_canonical("R4"), Notation.DEC)
    assert text == (
        "n=2 size=4\n"
        "7 12 1 14\n"
        "2 13 8 11\n"
        "16 3 10 5\n"
        "9 6 15 4\n"
    )


@pytest.mark.parametrize("table_id", CANONICAL_IDS)
def test_round_trip_identity(table_id):
    grid = load_canonical(table_id)
    assert parse_grid(serialize_grid(grid)) == grid


def test_parse_skips_comments_and_blank_lines():
    text = "# heading\nn=1 size=2\n\nC A\n# middle\nT G\n"
    assert parse_grid(text).cells == (("C", "A"), ("T", "G"))


def test_parse_ragged_row_is_shape_error():
    text = "n=2 size=4\nAT TG CC GA\nCA GC AG\nGG CT TA AC\nTC AA GT CG\n"
    with pytest.raises(ShapeError, match="row 2"):
        parse_grid(text)


def test_parse_bad_letter_names_the_character():
    text = "n=3 size=2\nAXT CCC\nAAA TTT\n"
    with pytest.raises(ParseError, match="'X'"):
        parse_grid(text)


def test_parse_wrong_word_length_is_shape_error():
    text = "n=2 size=2\nAT TGA\nCA GC\n"
    with pytest.raises(ShapeError, match="TGA"):
        parse_grid(text)


def test_parse_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_grid("size=2\nC A\nT G\n")


def test_parse_rejects_repeated_header_key():
    with pytest.raises(ParseError, match="'n' given more than once"):
        parse_grid("n=2 size=2 n=3\nAC GT\nCA TG\n")
    with pytest.raises(ParseError, match="'size' given more than once"):
        parse_grid("n=1 size=2 size=2\nC A\nT G\n")


def test_parse_wrong_row_count():
    with pytest.raises(ShapeError, match="rows"):
        parse_grid("n=1 size=2\nC A\n")


def test_duplicates_flagged_only_when_completeness_requested():
    text = "n=1 size=2\nC C\nT G\n"
    grid = parse_grid(text)
    assert grid.cells[0] == ("C", "C")
    with pytest.raises(DataError, match="duplicate"):
        parse_grid(text, require_complete=True)


def test_incomplete_grid_rejected_when_completeness_requested():
    text = "n=2 size=2\nAT TG\nCA GC\n"
    with pytest.raises(DataError, match="complete"):
        parse_grid(text, require_complete=True)


def test_unknown_table_id():
    with pytest.raises(DataError, match="R99"):
        load_canonical("R99")


def test_grid_constructor_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        Grid((("AT", "TG"), ("CA",)))
    with pytest.raises(ShapeError, match="'TGA' at row 1, column 2 has length 3, expected 2"):
        Grid((("AT", "TGA"), ("CA", "GC")))
    with pytest.raises(ShapeError):
        Grid(())


def test_grid_equality_ignores_name():
    a = Grid((("C", "A"), ("T", "G")), name="x")
    b = Grid((("C", "A"), ("T", "G")), name="y")
    assert a == b


@pytest.mark.parametrize("letter", ["a", "U", "X"])
def test_grid_constructor_rejects_letters_outside_catg(letter):
    # the grid-file rule: upper-case C/A/T/G only, even where the
    # single-word functions accept lower case and U
    with pytest.raises(ParseError, match="row 2, column 1, position 2"):
        Grid((("CA", "TG"), ("C" + letter, "GC")))


def test_grid_constructor_rejects_empty_words():
    with pytest.raises(ParseError, match="empty word"):
        Grid((("",),))


def test_grid_value_cache_is_invisible():
    a = load_canonical("R4")
    b = parse_grid(serialize_grid(a), name="R4")
    a.flat_values(Notation.DEC)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.flat_values(Notation.DEC) is a.flat_values(Notation.DEC)
    assert a.flat_values(Notation.DEC) == tuple(v for row in KHAJURAHO for v in row)


def test_duplicate_cell_message_names_its_position():
    with pytest.raises(DataError, match=r"^duplicate cell 'C' at row 2, column 2$"):
        parse_grid("n=1 size=2\nC A\nT C\n", require_complete=True)


def test_incomplete_grid_message_counts_cells_and_words():
    with pytest.raises(
        DataError, match=r"^grid is not complete: 9 cells cannot cover all 16 words of length 2$"
    ):
        parse_grid("n=2 size=3\nAT TG CC\nCA GC AA\nGG CT TT\n", require_complete=True)
