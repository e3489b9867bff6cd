"""Canonical word grids, a plain-text grid format, and (de)serialization.

Grid file format, line oriented:

    n=<word_len> size=<N>
    <N whitespace-separated words>   (N data lines in total)

Lines starting with ``#`` are comments; blank lines and trailing
whitespace are ignored.  Serializing with a notation replaces each word
by its base-10 numeral in the same layout.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .encoding import LETTERS, Notation, _check_length, _encode_words
from .errors import DataError, ParseError, ShapeError


class _Record:
    """An immutable value: repr, equality within one class, hashing, pickling.

    A record names its constructor arguments in ``_fields``; equality and
    hashing see ``_key()``, by default those fields' values.  A copy or an
    unpickled record is rebuilt through the constructor, which checks and
    derives everything else again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self):
        return tuple(getattr(self, field) for field in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, field) for field in self._fields)


class Grid(_Record):
    """A square array of same-length words.

    Every cell is checked when the grid is built: cells are upper-case
    C, A, T and G only, the grid-file rule (lower case and U, which the
    single-word functions accept, are rejected here).  Numeral values are
    computed at most once per notation and kept with the grid.  A grid is
    immutable, and equality and hashing see only the cells, not the name.
    """

    __slots__ = ("cells", "name", "_values")
    _fields = ("cells", "name")

    def __init__(self, cells: tuple[tuple[str, ...], ...], name: str | None = None) -> None:
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_values", {})
        side = len(self.cells)
        if side == 0:
            raise ShapeError("grid has no rows")
        for i, row in enumerate(self.cells):
            if len(row) != side:
                raise ShapeError(f"row {i + 1} has {len(row)} cells, expected {side}")
        word_len = len(self.cells[0][0])
        for i, row in enumerate(self.cells):
            for j, word in enumerate(row):
                if len(word) != word_len:
                    raise _length_error(word, i, j, word_len)
        if word_len == 0:
            raise ParseError("empty word")
        if "".join(self.words()).translate(_DROP_LETTERS):
            for i, row in enumerate(self.cells):
                for j, word in enumerate(row):
                    _check_letters(word, i, j)

    def _key(self):
        return self.cells  # the name is not compared or hashed

    @property
    def side(self) -> int:
        return len(self.cells)

    @property
    def word_len(self) -> int:
        return len(self.cells[0][0])

    def words(self) -> list[str]:
        """All cells in row-major order."""
        return [word for row in self.cells for word in row]

    def flat_values(self, notation: Notation) -> tuple[int, ...]:
        """Exact values of all cells under ``notation``, row-major, encoded once per notation."""
        values = self._values.get(notation)
        if values is None:
            _check_length(self.word_len)
            values = self._values[notation] = tuple(_encode_words(self.words(), notation))
        return values

    def is_complete(self) -> bool:
        """True if every word of this length appears exactly once."""
        words = self.words()
        return len(words) == 4 ** self.word_len and len(set(words)) == len(words)


_DROP_LETTERS = str.maketrans("", "", LETTERS)


def _split_rows(flat: Sequence, side: int) -> tuple[tuple, ...]:
    """Row-major flat cells back into ``side`` rows."""
    return tuple(tuple(flat[i:i + side]) for i in range(0, side * side, side))


def _length_error(cell: str, i: int, j: int, word_len: int) -> ShapeError:
    return ShapeError(
        f"cell {cell!r} at row {i + 1}, column {j + 1} has length {len(cell)}, "
        f"expected {word_len}"
    )


def _check_letters(cell: str, i: int, j: int) -> None:
    """Raise ParseError naming the first letter of ``cell`` outside upper-case C/A/T/G."""
    if not cell.translate(_DROP_LETTERS):
        return
    for pos, letter in enumerate(cell):
        if letter not in LETTERS:
            raise ParseError(
                f"invalid letter {letter!r} in cell at row {i + 1}, "
                f"column {j + 1}, position {pos + 1}"
            )


def parse_grid(text: str, name: str | None = None, require_complete: bool = False) -> Grid:
    """Parse the grid file format; see the module docstring.

    Only the header is checked here: ``size`` against the row count and
    ``n`` against the first cell.  ``Grid`` checks every cell.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty grid text")
    header = lines[0].split()
    try:
        pairs = [part.split("=", 1) for part in header]
        fields = dict(pairs)
        word_len = int(fields["n"])
        side = int(fields["size"])
    except (ValueError, KeyError):
        raise ParseError(f"bad header {lines[0]!r}; expected 'n=<word_len> size=<N>'") from None
    if len(fields) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ParseError(f"bad header {lines[0]!r}: key {repeated!r} given more than once")
    rows = tuple(tuple(line.split()) for line in lines[1:])
    if len(rows) != side:
        raise ShapeError(f"expected {side} rows, found {len(rows)}")
    if rows and len(rows[0][0]) != word_len:
        raise _length_error(rows[0][0], 0, 0, word_len)
    grid = Grid(rows, name=name)
    if require_complete:
        seen: set[str] = set()
        for i, row in enumerate(grid.cells):
            for j, word in enumerate(row):
                if word in seen:
                    raise DataError(
                        f"duplicate cell {word!r} at row {i + 1}, column {j + 1}"
                    )
                seen.add(word)
        if len(seen) != 4 ** word_len:
            raise DataError(
                f"grid is not complete: {side * side} cells cannot cover "
                f"all {4 ** word_len} words of length {word_len}"
            )
    return grid


def serialize_grid(grid: Grid, notation: Notation | None = None) -> str:
    """Render a grid back to its text form, or to numerals under a notation."""
    if notation is None:
        rows = grid.cells
    else:
        rows = _split_rows(grid.flat_values(notation), grid.side)
    return grid_text(grid.word_len, rows)


def grid_text(word_len: int, rows: Sequence[Sequence]) -> str:
    """The grid file form of ``rows`` of words, or of numerals in the same layout."""
    lines = [f"n={word_len} size={len(rows)}"] + [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Embedded canonical grids.  These are verbatim data assets, not generated:
# the tests pin their sums and cell values exactly.
# ---------------------------------------------------------------------------

_M1 = """\
n=1 size=2
C A
T G
"""

_M2 = """\
n=2 size=4
CC AC TC GC
CA AA TA GA
CT AT TT GT
CG AG TG GG
"""

_M3 = """\
n=3 size=8
CCC ACC TCC GCC CTC ATC TTC GTC
CCA ACA TCA GCA CTA ATA TTA GTA
CCT ACT TCT GCT CTT ATT TTT GTT
CCG ACG TCG GCG CTG ATG TTG GTG
CAC AAC TAC GAC CGC AGC TGC GGC
CAA AAA TAA GAA CGA AGA TGA GGA
CAT AAT TAT GAT CGT AGT TGT GGT
CAG AAG TAG GAG CGG AGG TGG GGG
"""

# The 4x4 rearrangement whose DEC rendering is the Khajuraho square.
# The comment block ships the companion table of twenty index combinations
# tied to this square; it is raw data with no decoding rule applied.
_R4 = """\
n=2 size=4
# Twenty combinations whose first and second members are permutations of
# the letters C, A, T, G (raw data, no interpretation):
#   1  2  3  4 |  5  5  5  5 |  9  9 10 10 | 14 15 15 14 | 17 19 20 18
#   1  2  3  4 |  6  6  6  6 |  9  9 10 10 | 16 13 13 16 | 19 17 18 20
#   1  2  3  4 |  7  7  7  7 | 11 11 12 12 | 16 13 13 16 | 20 18 17 19
#   1  2  3  4 |  8  8  8  8 | 11 11 12 12 | 14 15 15 14 | 18 20 19 17
AT TG CC GA
CA GC AG TT
GG CT TA AC
TC AA GT CG
"""

# 8x8 rearrangement, magic in all three notations and bimagic in columns.
_R8A = """\
n=3 size=8
CCC TAT GTG AGA CAA TCG GGT ATC
GTA AGG CCT TAC GGC ATT CAG TCA
AGT GTC TAA CCG ATG GGA TCC CAT
TAG CCA AGC GTT TCT CAC ATA GGG
CTG TGA GCC AAT CGT TTC GAA ACG
GCT AAC CTA TGG GAG ACA CGC TTT
AAA GCG TGT CTC ACC GAT TTG CGA
TGC CTT AAG GCA TTA CGG ACT GAC
"""

# 8x8 rearrangement, fully bimagic in all three notations.
_R8B = """\
n=3 size=8
CGG TTC TCG CAC ATT GGA GAT ACA
ATA GGT GAA ACT CGC TTG TCC CAG
CCC TAG TGC CTG AAA GCT GTA AGT
AAT GCA GTT AGA CCG TAC TGG CTC
TAA CCT CTA TGT GCC AAG AGC GTG
GCG AAC AGG GTC TAT CCA CTT TGA
TTT CGA CAT TCA GGG ATC ACG GAC
GGC ATG ACC GAG TTA CGT CAA TCT
"""

# 16x16 arrangement of all 256 tetramers, bimagic in all three notations.
_R16 = """\
n=4 size=16
CCCC TATA GTGT AGAG CAAT TCGG GGTC ATCA CTTG TGCT GCAA AAGC CGGA TTAC GACG ACTT
GTAG AGGT CCTA TACC GGCA ATTC CAGG TCAT GCGC AAAA CTCT TGTG GATT ACCG CGAC TTGA
AGTA GTCC TAAG CCGT ATGG GGAT TCCA CATC AACT GCTG TGGC CTAA ACAC GAGA TTTT CGCG
TAGT CCAG AGCC GTTA TCTC CACA ATAT GGGG TGAA CTGC AATG GCCT TTCG CGTT ACGA GAAC
CTGA TGAC GCCG AATT CGTG TTCT GAAA ACGC CCAT TAGG GTTC AGCA CACC TCTA GGGT ATAG
GCTT AACG CTAC TGGA GAGC ACAA CGCT TTTG GTCA AGTC CCGG TAAT GGAG ATGT CATA TCCC
AAAC GCGA TGTT CTCG ACCT GATG TTGC CGAA AGGG GTAT TACA CCTC ATTA GGCC TCAG CAGT
TGCG CTTT AAGA GCAC TTAA CGGC ACTG GACT TATC CCCA AGAT GTGG TCGT CAAG ATCC GGTA
CGAT TTGG GATC ACCA CTCC TGTA GCGT AAAG CAGA TCAC GGCG ATTT CCTG TACT GTAA AGGC
GACA ACTC CGGG TTAT GCAG AAGT CTTA TGCC GGTT ATCG CAAC TCGA GTGC AGAA CCCT TATG
ACGG GAAT TTCA CGTC AATA GCCC TGAG CTGT ATAC GGGA TCTT CACG AGCT GTTG TAGC CCAA
TTTC CGCA ACAT GAGG TGGT CTAG AACC GCTA TCCG CATT ATGA GGAC TAAA CCGC AGTG GTCT
CATG TCCT GGAA ATGC CCGA TAAC GTCG AGTT CGCC TTTA GAGT ACAG CTAT TGGG GCTC AACA
GGGC ATAA CACT TCTG GTTT AGCG CCAC TAGA GAAG ACGT CGTA TTCC GCCA AATC CTGG TGAT
ATCT GGTG TCGC CAAA AGAC GTGA TATT CCCG ACTA GACC TTAG CGGT AAGG GCAT TGCA CTTC
TCAA CAGC ATTG GGCT TACG CCTT AGGA GTAC TTGT CGAG ACCC GATA TGTC CTCA AAAT GCGG
"""

# The sixteen antiparallel tetramers as a 4x4 grid: rows 1-2 hold the
# same-orientation group, rows 3-4 the opposite-orientation group, both in
# table order.  Not a complete grid; enzyme counts live in the enzymes module.
_ENZ = """\
n=4 size=4
AGCT CGTA TACG CTAG
GCAT TCGA ATGC GATC
TAGC ACGT GTAC GCTA
TGCA ATCG CATG CGAT
"""

_ASSETS = {
    "M1": _M1,
    "M2": _M2,
    "M3": _M3,
    "R4": _R4,
    "R8A": _R8A,
    "R8B": _R8B,
    "R16": _R16,
    "ENZ": _ENZ,
}

CANONICAL_IDS: tuple[str, ...] = tuple(_ASSETS)


def load_canonical(table_id: str) -> Grid:
    """Return the embedded grid for one of the ids in CANONICAL_IDS."""
    key = table_id.strip().upper()
    if key not in _ASSETS:
        known = ", ".join(CANONICAL_IDS)
        raise DataError(f"unknown table id {table_id!r}; known ids: {known}")
    return _load(key)


@functools.lru_cache(maxsize=None)
def _load(key: str) -> Grid:
    return parse_grid(_ASSETS[key], name=key, require_complete=key != "ENZ")
