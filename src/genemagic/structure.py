"""Positional letter permutations, Latin-square checks, and XOR letter grids."""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .encoding import LETTERS, xor_reduce
from .errors import ShapeError
from .tables import Grid

HALF_NAMES = {
    "half_row": ("left", "right"),
    "half_column": ("top", "bottom"),
    "half_diagonal": ("first", "second"),
}
#: How many values each region kind's index holds.
_ARITY = {"row": 1, "column": 1, "main_diagonal": 0, "anti_diagonal": 0, "block": 3,
          **dict.fromkeys(HALF_NAMES, 2)}


class Region(NamedTuple):
    """A named group of cell positions inside an N x N grid.

    Kinds and their index parameters (all 0-based):

    * ``row`` / ``column``: (i,)
    * ``main_diagonal`` / ``anti_diagonal``: ()
    * ``block``: (k, bi, bj) for the k x k block at block row bi, column bj
    * ``half_row`` / ``half_column``: (i, half) with half 0 or 1
    * ``half_diagonal``: (d, half) with d 0 for main, 1 for anti
    """

    kind: str
    index: tuple[int, ...] = ()

    def cells(self, side: int) -> tuple[tuple[int, int], ...]:
        """The (row, col) positions this region covers in a grid of that side."""
        return _cells(self, side)

    @property
    def label(self) -> str:
        kind, idx = self.kind, self.index
        _check_index(kind, idx)
        if kind in ("row", "column"):
            return f"{kind} {idx[0] + 1}"
        if kind in ("main_diagonal", "anti_diagonal"):
            return kind.replace("_", " ")
        if kind == "block":
            k, bi, bj = idx
            return f"block {k}x{k} ({bi + 1},{bj + 1})"
        half = HALF_NAMES[kind][idx[1]]
        if kind == "half_diagonal":
            return f"half {'main' if idx[0] == 0 else 'anti'} diagonal ({half})"
        return f"half {kind.split('_')[1]} {idx[0] + 1} ({half})"


def _check_index(kind: str, idx: tuple[int, ...]) -> None:
    """Reject an index that names no region in a grid of any side."""
    if kind not in _ARITY:
        raise ShapeError(f"{kind} region index {idx!r}: unknown region kind")
    if len(idx) != _ARITY[kind]:
        raise ShapeError(f"{kind} region index {idx!r} must have length {_ARITY[kind]}")
    if kind == "block" and idx[0] < 1:
        raise ShapeError(f"block region index {idx!r} has block size {idx[0]}, expected at least 1")
    if kind in HALF_NAMES and (
        idx[1] not in (0, 1) or (kind == "half_diagonal" and idx[0] not in (0, 1))
    ):
        raise ShapeError(f"{kind} region index {idx!r}: its selectors must be 0 or 1")


@functools.lru_cache(maxsize=4096)
def _cells(region: Region, side: int) -> tuple[tuple[int, int], ...]:
    cells = _positions(region, side)
    if not all(0 <= i < side and 0 <= j < side for i, j in cells):
        raise ShapeError(f"region {region.label!r} lies outside a grid of side {side}")
    return cells


def _positions(region: Region, side: int) -> tuple[tuple[int, int], ...]:
    """The positions a region names, which may fall outside the grid."""
    kind, idx = region
    _check_index(kind, idx)
    if kind == "row":
        return tuple((idx[0], j) for j in range(side))
    if kind == "column":
        return tuple((i, idx[0]) for i in range(side))
    if kind == "main_diagonal":
        return tuple((i, i) for i in range(side))
    if kind == "anti_diagonal":
        return tuple((i, side - 1 - i) for i in range(side))
    if kind == "block":
        k, bi, bj = idx
        if side % k:
            raise ShapeError(f"block size {k} does not divide side {side}")
        return tuple(
            (bi * k + di, bj * k + dj) for di in range(k) for dj in range(k)
        )
    which, half = idx
    if side % 2:
        raise ShapeError(f"half regions need an even side, got {side}")
    span = range(half * side // 2, (half + 1) * side // 2)
    if kind == "half_row":
        return tuple((which, j) for j in span)
    if kind == "half_column":
        return tuple((i, which) for i in span)
    if which == 0:
        return tuple((i, i) for i in span)
    return tuple((i, side - 1 - i) for i in span)


def _getter(idx: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """Fetch the cells at flat indices ``idx``, always as a sequence.

    ``itemgetter(k)`` alone returns the bare item, so a region of one cell
    (or none) takes a slice instead.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


@functools.lru_cache(maxsize=256)
def _plans(regions: tuple[Region, ...], side: int) -> tuple[tuple[Callable, ...], tuple[int, ...]]:
    """Each region's cell getter over row-major values, and its size."""
    flats = [tuple(i * side + j for i, j in _cells(region, side)) for region in regions]
    return tuple(map(_getter, flats)), tuple(map(len, flats))


def _square_lines(idx: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Rows, columns, main and anti diagonal of a k x k square of row-major indices."""
    return (
        [idx[r * k:(r + 1) * k] for r in range(k)]
        + [idx[c::k] for c in range(k)]
        + [tuple(idx[r * k + r] for r in range(k))]
        + [tuple(idx[r * k + k - 1 - r] for r in range(k))]
    )


@functools.lru_cache(maxsize=64)
def _grid_lines(side: int) -> tuple[Callable, ...]:
    """Getters of the rows, columns, main and anti diagonal of a grid."""
    return tuple(map(_getter, _square_lines(tuple(range(side * side)), side)))


def _tally(values: Sequence[int], getters: Sequence[Callable]) -> list[int]:
    """The sum of ``values`` over each region getter: every region check's kernel."""
    return [sum(get(values)) for get in getters]


def _histogram_report(
    regions: Sequence[Region], side: int, symbols: Sequence[int],
    counts: Sequence[int], unit: int, unit_name: str,
) -> dict[Region, bool]:
    """Per region of size m, whether each symbol s occurs counts[s] * m / unit times.

    A cell holding symbol s adds base**s, with base above any region's
    size, so a region's integer sum carries its symbol counts as base-``base``
    digits and one comparison checks them all.
    """
    regions = tuple(regions)
    getters, sizes = _plans(regions, side)
    for region, size in zip(regions, sizes):
        if size % unit:
            raise ShapeError(
                f"region {region.label!r} has size {size}, not a multiple of {unit_name}"
            )
    base = max(sizes, default=0) + 1
    powers = [base**s for s in range(len(counts))]
    target = sum(c * p for c, p in zip(counts, powers))
    sums = _tally([powers[s] for s in symbols], getters)
    verdicts = [total == target * (size // unit) for total, size in zip(sums, sizes)]
    return dict(zip(regions, verdicts))


def rows(side: int) -> list[Region]:
    return [Region("row", (i,)) for i in range(side)]


def columns(side: int) -> list[Region]:
    return [Region("column", (j,)) for j in range(side)]


def diagonals() -> list[Region]:
    return [Region("main_diagonal"), Region("anti_diagonal")]


def blocks(side: int, k: int) -> list[Region]:
    if k <= 0 or side % k:
        raise ShapeError(f"block size {k} does not divide side {side}")
    per = side // k
    return [Region("block", (k, bi, bj)) for bi in range(per) for bj in range(per)]


def half_rows(side: int) -> list[Region]:
    return [Region("half_row", (i, h)) for i in range(side) for h in (0, 1)]


def half_columns(side: int) -> list[Region]:
    return [Region("half_column", (j, h)) for j in range(side) for h in (0, 1)]


def half_diagonals() -> list[Region]:
    return [Region("half_diagonal", (d, h)) for d in (0, 1) for h in (0, 1)]


def standard_regions(side: int) -> list[Region]:
    """Rows, columns, both diagonals, aligned 2x2 and 4x4 blocks, half lines.

    Half lines join the set only when they can hold whole letter groups,
    i.e. when half a side is a multiple of 4.
    """
    return list(_standard_regions(side))


@functools.lru_cache(maxsize=64)
def _standard_regions(side: int) -> tuple[Region, ...]:
    regions = rows(side) + columns(side) + diagonals()
    for k in (2, 4):
        if k < side and side % k == 0:
            regions += blocks(side, k)
    if side % 8 == 0:
        regions += half_rows(side) + half_columns(side) + half_diagonals()
    return tuple(regions)


def place_letters(grid: Grid, place: int) -> tuple[tuple[str, ...], ...]:
    """Project every cell to the letter at 1-based position ``place``."""
    if not 1 <= place <= grid.word_len:
        raise ShapeError(f"place {place} out of range 1..{grid.word_len}")
    return tuple(tuple(word[place - 1] for word in row) for row in grid.cells)


_LETTER_CODES = {c: code for code, c in enumerate(LETTERS)}


def place_permutation_report(
    grid: Grid, place: int, regions: Sequence[Region]
) -> dict[Region, bool]:
    """Per-region verdicts for uniform letter distribution at one place.

    A region of size 4 passes when its projected letters are a permutation
    of C, A, T, G; larger regions pass when each letter occurs size/4 times.
    """
    if not 1 <= place <= grid.word_len:
        raise ShapeError(f"place {place} out of range 1..{grid.word_len}")
    letters = "".join(grid.words())[place - 1::grid.word_len]
    symbols = [_LETTER_CODES[c] for c in letters]
    return _histogram_report(regions, grid.side, symbols, (1, 1, 1, 1), 4, "4")


class LatinVerdict(NamedTuple):
    latin: bool
    diagonal_latin: bool


def latin_square_check(array: Sequence[Sequence[object]]) -> LatinVerdict:
    """Check rows/columns (and both diagonals) for one-of-each-symbol."""
    side = len(array)
    if any(len(row) != side for row in array):
        raise ShapeError("array is not square")
    alphabet = {sym for row in array for sym in row}
    if len(alphabet) > side:
        raise ShapeError(
            f"{len(alphabet)} distinct symbols cannot form a Latin square of side {side}"
        )
    lines = [tuple(row) for row in array]
    lines += [tuple(row[j] for row in array) for j in range(side)]
    latin = all(len(set(line)) == side for line in lines)
    main = {array[i][i] for i in range(side)}
    anti = {array[i][side - 1 - i] for i in range(side)}
    return LatinVerdict(latin, latin and len(main) == side and len(anti) == side)


def orthogonality_check(
    a: Sequence[Sequence[object]], b: Sequence[Sequence[object]]
) -> bool:
    """True when superimposing the arrays yields all distinct ordered pairs."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ShapeError("arrays differ in shape")
    pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    return len(set(pairs)) == len(pairs)


#: XOR values 000..111 rendered as letters for 8x8 letter grids.
XOR_LETTERS = "abcdefgh"


def xor_letter_grid(grid: Grid):
    """Per-cell XOR reduction: letters a..h for n=3, values 0..3 for n=2."""
    n = grid.word_len
    if n not in (2, 3):
        raise ShapeError(f"xor letter grid is defined for word length 2 or 3, got {n}")
    values = tuple(
        tuple(int(xor_reduce(word), 2) for word in row) for row in grid.cells
    )
    if n == 2:
        return values
    return tuple(tuple(XOR_LETTERS[v] for v in row) for row in values)
