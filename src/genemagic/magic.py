"""Exact S1/S2 verification of grids rendered under a notation.

All sums are exact Python integers; the largest value handled here
(897867554657688 for the 16x16 BIN square sum) is well inside native
int range and is asserted exactly by the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .encoding import Notation
from .errors import ShapeError
from .structure import (
    Region,
    _getter,
    _grid_lines,
    _plans,
    _square_lines,
    _tally,
    half_columns,
    half_diagonals,
    half_rows,
)
from .tables import Grid, _split_rows

#: The prime whose divisibility the reports track.
DIVISOR = 37


@dataclass(frozen=True)
class NumericGrid:
    """A grid rendered to exact integers under one notation."""

    values: tuple[tuple[int, ...], ...]
    notation: Notation
    source: str | None = None

    @property
    def side(self) -> int:
        return len(self.values)


def numeric_grid(grid: Grid, notation: Notation) -> NumericGrid:
    return NumericGrid(_split_rows(grid.flat_values(notation), grid.side), notation, grid.name)


@dataclass(frozen=True)
class BlockSums:
    total: int
    square_total: int
    magic_subsquare: bool | None = None


@dataclass(frozen=True)
class MagicReport:
    grid_name: str | None
    notation: Notation
    side: int
    s1_rows: tuple[int, ...]
    s1_cols: tuple[int, ...]
    s1_diags: tuple[int, int]
    s2_rows: tuple[int, ...]
    s2_cols: tuple[int, ...]
    s2_diags: tuple[int, int]
    magic: bool
    column_bimagic: bool
    bimagic: bool
    s1: int | None
    s2: int | None
    block_sums: dict[int, dict[tuple[int, int], BlockSums]]
    half_line_sums: dict[Region, int]
    divisibility: tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=64)
def _block_plan(
    side: int, rows: int, cols: int
) -> tuple[tuple[tuple[int, int], ...], tuple[Callable, ...], tuple[Callable, ...]]:
    """Positions of the aligned rows x cols blocks, a getter of each block's
    cells, and, for square blocks, getters of every block's lines, block by block."""
    keys = tuple((bi, bj) for bi in range(side // rows) for bj in range(side // cols))
    index_tuples = [
        tuple((bi * rows + di) * side + bj * cols + dj for di in range(rows) for dj in range(cols))
        for bi, bj in keys
    ]
    lines = []
    if rows == cols:
        lines = [line for idx in index_tuples for line in _square_lines(idx, rows)]
    return keys, tuple(map(_getter, index_tuples)), tuple(map(_getter, lines))


@functools.lru_cache(maxsize=64)
def _half_lines(side: int) -> tuple[tuple[Region, ...], tuple[Callable, ...]]:
    regions = tuple(half_rows(side) + half_columns(side) + half_diagonals())
    return regions, _plans(regions, side)[0]


def _constant(sums: Sequence[int]) -> int | None:
    distinct = set(sums)
    return distinct.pop() if len(distinct) == 1 else None


def analyze(grid: Grid, notation: Notation) -> MagicReport:
    """Full exact magic/bimagic report of a grid under one notation."""
    side = grid.side
    values = grid.flat_values(notation)
    squares = [v * v for v in values]
    lines = _grid_lines(side)
    s1_lines, s2_lines = _tally(values, lines), _tally(squares, lines)
    s1_rows, s1_cols = tuple(s1_lines[:side]), tuple(s1_lines[side:2 * side])
    s2_rows, s2_cols = tuple(s2_lines[:side]), tuple(s2_lines[side:2 * side])
    s1_diags, s2_diags = tuple(s1_lines[2 * side:]), tuple(s2_lines[2 * side:])

    s1 = _constant(s1_lines)
    magic = s1 is not None
    bimagic = magic and _constant(s2_lines) is not None
    column_bimagic = magic and _constant(s2_cols) is not None
    if s1 is None:
        s1 = _constant(s1_rows)
    s2 = _constant(s2_lines)
    if s2 is None:
        s2 = _constant(s2_cols)

    block_sums = {
        k: _block_sums(values, squares, side, k, k, k >= 3)
        for k in (2, 4)
        if k < side and side % k == 0
    }
    half_line_sums: dict[Region, int] = {}
    if side % 2 == 0 and side > 1:
        regions, getters = _half_lines(side)
        half_line_sums = dict(zip(regions, _tally(values, getters)))

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
        block_sums=block_sums,
        half_line_sums=half_line_sums,
        divisibility=_divisibility(half_line_sums, s1, s2),
    )


def _block_sums(
    values: Sequence[int],
    squares: Sequence[int],
    side: int,
    rows: int,
    cols: int,
    magic_check: bool = False,
) -> dict[tuple[int, int], BlockSums]:
    """Sums and square sums of the aligned rows x cols blocks, with each
    square block's own magic verdict when ``magic_check`` is set."""
    keys, getters, line_getters = _block_plan(side, rows, cols)
    totals, square_totals = _tally(values, getters), _tally(squares, getters)
    verdicts = [None] * len(keys)
    if magic_check:
        sums, per = _tally(values, line_getters), 2 * rows + 2
        verdicts = [_constant(sums[i:i + per]) is not None for i in range(0, len(sums), per)]
    return {
        key: BlockSums(total, square_total, verdict)
        for key, total, square_total, verdict in zip(keys, totals, square_totals, verdicts)
    }


def block_report(
    grid: Grid, notation: Notation, k: int
) -> dict[tuple[int, int], BlockSums]:
    """Sum and square-sum of every aligned k x k block, keyed by block position.

    For k >= 3 each block is additionally checked for being a magic square
    on its own rows, columns, and diagonals.
    """
    side = grid.side
    if k <= 0 or side % k:
        raise ShapeError(f"block size {k} does not divide side {side}")
    values = grid.flat_values(notation)
    return _block_sums(values, [v * v for v in values], side, k, k, k >= 3)


def rect_block_report(
    grid: Grid, notation: Notation, rows: int, cols: int
) -> dict[tuple[int, int], BlockSums]:
    """Sum and square-sum of every aligned rows x cols block."""
    side = grid.side
    if rows <= 0 or cols <= 0 or side % rows or side % cols:
        raise ShapeError(
            f"block shape {rows}x{cols} does not tile a grid of side {side}"
        )
    values = grid.flat_values(notation)
    return _block_sums(values, [v * v for v in values], side, rows, cols)


def divisibility_facts(report: MagicReport) -> tuple[tuple[int, int], ...]:
    """Every S1/S2/half-line value divisible by 37, with its exact quotient."""
    return _divisibility(report.half_line_sums, report.s1, report.s2)


def _divisibility(
    half_line_sums: dict[Region, int], s1: int | None, s2: int | None
) -> tuple[tuple[int, int], ...]:
    candidates = set(half_line_sums.values())
    for value in (s1, s2):
        if value is not None:
            candidates.add(value)
    return tuple(
        (value, value // DIVISOR)
        for value in sorted(candidates)
        if value and value % DIVISOR == 0
    )
