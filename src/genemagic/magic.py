"""Exact S1/S2 verification of grids rendered under a notation.

All sums are exact Python integers; the largest value handled here
(897867554657688 for the 16x16 BIN square sum) is well inside native
int range and is asserted exactly by the test suite.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .encoding import Notation
from .errors import ShapeError
from .structure import Region, _block_plan, _by_line, _layout, _tally
from .tables import Grid, _split_rows

#: The prime whose divisibility the reports track.
DIVISOR = 37


class NumericGrid(NamedTuple):
    """A grid rendered to exact integers under one notation."""

    values: tuple[tuple[int, ...], ...]
    notation: Notation
    source: str | None = None

    @property
    def side(self) -> int:
        return len(self.values)


def numeric_grid(grid: Grid, notation: Notation) -> NumericGrid:
    return NumericGrid(_split_rows(grid.flat_values(notation), grid.side), notation, grid.name)


class BlockSums(NamedTuple):
    total: int
    square_total: int
    magic_subsquare: bool | None = None


class MagicReport(NamedTuple):
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


def _constant(sums: Sequence[int]) -> int | None:
    distinct = set(sums)
    return distinct.pop() if len(distinct) == 1 else None


def analyze(grid: Grid, notation: Notation) -> MagicReport:
    """Full exact magic/bimagic report of a grid under one notation."""
    side = grid.side
    layout = _layout(side)
    values = grid.flat_values(notation)
    squares = [v * v for v in values]
    s1_lines, s2_lines = _tally(values, layout.lines), _tally(squares, layout.lines)
    s1_rows, s1_cols, s1_diags = _by_line(s1_lines, side)
    s2_rows, s2_cols, s2_diags = _by_line(s2_lines, side)

    s1 = _constant(s1_lines)
    magic = s1 is not None
    bimagic = magic and _constant(s2_lines) is not None
    column_bimagic = magic and _constant(s2_cols) is not None
    if s1 is None:
        s1 = _constant(s1_rows)
    s2 = _constant(s2_lines)
    if s2 is None:
        s2 = _constant(s2_cols)

    block_sums = {k: _block_sums(values, squares, plan, k) for k, plan in layout.blocks}
    half_line_sums = dict(zip(layout.halves, _tally(values, layout.half_getters)))

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
    values: Sequence[int], squares: Sequence[int], plan: tuple, k: int = 0
) -> dict[tuple[int, int], BlockSums]:
    """Sums and square sums of the blocks of a ``_block_plan``, with each
    block's own magic verdict when they are k x k squares with k >= 3."""
    keys, getters = plan
    blocks = [get(values) for get in getters]
    totals, square_totals = map(sum, blocks), _tally(squares, getters)
    verdicts = [None] * len(keys)
    if k >= 3:
        lines = _layout(k).lines
        verdicts = [_constant(_tally(block, lines)) is not None for block in blocks]
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
    return _block_sums(values, [v * v for v in values], _block_plan(side, k, k), k)


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
    return _block_sums(values, [v * v for v in values], _block_plan(side, rows, cols))


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
