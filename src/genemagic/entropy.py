"""Probability renderings of magic grids, Shannon entropy, and order index.

Probabilities are exact rationals cell/S1, so every row of a magic grid
sums to exactly 1.  Entropy terms use base-10 logarithms, -p * log10(p),
with the 0 * log 0 = 0 convention.  Each p is taken from exact integers
n / d over a common denominator (for a normalized grid, the cell values
over S1 in lowest terms) by integer true division, which is correctly
rounded, so it is the float nearest the exact rational, never a rounded
decimal display.

The order index of a probability line is sum(p**2), kept as an exact
rational.  For a bimagic grid it equals S2 / S1**2 on every line.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .encoding import Notation
from .errors import PreconditionError, ShapeError
from .structure import _by_line, _layout, _tally
from .tables import Grid, _Record, _split_rows


class ProbabilityGrid(_Record):
    """Exact cell/S1 probabilities of a grid magic under some notation.

    ``scaled`` is derived from ``values`` when the grid is built: the same
    probabilities as integers over one common denominator, (row-major
    numerators, denominator).  It is not compared or shown, so equality,
    hashing and repr see only the fractions, the notation, the line sum
    and the source.  A probability grid is immutable.
    """

    __slots__ = ("values", "notation", "line_sum", "source", "scaled")
    _fields = ("values", "notation", "line_sum", "source")

    def __init__(
        self,
        values: tuple[tuple[Fraction, ...], ...],
        notation: Notation,
        line_sum: int,
        source: str | None = None,
    ) -> None:
        side = len(values)
        for i, row in enumerate(values):
            if len(row) != side:
                raise ShapeError(
                    f"probability row {i + 1} has {len(row)} values, expected {side}"
                )
        ratios = [v.as_integer_ratio() for row in values for v in row]
        d = math.lcm(*(q for _, q in ratios))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "notation", notation)
        object.__setattr__(self, "line_sum", line_sum)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "scaled", (tuple(n * (d // q) for n, q in ratios), d))

    @property
    def side(self) -> int:
        return len(self.values)


def normalize(grid: Grid, notation: Notation) -> ProbabilityGrid:
    """Divide every cell value by the shared row/column sum.

    Raises PreconditionError naming the first unequal sums when the grid
    is not magic (in rows and columns) under the notation.
    """
    side = grid.side
    values = grid.flat_values(notation)
    row_sums, col_sums, _ = _by_line(_tally(values, _layout(side).lines), side)
    target = row_sums[0]
    for i, total in enumerate(row_sums):
        if total != target:
            raise PreconditionError(
                f"not magic under {notation.value}: row 1 sums to {target} "
                f"but row {i + 1} sums to {total}"
            )
    for j, total in enumerate(col_sums):
        if total != target:
            raise PreconditionError(
                f"not magic under {notation.value}: rows sum to {target} "
                f"but column {j + 1} sums to {total}"
            )
    if target == 0:
        raise PreconditionError("magic sum is zero; cannot normalize")
    probabilities = _split_rows([Fraction(v, target) for v in values], side)
    return ProbabilityGrid(probabilities, notation, target, grid.name)


def entropy_term(p: Fraction) -> float:
    """-p * log10(p), with 0 mapping to 0."""
    if p == 0:
        return 0.0
    x = float(p)
    # adding 0.0 turns the -0.0 of p = 1 into 0.0 and leaves any other float as it is
    return -x * math.log10(x) + 0.0


class EntropyReport(NamedTuple):
    """Per-cell entropy terms with row, column, and diagonal sums."""

    terms: tuple[tuple[float, ...], ...]
    row_sums: tuple[float, ...]
    col_sums: tuple[float, ...]
    diag_sums: tuple[float, float]


def shannon_report(p: ProbabilityGrid) -> EntropyReport:
    side = p.side
    numerators, d = p.scaled
    # n / d is float(Fraction(n, d)), so each term equals entropy_term's
    log10 = math.log10
    terms = [-(n / d) * log10(n / d) + 0.0 if n else 0.0 for n in numerators]
    sums = [math.fsum(get(terms)) for get in _layout(side).lines]
    return EntropyReport(_split_rows(terms, side), *_by_line(sums, side))


class OrderIndex(NamedTuple):
    """Exact sum(p**2) per row and per column."""

    rows: tuple[Fraction, ...]
    cols: tuple[Fraction, ...]


def order_index(p: ProbabilityGrid) -> OrderIndex:
    side = p.side
    # Over the common denominator d each p is an integer n/d, so a line's
    # sum(p**2) is the one exact fraction sum(n*n) / d**2.
    numerators, d = p.scaled
    rows, cols, _ = _by_line(_tally([n * n for n in numerators], _layout(side).lines), side)
    d2 = d * d
    return OrderIndex(
        rows=tuple(Fraction(total, d2) for total in rows),
        cols=tuple(Fraction(total, d2) for total in cols),
    )
