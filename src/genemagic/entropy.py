"""Probability renderings of magic grids, Shannon entropy, and order index.

Probabilities are exact rationals cell/S1, so every row of a magic grid
sums to exactly 1.  Entropy terms use base-10 logarithms, -p * log10(p),
with the 0 * log 0 = 0 convention; they are computed from the exact
rationals, never from rounded decimal displays.

The order index of a probability line is sum(p**2), kept as an exact
rational.  For a bimagic grid it equals S2 / S1**2 on every line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .encoding import Notation
from .errors import PreconditionError
from .structure import _grid_lines, _tally
from .tables import Grid, _split_rows


@dataclass(frozen=True)
class ProbabilityGrid:
    """Exact cell/S1 probabilities of a grid magic under some notation."""

    values: tuple[tuple[Fraction, ...], ...]
    notation: Notation
    line_sum: int
    source: str | None = None

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
    line_sums = _tally(values, _grid_lines(side))
    target = line_sums[0]
    for i, total in enumerate(line_sums[:side]):
        if total != target:
            raise PreconditionError(
                f"not magic under {notation.value}: row 1 sums to {target} "
                f"but row {i + 1} sums to {total}"
            )
    for j, total in enumerate(line_sums[side:2 * side]):
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
    return -float(p) * math.log10(float(p))


@dataclass(frozen=True)
class EntropyReport:
    """Per-cell entropy terms with row, column, and diagonal sums."""

    terms: tuple[tuple[float, ...], ...]
    row_sums: tuple[float, ...]
    col_sums: tuple[float, ...]
    diag_sums: tuple[float, float]


def shannon_report(p: ProbabilityGrid) -> EntropyReport:
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


class OrderIndex(NamedTuple):
    """Exact sum(p**2) per row and per column."""

    rows: tuple[Fraction, ...]
    cols: tuple[Fraction, ...]


def order_index(p: ProbabilityGrid) -> OrderIndex:
    side = p.side
    # Over a common denominator d each p is an integer n/d, so a line's
    # sum(p**2) is the one exact fraction sum(n*n) / d**2.
    flat = [v for row in p.values for v in row]
    d = math.lcm(*(v.denominator for v in flat))
    squares = [(v.numerator * (d // v.denominator)) ** 2 for v in flat]
    sums = _tally(squares, _grid_lines(side)[:2 * side])
    d2 = d * d
    return OrderIndex(
        rows=tuple(Fraction(total, d2) for total in sums[:side]),
        cols=tuple(Fraction(total, d2) for total in sums[side:]),
    )
