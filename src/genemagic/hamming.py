"""Hamming-weight grids, monomial labels, and binomial frequency checks.

A word of weight k (k letters from A/T, n-k from C/G) carries the
monomial label a^k b^(n-k).  Over all 4**n words the weights follow the
binomial pattern: exactly C(n, k) * 2**n words have weight k.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

from .errors import ShapeError
from .structure import Region, _histogram_report
from .tables import Grid, _split_rows


def monomial(weight: int, word_len: int) -> str:
    """Label a^k b^(n-k) with bare symbols for exponent 1, as in a^2b^2 or ab^3."""
    if not 0 <= weight <= word_len:
        raise ShapeError(f"weight {weight} out of range 0..{word_len}")
    parts = []
    for symbol, exp in (("a", weight), ("b", word_len - weight)):
        if exp == 1:
            parts.append(symbol)
        elif exp > 1:
            parts.append(f"{symbol}^{exp}")
    return "".join(parts)


class WeightGrid(NamedTuple):
    weights: tuple[tuple[int, ...], ...]
    monomials: tuple[tuple[str, ...], ...]
    word_len: int
    source: str | None = None


def weight_grid(grid: Grid) -> WeightGrid:
    """Per-cell Hamming weight and monomial label."""
    n, side = grid.word_len, grid.side
    weights = _weights(grid)
    labels = [monomial(k, n) for k in range(n + 1)]
    return WeightGrid(
        _split_rows(weights, side), _split_rows([labels[w] for w in weights], side), n, grid.name
    )


def _weights(grid: Grid) -> list[int]:
    """Row-major Hamming weights, counted straight from the grid's validated words."""
    return [word.count("A") + word.count("T") for word in grid.words()]


class FrequencyTable(NamedTuple):
    word_len: int
    counts: tuple[int, ...]
    binomial: tuple[int, ...]
    expected: tuple[int, ...]

    @property
    def match(self) -> bool:
        return self.counts == self.expected


def frequency_distribution(grid: Grid) -> FrequencyTable:
    """Counts of each weight over all cells, against C(n,k) * 2**n."""
    n = grid.word_len
    counts = [0] * (n + 1)
    for weight in _weights(grid):
        counts[weight] += 1
    binomial = tuple(comb(n, k) for k in range(n + 1))
    return FrequencyTable(n, tuple(counts), binomial, tuple(c * 2**n for c in binomial))


def balance_report(grid: Grid, regions: Sequence[Region]) -> dict[Region, bool]:
    """Per-region weight balance verdicts.

    A region of size m (m a multiple of 2**n) passes when it holds exactly
    C(n, k) * m / 2**n cells of each weight k.
    """
    n = grid.word_len
    unit = 2**n
    counts = [comb(n, k) for k in range(n + 1)]
    return _histogram_report(regions, grid.side, _weights(grid), counts, unit, f"2^{n} = {unit}")
