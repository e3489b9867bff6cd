"""The ``orbit`` workload: full library analysis of distinct grids from the symmetry orbits.

A grid of the orbit of table T is D(P(L(T))): a letter relabelling L (24),
a permutation P of the letter places inside every word (n!), and one of
the 8 dihedral maps D of the square.  Every map is a bijection on words,
so each orbit grid of a complete table holds every word once, and its
S1/S2, when it is magic/bimagic, are the table's pinned values.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import genemagic as gm
from genemagic import Notation, load_canonical, structure

LETTERS = "CATG"

#: Ops per round, by table.  R4, R8A and R8B run out of distinct grids
#: together, after 96 rounds (3552 ops).  R16 ops cost about four times an
#: 8x8 op and make up a third of a round, so p90 falls inside the R16 ops
#: and p50 inside the 8x8 ones, not at the edge of either group, where a
#: spell of slow machine would move them most.
ROUND = (("R4", 1), ("R8A", 12), ("R8B", 12), ("R16", 12))

#: Paper values: S1 and S2 by table and notation (bin, digit, dec).
S1 = {
    "R4": (2222, 110, 34),
    "R8A": (444444, 2220, 260),
    "R8B": (444444, 2220, 260),
    "R16": (88888888, 44440, 2056),
}
S2 = {
    "R8B": (44893328844, 717060, 11180),
    "R16": (897867554657688, 143634120, 351576),
}
NOTATIONS = (Notation.BIN, Notation.DIGIT, Notation.DEC)


class OrbitGrid(NamedTuple):
    table: str
    places: tuple[int, ...]
    labels: str
    dihedral: int
    cells: tuple[tuple[str, ...], ...]
    text: str

    def __str__(self) -> str:
        return f"{self.table} place {self.places} letters {self.labels} dihedral {self.dihedral}"


def dihedral(cells, d: int):
    """Map 0..7 of the square: transpose when bit 2 is set, then d % 4 quarter turns."""
    rows = [tuple(row) for row in cells]
    if d & 4:
        rows = list(zip(*rows))
    for _ in range(d & 3):
        rows = list(zip(*rows[::-1]))
    return tuple(tuple(row) for row in rows)


def transform(cells, places, labels, d):
    relabel = str.maketrans(LETTERS, labels)
    mapped = tuple(
        tuple("".join(word[p] for p in places).translate(relabel) for word in row)
        for row in cells
    )
    return dihedral(mapped, d)


def grid_text(cells) -> str:
    lines = [f"n={len(cells[0][0])} size={len(cells)}"]
    lines += [" ".join(row) for row in cells]
    return "\n".join(lines) + "\n"


class OrbitSample:
    """Seeded stream of distinct orbit grids, served in rounds of ``ROUND``.

    Each table's maps are visited in a seeded order and grids already seen
    are skipped; a table whose orbit is exhausted starts over in a new order.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.streams = {table: self._stream(table) for table, _ in ROUND}

    def _stream(self, table):
        cells = load_canonical(table).cells
        n = len(cells[0][0])
        labels = ["".join(p) for p in itertools.permutations(LETTERS)]
        maps = list(itertools.product(itertools.permutations(range(n)), labels, range(8)))
        while True:
            self.rng.shuffle(maps)
            seen = set()
            for places, labels, d in maps:
                grid = transform(cells, places, labels, d)
                text = grid_text(grid)
                key = hashlib.blake2b(text.encode(), digest_size=16).digest()
                if key not in seen:
                    seen.add(key)
                    yield OrbitGrid(table, places, labels, d, grid, text)

    def next_round(self) -> list[OrbitGrid]:
        items = [next(self.streams[table]) for table, count in ROUND for _ in range(count)]
        self.rng.shuffle(items)
        return items


def balance_regions(grid):
    """Regions whose size is a multiple of 2^n: lines when the side allows, and blocks."""
    unit = 2 ** grid.word_len
    side = grid.side
    regions = []
    if side % unit == 0:
        regions += structure.rows(side) + structure.columns(side) + structure.diagonals()
    for k in (2, 4):
        if k < side and side % k == 0 and (k * k) % unit == 0:
            regions += structure.blocks(side, k)
    return regions


class OrbitResult(NamedTuple):
    grid: object
    reports: dict
    entropy: dict
    places: list
    weights: object
    balance: dict


def op(item: OrbitGrid) -> OrbitResult:
    """One grid: parse, verify in every notation, entropy when magic, structure, Hamming.

    Calls go through the package namespace so that a traced run sees them.
    """
    grid = gm.parse_grid(item.text)
    reports = {nt: gm.analyze(grid, nt) for nt in NOTATIONS}
    entropy = {}
    for nt, report in reports.items():
        if report.magic:
            prob = gm.normalize(grid, nt)
            entropy[nt] = (prob, gm.shannon_report(prob), gm.order_index(prob))
    regions = gm.standard_regions(grid.side)
    places = [
        gm.place_permutation_report(grid, place, regions)
        for place in range(1, grid.word_len + 1)
    ]
    weights = gm.weight_grid(grid)
    balance = gm.balance_report(grid, balance_regions(grid))
    return OrbitResult(grid, reports, entropy, places, weights, balance)


class Checker:
    """Checks orbit results against facts any correct genemagic keeps.

    * parsing returns the generated cells, and a word's Hamming weight is
      its number of A and T letters;
    * R4 and R8A orbit grids are magic and not bimagic, R16 ones bimagic,
      in every notation; a magic grid has the table's S1, a bimagic one its S2;
    * normalized rows and columns sum to exactly 1, the line sum is S1,
      and on a bimagic grid every row and column order index is S2/S1^2;
    * the dihedral maps preserve the verdicts, the number of uniform
      regions at each place and the number of balanced regions: grids that
      differ only in D must agree on them.
    """

    def __init__(self) -> None:
        self.by_class: dict[tuple, tuple] = {}
        self.pairs = 0
        self.magic_pairs = 0

    def __call__(self, item: OrbitGrid, result: OrbitResult) -> bool:
        if result.grid.cells != item.cells:
            return False
        verdicts = []
        for index, nt in enumerate(NOTATIONS):
            report = result.reports[nt]
            self.pairs += 1
            self.magic_pairs += report.magic
            verdicts.append((report.magic, report.bimagic))
            if not self._report_ok(item.table, index, report, result.entropy.get(nt)):
                return False
        weights = tuple(tuple(sum(c in "AT" for c in word) for word in row) for row in item.cells)
        if result.weights.weights != weights:
            return False
        facts = (
            tuple(verdicts),
            tuple(sum(report.values()) for report in result.places),
            sum(result.balance.values()),
        )
        return self.by_class.setdefault((item.table, item.places, item.labels), facts) == facts

    @staticmethod
    def _report_ok(table, index, report, entropy) -> bool:
        if table in ("R4", "R8A") and not (report.magic and not report.bimagic):
            return False
        if table == "R16" and not report.bimagic:
            return False
        if report.magic != (entropy is not None):
            return False
        if not report.magic:
            return True
        s1 = S1[table][index]
        if report.s1 != s1:
            return False
        if report.bimagic and report.s2 != S2[table][index]:
            return False
        prob, shannon, order = entropy
        if prob.line_sum != s1:
            return False
        side = prob.side
        if any(sum(row) != 1 for row in prob.values):
            return False
        if any(sum(prob.values[i][j] for i in range(side)) != 1 for j in range(side)):
            return False
        if not all(math.isfinite(v) and v > 0 for v in shannon.row_sums):
            return False
        if report.bimagic:
            expected = Fraction(report.s2, s1 * s1)
            if any(v != expected for v in order.rows + order.cols):
                return False
        return True
