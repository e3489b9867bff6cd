"""The ``cli_sweep`` workload: in-process ``genemagic.cli.main`` over a fixed request mix.

One pass holds every command x format x canonical table x notation, a few
``--decimal-comma`` and ``--strict`` requests, and ``--input`` requests on
the serialized canonical tables and on malformed files.  Each request
carries the exit code the CLI documents for it (0 success, 1 failed
``--strict`` verification, 2 usage or input error); the expected code of
``entropy`` and ``--strict`` requests comes from an independent line-sum
check of the table, written here from the notation definitions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from genemagic import cli, load_canonical

from orbit import S1, S2, grid_text

#: The embedded tables the paper defines.
TABLES = ("M1", "M2", "M3", "R4", "R8A", "R8B", "R16", "ENZ")
FORMATS = ("text", "csv", "json", "md")
NOTATIONS = ("bin", "digit", "dec")
#: Letter codes: (two-bit pair, digit).
CODES = {"C": ("00", "1"), "A": ("01", "2"), "T": ("10", "3"), "G": ("11", "4")}
CODONS = ("CAG", "TAA", "ugg")
TRANSLATIONS = [("CAG", "Gln"), ("TAA", "Stop"), ("TGG", "Trp")]
#: Enzyme site sums per orientation group: bin, digit, dec.
ENZYME_SUMS = {"bin": 44444444, "digit": 22220, "dec": 1028}


class Request(NamedTuple):
    argv: tuple[str, ...]
    expect: int
    table: str | None = None  # canonical table the request reads, for content checks

    def __str__(self) -> str:
        return "genemagic " + " ".join(self.argv)


def value(word: str, notation: str) -> int:
    bits = "".join(CODES[c][0] for c in word)
    if notation == "bin":
        return int(bits, 10)
    if notation == "digit":
        return int("".join(CODES[c][1] for c in word), 10)
    return int(bits, 2) + 1


def line_sums(cells, notation: str, diagonals: bool) -> set[int]:
    """Distinct sums over rows and columns, and both diagonals if asked."""
    values = [[value(word, notation) for word in row] for row in cells]
    side = len(values)
    sums = {sum(row) for row in values}
    sums |= {sum(values[i][j] for i in range(side)) for j in range(side)}
    if diagonals:
        sums.add(sum(values[i][i] for i in range(side)))
        sums.add(sum(values[i][side - 1 - i] for i in range(side)))
    return sums


def entropy_exit(cells, notation: str) -> int:
    sums = line_sums(cells, notation, diagonals=False)
    return 0 if len(sums) == 1 and 0 not in sums else 2


def strict_exit(cells, notation: str) -> int:
    return 0 if len(line_sums(cells, notation, diagonals=True)) == 1 else 1


MALFORMED = {
    "bad_header.txt": b"size=4 words=2\nAT TG CC GA\nCA GC AG TT\nGG CT TA AC\nTC AA GT CG\n",
    "ragged_row.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AG\nGG CT TA AC\nTC AA GT CG\n",
    "invalid_letter.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AX TT\nGG CT TA AC\nTC AA GT CG\n",
    "row_count.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AG TT\nGG CT TA AC\n",
    "invalid_utf8.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AG TT\nGG CT TA \xff\xfe\nTC AA GT CG\n",
}


def write_inputs(directory) -> dict[str, str]:
    """Write the serialized canonical tables and the malformed files; return table -> path."""
    paths = {}
    for table in TABLES:
        path = directory / f"{table}.txt"
        path.write_text(grid_text(load_canonical(table).cells), encoding="utf-8")
        paths[table] = str(path)
    for name, data in MALFORMED.items():
        (directory / name).write_bytes(data)
    return paths


def build_requests(directory) -> list[Request]:
    """One pass of the mix, with input files written under ``directory``."""
    files = write_inputs(directory)
    cells = {table: load_canonical(table).cells for table in TABLES}
    reqs = [Request(("list", "--format", fmt), 0) for fmt in FORMATS]
    for table in TABLES:
        for fmt in FORMATS:
            reqs.append(Request(("show", table, "--format", fmt), 0, table))
            reqs.append(Request(("hamming", table, "--format", fmt), 0, table))
            reqs.append(Request(("structure", table, "--format", fmt), 0, table))
            for nt in NOTATIONS:
                opts = ("--notation", nt, "--format", fmt)
                reqs.append(Request(("show", table) + opts, 0, table))
                reqs.append(Request(("verify", table) + opts, 0, table))
                expect = entropy_exit(cells[table], nt)
                reqs.append(Request(("entropy", table) + opts, expect, table))
        reqs.append(
            Request(("verify", table, "--strict"), strict_exit(cells[table], "dec"), table)
        )
        reqs.append(
            Request(("verify", "--input", files[table], "--format", "json"), 0, table)
        )
        reqs.append(Request(("hamming", "--input", files[table]), 0, table))
    for table in ("R4", "R8A", "R8B", "R16"):
        for fmt in ("text", "json"):
            argv = ("entropy", table, "--notation", "bin", "--format", fmt, "--decimal-comma")
            reqs.append(Request(argv, 0, table))
        reqs.append(Request(("entropy", "--input", files[table], "--format", "json"), 0, table))
        reqs.append(Request(("structure", "--input", files[table], "--format", "json"), 0, table))
    for orientation in (None, "same", "opposite"):
        opt = () if orientation is None else ("--orientation", orientation)
        for fmt in FORMATS:
            reqs.append(Request(("enzymes",) + opt + ("--format", fmt), 0))
    for fmt in FORMATS:
        reqs.append(Request(("translate",) + CODONS + ("--format", fmt), 0))
    for name in MALFORMED:
        reqs.append(Request(("verify", "--input", str(directory / name)), 2))
    reqs.append(Request(("verify", "--input", str(directory / "missing.txt")), 2))
    reqs.append(Request(("verify", "R99"), 2))
    reqs.append(Request(("verify", "R16", "--format", "xml"), 2))
    reqs.append(Request(("structure", "R4", "--place", "9"), 2))
    return reqs


class Output(NamedTuple):
    code: int
    out: str
    err: str


def op(request: Request) -> Output:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(request.argv))
    return Output(code, out.getvalue(), err.getvalue())


class Rounds:
    """Passes over a list of requests, each pass in a fresh seeded order."""

    def __init__(self, requests: list[Request], seed: int) -> None:
        self.requests = list(requests)
        self.rng = random.Random(seed)

    def __call__(self) -> list[Request]:
        self.rng.shuffle(self.requests)
        return self.requests


class Checker:
    """Checks the documented exit code, a non-empty report or message, and the pinned values."""

    def __init__(self) -> None:
        self.codes: Counter[int] = Counter()

    def __call__(self, request: Request, output: Output) -> bool:
        self.codes[output.code] += 1
        if output.code != request.expect:
            return False
        if output.code == 0 and not output.out:
            return False
        if output.code == 2 and not output.err:
            return False
        return output.code != 0 or _content_ok(request, output.out)

    @property
    def exit2_share(self) -> float:
        return self.codes[2] / max(1, sum(self.codes.values()))


def magic_share(requests) -> float:
    """Share of the (grid, notation) pairs analyzed by verify and entropy requests that are magic."""
    pairs = [
        strict_exit(load_canonical(r.table).cells, _notation(r.argv)) == 0
        for r in requests
        if r.argv[0] in ("verify", "entropy") and r.table is not None
    ]
    return sum(pairs) / len(pairs)


def _notation(argv) -> str:
    return argv[argv.index("--notation") + 1] if "--notation" in argv else "dec"


def _content_ok(request: Request, out: str) -> bool:
    argv, table = request.argv, request.table
    command = argv[0]
    is_json = "json" in argv
    if command == "list":
        return all(t in out for t in TABLES)
    if command == "translate" and is_json:
        return [(e["codon"], e["amino_acid"]) for e in json.loads(out)] == TRANSLATIONS
    if command == "enzymes" and is_json:
        sums = json.loads(out)["sums"]
        return all(group[nt] == ENZYME_SUMS[nt] for group in sums.values() for nt in ENZYME_SUMS)
    if table not in S1 or command not in ("verify", "entropy"):
        return True
    index = NOTATIONS.index(_notation(argv))
    s1, s2 = S1[table][index], S2.get(table, (None,) * 3)[index]
    if not is_json:
        # entropy csv lists cells and lines only; every other layout prints S1
        return (command == "entropy" and "csv" in argv) or str(s1) in out
    payload = json.loads(out)
    if command == "verify":
        verdicts = payload["verdicts"]
        return (
            payload["s1"] == s1
            and verdicts["magic"]
            and verdicts["bimagic"] == (s2 is not None)
            and (s2 is None or payload["s2"] == s2)
        )
    if payload["line_sum"] != s1:
        return False
    if s2 is None:
        return True
    expected = Fraction(s2, s1 * s1)
    rows = payload["order_index"]["rows"]
    return all(Fraction(e["num"], e["den"]) == expected for e in rows)
