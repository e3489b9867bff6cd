"""Command-line interface with stable text, CSV, JSON, and markdown output.

Exit codes: 0 on success, 1 when --strict verification finds a failing
verdict, 2 on usage errors, unknown tables, or malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import encoding, entropy, enzymes, hamming, magic, structure, tables
from .encoding import Notation
from .errors import GenemagicError, ParseError

FORMATS = ("text", "csv", "json", "md")

#: Orientation groups in a fixed output order.
_GROUPS = (enzymes.SAME, enzymes.OPPOSITE)


def _probability_precision(side: int) -> int:
    env = os.environ.get("GENEMAGIC_PRECISION")
    if env is not None:
        return _env_precision(env)
    return 5 if side >= 8 else 4


def _entropy_precision(side: int) -> int:
    env = os.environ.get("GENEMAGIC_PRECISION")
    if env is not None:
        return _env_precision(env)
    return 5 if side >= 16 else 4


def _env_precision(env: str) -> int:
    try:
        value = int(env)
    except ValueError:
        raise ParseError(f"GENEMAGIC_PRECISION must be an integer, got {env!r}") from None
    if not 1 <= value <= 15:
        raise ParseError(f"GENEMAGIC_PRECISION must be within 1..15, got {value}")
    return value


def _fmt(value: float, precision: int, comma: bool = False) -> str:
    text = f"{value:.{precision}f}"
    return text.replace(".", ",") if comma else text


def _resolve_grid(args: argparse.Namespace) -> tables.Grid:
    if getattr(args, "input", None):
        try:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from None
        return tables.parse_grid(text, name=os.path.basename(args.input))
    if getattr(args, "table", None):
        return tables.load_canonical(args.table)
    raise ParseError("a canonical table id or --input FILE is required")


def _csv(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def _summarize(values) -> str:
    distinct = sorted(set(values))
    if len(distinct) == 1:
        return f"all {distinct[0]}"
    return " ".join(str(v) for v in distinct)


# --------------------------------------------------------------------------
# list
# --------------------------------------------------------------------------

def cmd_list(args: argparse.Namespace) -> int:
    grids = [tables.load_canonical(tid) for tid in tables.CANONICAL_IDS]
    if args.format == "json":
        payload = [
            {
                "id": g.name,
                "size": g.side,
                "word_len": g.word_len,
                "complete": g.is_complete(),
            }
            for g in grids
        ]
        sys.stdout.write(_json(payload))
    elif args.format == "csv":
        rows = [["id", "size", "word_len", "complete"]]
        rows += [[g.name, g.side, g.word_len, g.is_complete()] for g in grids]
        sys.stdout.write(_csv(rows))
    elif args.format == "md":
        rows = [
            [g.name, f"{g.side}x{g.side}", g.word_len, "yes" if g.is_complete() else "no"]
            for g in grids
        ]
        sys.stdout.write(_md_table(["id", "size", "n", "complete"], rows))
    else:
        for g in grids:
            complete = "complete" if g.is_complete() else "partial"
            sys.stdout.write(
                f"{g.name:<4} {g.side:>2}x{g.side:<2} n={g.word_len} {complete}\n"
            )
    return 0


# --------------------------------------------------------------------------
# show
# --------------------------------------------------------------------------

def cmd_show(args: argparse.Namespace) -> int:
    grid = _resolve_grid(args)
    notation = Notation.from_name(args.notation) if args.notation else None
    if notation is None:
        cells = [list(row) for row in grid.cells]
    else:
        cells = [list(row) for row in magic.numeric_grid(grid, notation).values]
    if args.format == "json":
        payload = {
            "grid": grid.name,
            "size": grid.side,
            "word_len": grid.word_len,
            "notation": notation.value if notation else "letters",
            "cells": cells,
        }
        sys.stdout.write(_json(payload))
    elif args.format == "csv":
        sys.stdout.write(_csv([[str(v) for v in row] for row in cells]))
    elif args.format == "md":
        header = [str(j + 1) for j in range(grid.side)]
        sys.stdout.write(_md_table(header, [[str(v) for v in row] for row in cells]))
    else:
        sys.stdout.write(tables.serialize_grid(grid, notation))
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _region_entries(report: magic.MagicReport) -> list[dict]:
    entries = []
    for i, (s, q) in enumerate(zip(report.s1_rows, report.s2_rows)):
        entries.append({"kind": "row", "index": i + 1, "sum": s, "square_sum": q})
    for j, (s, q) in enumerate(zip(report.s1_cols, report.s2_cols)):
        entries.append({"kind": "column", "index": j + 1, "sum": s, "square_sum": q})
    for kind, s, q in (
        ("main_diagonal", report.s1_diags[0], report.s2_diags[0]),
        ("anti_diagonal", report.s1_diags[1], report.s2_diags[1]),
    ):
        entries.append({"kind": kind, "index": None, "sum": s, "square_sum": q})
    return entries


def _half_line_entries(report: magic.MagicReport) -> list[dict]:
    entries = []
    for region, total in report.half_line_sums.items():
        which, half = region.index
        index = ("main", "anti")[which] if region.kind == "half_diagonal" else which + 1
        entries.append(
            {
                "kind": region.kind,
                "index": index,
                "half": structure.HALF_NAMES[region.kind][half],
                "sum": total,
            }
        )
    return entries


def verify_payload(report: magic.MagicReport) -> dict:
    """The stable JSON schema of a verification report."""
    return {
        "grid": report.grid_name,
        "notation": report.notation.value,
        "s1": report.s1,
        "s2": report.s2,
        "verdicts": {
            "magic": report.magic,
            "bimagic": report.bimagic,
            "column_bimagic": report.column_bimagic,
        },
        "regions": _region_entries(report),
        "divisibility": [
            {"value": v, "quotient": q} for v, q in report.divisibility
        ],
        "blocks": {
            str(k): [
                {
                    "row": bi + 1,
                    "col": bj + 1,
                    "sum": sums.total,
                    "square_sum": sums.square_total,
                    "magic_subsquare": sums.magic_subsquare,
                }
                for (bi, bj), sums in sorted(blocks.items())
            ]
            for k, blocks in sorted(report.block_sums.items())
        },
        "half_lines": _half_line_entries(report),
    }


def _verify_text(report: magic.MagicReport, md: bool = False) -> str:
    bullet = "- " if md else ""
    lines = []
    if md:
        lines.append(f"# verify {report.grid_name or 'grid'} ({report.notation.value})")
        lines.append("")
    else:
        lines.append(f"grid: {report.grid_name or '-'}  notation: {report.notation.value}")
    if report.s1 is not None:
        lines.append(f"{bullet}S1 := {report.s1}")
    else:
        lines.append(f"{bullet}S1: none (row sums {_summarize(report.s1_rows)})")
    if report.s2 is not None:
        lines.append(f"{bullet}S2 := {report.s2}")
    else:
        lines.append(f"{bullet}S2: none (square sums differ)")
    for name, verdict in (
        ("magic", report.magic),
        ("column-bimagic", report.column_bimagic),
        ("bimagic", report.bimagic),
    ):
        lines.append(f"{bullet}{name}: {'yes' if verdict else 'no'}")
    lines.append(f"{bullet}row sums: {_summarize(report.s1_rows)}")
    lines.append(f"{bullet}column sums: {_summarize(report.s1_cols)}")
    lines.append(
        f"{bullet}diagonal sums: main {report.s1_diags[0]}, anti {report.s1_diags[1]}"
    )
    lines.append(f"{bullet}row square sums: {_summarize(report.s2_rows)}")
    lines.append(f"{bullet}column square sums: {_summarize(report.s2_cols)}")
    lines.append(
        f"{bullet}diagonal square sums: main {report.s2_diags[0]}, anti {report.s2_diags[1]}"
    )
    for k, blocks in sorted(report.block_sums.items()):
        totals = _summarize(b.total for b in blocks.values())
        squares = _summarize(b.square_total for b in blocks.values())
        lines.append(f"{bullet}{k}x{k} block sums: {totals}; square sums: {squares}")
        if k >= 3:
            good = sum(1 for b in blocks.values() if b.magic_subsquare)
            lines.append(f"{bullet}{k}x{k} magic subsquares: {good}/{len(blocks)}")
    if report.half_line_sums:
        lines.append(
            f"{bullet}half-line sums: {_summarize(report.half_line_sums.values())}"
        )
    if report.divisibility:
        facts = "; ".join(f"{v} = {q} x 37" for v, q in report.divisibility)
        lines.append(f"{bullet}divisible by 37: {facts}")
    else:
        lines.append(f"{bullet}divisible by 37: none")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    grid = _resolve_grid(args)
    report = magic.analyze(grid, Notation.from_name(args.notation))
    if args.format == "json":
        sys.stdout.write(_json(verify_payload(report)))
    elif args.format == "csv":
        rows = [["kind", "index", "sum", "square_sum"]]
        for entry in _region_entries(report):
            rows.append([entry["kind"], entry["index"], entry["sum"], entry["square_sum"]])
        for k, blocks in sorted(report.block_sums.items()):
            for (bi, bj), sums in sorted(blocks.items()):
                rows.append(
                    [f"block_{k}x{k}", f"({bi + 1},{bj + 1})", sums.total, sums.square_total]
                )
        for entry in _half_line_entries(report):
            rows.append(
                [entry["kind"], f"{entry['index']} ({entry['half']})", entry["sum"], ""]
            )
        sys.stdout.write(_csv(rows))
    else:
        sys.stdout.write(_verify_text(report, md=args.format == "md"))
    if args.strict and not report.magic:
        return 1
    return 0


# --------------------------------------------------------------------------
# entropy
# --------------------------------------------------------------------------

def _frac_entry(value: Fraction, precision: int, comma: bool) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "dec": _fmt(float(value), precision, comma),
    }


def cmd_entropy(args: argparse.Namespace) -> int:
    grid = _resolve_grid(args)
    notation = Notation.from_name(args.notation)
    prob = entropy.normalize(grid, notation)
    report = entropy.shannon_report(prob)
    index = entropy.order_index(prob)
    side = prob.side
    p_prec = _probability_precision(side)
    e_prec = _entropy_precision(side)
    comma = args.decimal_comma

    def p(v: float) -> str:
        return _fmt(v, p_prec, comma)

    def e(v: float) -> str:
        return _fmt(v, e_prec, comma)

    if args.format == "json":
        payload = {
            "grid": grid.name,
            "notation": notation.value,
            "line_sum": prob.line_sum,
            "precision": {"probability": p_prec, "entropy": e_prec},
            "probabilities": [
                [_frac_entry(v, p_prec, comma) for v in row] for row in prob.values
            ],
            "entropy_terms": [[e(t) for t in row] for row in report.terms],
            "row_entropy": [e(v) for v in report.row_sums],
            "column_entropy": [e(v) for v in report.col_sums],
            "diagonal_entropy": {
                "main": e(report.diag_sums[0]),
                "anti": e(report.diag_sums[1]),
            },
            "order_index": {
                "rows": [_frac_entry(v, e_prec, comma) for v in index.rows],
                "columns": [_frac_entry(v, e_prec, comma) for v in index.cols],
            },
        }
        sys.stdout.write(_json(payload))
    elif args.format == "csv":
        rows = [["kind", "row", "col", "numerator", "denominator", "value", "term"]]
        for i, row in enumerate(prob.values):
            for j, v in enumerate(row):
                rows.append(
                    ["cell", i + 1, j + 1, v.numerator, v.denominator,
                     p(float(v)), e(report.terms[i][j])]
                )
        for i, v in enumerate(report.row_sums):
            rows.append(["row_entropy", i + 1, "", "", "", e(v), ""])
        for j, v in enumerate(report.col_sums):
            rows.append(["column_entropy", "", j + 1, "", "", e(v), ""])
        rows.append(["diagonal_entropy", "main", "", "", "", e(report.diag_sums[0]), ""])
        rows.append(["diagonal_entropy", "anti", "", "", "", e(report.diag_sums[1]), ""])
        for i, v in enumerate(index.rows):
            rows.append(
                ["row_order_index", i + 1, "", v.numerator, v.denominator, e(float(v)), ""]
            )
        for j, v in enumerate(index.cols):
            rows.append(
                ["column_order_index", "", j + 1, v.numerator, v.denominator, e(float(v)), ""]
            )
        sys.stdout.write(_csv(rows))
    elif args.format == "md":
        out = [f"# entropy {grid.name or 'grid'} ({notation.value})", ""]
        out.append(f"- line sum: {prob.line_sum}")
        out.append(f"- row entropy: {' '.join(e(v) for v in report.row_sums)}")
        out.append(f"- column entropy: {' '.join(e(v) for v in report.col_sums)}")
        out.append(
            f"- diagonal entropy: main {e(report.diag_sums[0])}, anti {e(report.diag_sums[1])}"
        )
        out.append(
            f"- order index per row: {' '.join(e(float(v)) for v in index.rows)}"
        )
        out.append(
            f"- order index per column: {' '.join(e(float(v)) for v in index.cols)}"
        )
        out.append("")
        header = [str(j + 1) for j in range(side)]
        out.append("probabilities:")
        out.append("")
        out.append(
            _md_table(header, [[p(float(v)) for v in row] for row in prob.values]).rstrip()
        )
        sys.stdout.write("\n".join(out) + "\n")
    else:
        out = [
            f"grid: {grid.name or '-'}  notation: {notation.value}  line sum: {prob.line_sum}"
        ]
        out.append("probabilities:")
        for row in prob.values:
            out.append("  " + " ".join(p(float(v)) for v in row))
        out.append("entropy terms:")
        for row in report.terms:
            out.append("  " + " ".join(e(t) for t in row))
        out.append(f"row entropy: {' '.join(e(v) for v in report.row_sums)}")
        out.append(f"column entropy: {' '.join(e(v) for v in report.col_sums)}")
        out.append(
            f"diagonal entropy: main {e(report.diag_sums[0])}, anti {e(report.diag_sums[1])}"
        )
        out.append(f"order index per row: {' '.join(e(float(v)) for v in index.rows)}")
        out.append(
            f"order index per column: {' '.join(e(float(v)) for v in index.cols)}"
        )
        sys.stdout.write("\n".join(out) + "\n")
    return 0


# --------------------------------------------------------------------------
# hamming
# --------------------------------------------------------------------------

def _balance_regions(grid: tables.Grid) -> list[structure.Region]:
    unit = 2**grid.word_len
    regions: list[structure.Region] = []
    if grid.side % unit == 0:
        regions += structure.rows(grid.side) + structure.columns(grid.side)
        regions += structure.diagonals()
    for k in (2, 4):
        if k < grid.side and grid.side % k == 0 and (k * k) % unit == 0:
            regions += structure.blocks(grid.side, k)
    return regions


def cmd_hamming(args: argparse.Namespace) -> int:
    grid = _resolve_grid(args)
    wg = hamming.weight_grid(grid)
    freq = hamming.frequency_distribution(grid)
    regions = _balance_regions(grid)
    balance = hamming.balance_report(grid, regions) if regions else {}
    if args.format == "json":
        payload = {
            "grid": grid.name,
            "word_len": grid.word_len,
            "weights": [list(row) for row in wg.weights],
            "monomials": [list(row) for row in wg.monomials],
            "frequency": {
                "n": freq.word_len,
                "counts": list(freq.counts),
                "binomial": list(freq.binomial),
                "expected": list(freq.expected),
                "match": freq.match,
            },
            "balance": {r.label: ok for r, ok in balance.items()},
        }
        sys.stdout.write(_json(payload))
    elif args.format == "csv":
        rows = [["row", "col", "word", "weight", "monomial"]]
        for i, row in enumerate(grid.cells):
            for j, word in enumerate(row):
                rows.append([i + 1, j + 1, word, wg.weights[i][j], wg.monomials[i][j]])
        sys.stdout.write(_csv(rows))
    elif args.format == "md":
        out = [f"# hamming {grid.name or 'grid'}", ""]
        header = [str(j + 1) for j in range(grid.side)]
        out.append(
            _md_table(
                header,
                [
                    [f"{w} {m}" for w, m in zip(wrow, mrow)]
                    for wrow, mrow in zip(wg.weights, wg.monomials)
                ],
            ).rstrip()
        )
        out.append("")
        out.append(f"- counts by weight: {' '.join(str(c) for c in freq.counts)}")
        out.append(f"- expected 2^n * C(n,k): {' '.join(str(c) for c in freq.expected)}")
        out.append(f"- match: {'yes' if freq.match else 'no'}")
        sys.stdout.write("\n".join(out) + "\n")
    else:
        out = [f"grid: {grid.name or '-'}  n={grid.word_len}"]
        out.append("weights:")
        for row in wg.weights:
            out.append("  " + " ".join(str(w) for w in row))
        out.append(f"counts by weight: {' '.join(str(c) for c in freq.counts)}")
        out.append(f"expected 2^n * C(n,k): {' '.join(str(c) for c in freq.expected)}")
        out.append(f"binomial match: {'yes' if freq.match else 'no'}")
        if balance:
            passed = sum(1 for ok in balance.values() if ok)
            out.append(f"balanced regions: {passed}/{len(balance)}")
            failing = [r.label for r, ok in balance.items() if not ok]
            if failing:
                out.append("unbalanced: " + "; ".join(failing))
        sys.stdout.write("\n".join(out) + "\n")
    return 0


# --------------------------------------------------------------------------
# structure
# --------------------------------------------------------------------------

def _structure_payload(grid: tables.Grid, places: list[int]) -> dict:
    side = grid.side
    place_reports = {}
    for place in places:
        regions = structure.standard_regions(side) if side % 4 == 0 else []
        verdicts = structure.place_permutation_report(grid, place, regions)
        projection = structure.place_letters(grid, place)
        if side >= 4:
            latin = structure.latin_square_check(projection)
            latin_entry = {"latin": latin.latin, "diagonal_latin": latin.diagonal_latin}
        else:
            latin_entry = None
        place_reports[str(place)] = {
            "regions": {r.label: ok for r, ok in verdicts.items()},
            "projection_latin": latin_entry,
        }
    orthogonality = {}
    if side >= 4:
        for a in places:
            for b in places:
                if a < b:
                    orthogonality[f"{a},{b}"] = structure.orthogonality_check(
                        structure.place_letters(grid, a), structure.place_letters(grid, b)
                    )
    xor_entry = None
    if grid.word_len in (2, 3):
        xor = structure.xor_letter_grid(grid)
        verdict = structure.latin_square_check(xor)
        xor_entry = {
            "cells": [list(row) for row in xor],
            "latin": verdict.latin,
            "diagonal_latin": verdict.diagonal_latin,
        }
    return {
        "grid": grid.name,
        "size": side,
        "word_len": grid.word_len,
        "places": place_reports,
        "orthogonality": orthogonality,
        "xor_grid": xor_entry,
    }


def cmd_structure(args: argparse.Namespace) -> int:
    grid = _resolve_grid(args)
    if args.place is not None:
        if not 1 <= args.place <= grid.word_len:
            raise ParseError(f"place {args.place} out of range 1..{grid.word_len}")
        places = [args.place]
    else:
        places = list(range(1, grid.word_len + 1))
    payload = _structure_payload(grid, places)
    if args.format == "json":
        sys.stdout.write(_json(payload))
    elif args.format == "csv":
        rows = [["kind", "place", "item", "result"]]
        for place, entry in payload["places"].items():
            for label, ok in entry["regions"].items():
                rows.append(["region", place, label, ok])
            if entry["projection_latin"] is not None:
                rows.append(["latin", place, "", entry["projection_latin"]["latin"]])
                rows.append(
                    ["diagonal_latin", place, "", entry["projection_latin"]["diagonal_latin"]]
                )
        for pair, ok in payload["orthogonality"].items():
            rows.append(["orthogonal", pair, "", ok])
        if payload["xor_grid"] is not None:
            rows.append(["xor_latin", "", "", payload["xor_grid"]["latin"]])
            rows.append(["xor_diagonal_latin", "", "", payload["xor_grid"]["diagonal_latin"]])
        sys.stdout.write(_csv(rows))
    else:
        bullet = "- " if args.format == "md" else ""
        out = []
        if args.format == "md":
            out += [f"# structure {grid.name or 'grid'}", ""]
        else:
            out.append(f"grid: {grid.name or '-'}  n={grid.word_len}")
        for place, entry in payload["places"].items():
            regions = entry["regions"]
            passed = sum(1 for ok in regions.values() if ok)
            if regions:
                line = f"{bullet}place {place}: {passed}/{len(regions)} regions uniform"
            else:
                line = f"{bullet}place {place}: not applicable (no regions)"
            failing = [label for label, ok in regions.items() if not ok]
            if failing:
                line += " (failing: " + "; ".join(failing) + ")"
            out.append(line)
            if entry["projection_latin"] is not None:
                latin = entry["projection_latin"]
                out.append(
                    f"{bullet}place {place} projection: latin "
                    f"{'yes' if latin['latin'] else 'no'}, diagonal latin "
                    f"{'yes' if latin['diagonal_latin'] else 'no'}"
                )
        for pair, ok in payload["orthogonality"].items():
            out.append(f"{bullet}places {pair} orthogonal: {'yes' if ok else 'no'}")
        if payload["xor_grid"] is not None:
            xor = payload["xor_grid"]
            out.append(
                f"{bullet}xor grid: latin {'yes' if xor['latin'] else 'no'}, "
                f"diagonal latin {'yes' if xor['diagonal_latin'] else 'no'}"
            )
            for row in xor["cells"]:
                out.append("  " + " ".join(str(v) for v in row))
        sys.stdout.write("\n".join(out) + "\n")
    return 0


# --------------------------------------------------------------------------
# enzymes
# --------------------------------------------------------------------------

def cmd_enzymes(args: argparse.Namespace) -> int:
    records = [
        r for r in enzymes.ENZYME_TABLE
        if args.orientation is None or r.orientation == args.orientation
    ]
    sums = {
        group: {nt.value: enzymes.orientation_sums(nt)[group] for nt in Notation}
        for group in _GROUPS
    }
    counts = {
        group: sum(r.enzyme_count for r in enzymes.ENZYME_TABLE if r.orientation == group)
        for group in _GROUPS
    }
    if args.format == "json":
        payload = {
            "records": [
                {
                    "tetramer": r.tetramer,
                    "orientation": r.orientation,
                    "enzyme_count": r.enzyme_count,
                    "encodings": {
                        nt.value: encoding.encode(r.tetramer, nt) for nt in Notation
                    },
                }
                for r in records
            ],
            "sums": sums,
            "enzyme_totals": counts,
        }
        sys.stdout.write(_json(payload))
    elif args.format == "csv":
        rows = [["tetramer", "orientation", "enzyme_count", "bin", "digit", "dec"]]
        for r in records:
            rows.append(
                [r.tetramer, r.orientation, r.enzyme_count]
                + [encoding.encode(r.tetramer, nt) for nt in Notation]
            )
        sys.stdout.write(_csv(rows))
    elif args.format == "md":
        rows = [
            [
                r.tetramer,
                r.orientation,
                str(r.enzyme_count),
                f"{encoding.encode(r.tetramer, Notation.BIN):08d}",
                str(encoding.encode(r.tetramer, Notation.DIGIT)),
                str(encoding.encode(r.tetramer, Notation.DEC)),
            ]
            for r in records
        ]
        out = _md_table(
            ["tetramer", "orientation", "enzymes", "bin", "digit", "dec"], rows
        )
        for group in _GROUPS:
            out += (
                f"\n- {group}: {counts[group]} enzymes; sums "
                f"{sums[group]['bin']} / {sums[group]['digit']} / {sums[group]['dec']}"
            )
        sys.stdout.write(out + "\n")
    else:
        out = []
        for r in records:
            out.append(
                f"{r.tetramer} {r.orientation:<8} enzymes={r.enzyme_count:<3} "
                f"bin={encoding.encode(r.tetramer, Notation.BIN):08d} "
                f"digit={encoding.encode(r.tetramer, Notation.DIGIT)} "
                f"dec={encoding.encode(r.tetramer, Notation.DEC)}"
            )
        for group in _GROUPS:
            out.append(
                f"{group}: {counts[group]} enzymes; sums bin={sums[group]['bin']} "
                f"digit={sums[group]['digit']} dec={sums[group]['dec']}"
            )
        sys.stdout.write("\n".join(out) + "\n")
    return 0


# --------------------------------------------------------------------------
# translate
# --------------------------------------------------------------------------

def cmd_translate(args: argparse.Namespace) -> int:
    pairs = [(codon, encoding.translate(codon)) for codon in args.codons]
    if args.format == "json":
        payload = [
            {"codon": encoding.parse_word(c), "amino_acid": aa} for c, aa in pairs
        ]
        sys.stdout.write(_json(payload))
    elif args.format == "csv":
        rows = [["codon", "amino_acid"]]
        rows += [[encoding.parse_word(c), aa] for c, aa in pairs]
        sys.stdout.write(_csv(rows))
    elif args.format == "md":
        sys.stdout.write(
            _md_table(
                ["codon", "amino acid"],
                [[encoding.parse_word(c), aa] for c, aa in pairs],
            )
        )
    else:
        for codon, aa in pairs:
            sys.stdout.write(f"{encoding.parse_word(codon)} {aa}\n")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genemagic",
        description="Genetic-code tables as exact magic squares: "
        "verification, entropy, Hamming, and enzyme reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def table_args(
        p: argparse.ArgumentParser,
        notation_default: str | None = "dec",
        with_notation: bool = True,
    ):
        p.add_argument("table", nargs="?", help="canonical table id (see 'list')")
        p.add_argument("--input", metavar="FILE", help="read the grid from a file")
        if with_notation:
            p.add_argument(
                "--notation",
                choices=["bin", "digit", "dec"],
                default=notation_default,
                help="numeral rendering" + ("" if notation_default else " (default: letters)"),
            )

    def format_arg(p: argparse.ArgumentParser):
        p.add_argument("--format", choices=FORMATS, default="text", help="output format")

    p = sub.add_parser("list", help="list the canonical tables")
    format_arg(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("show", help="print a table as letters or numerals")
    table_args(p, notation_default=None)
    format_arg(p)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("verify", help="exact magic/bimagic verification report")
    table_args(p)
    format_arg(p)
    p.add_argument(
        "--strict", action="store_true", help="exit 1 when the grid is not magic"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("entropy", help="probabilities, Shannon entropy, order index")
    table_args(p)
    format_arg(p)
    p.add_argument(
        "--decimal-comma",
        action="store_true",
        help="render decimals with a comma separator",
    )
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("hamming", help="weight grid and binomial frequency report")
    table_args(p, with_notation=False)
    format_arg(p)
    p.set_defaults(func=cmd_hamming)

    p = sub.add_parser("structure", help="letter permutation and Latin square report")
    table_args(p, with_notation=False)
    format_arg(p)
    p.add_argument("--place", type=int, help="restrict to one letter place")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("enzymes", help="antiparallel tetramer table with encodings")
    p.add_argument(
        "--orientation", choices=list(_GROUPS), help="restrict to one orientation group"
    )
    format_arg(p)
    p.set_defaults(func=cmd_enzymes)

    p = sub.add_parser("translate", help="translate codons to amino-acid labels")
    p.add_argument("codons", nargs="+", metavar="CODON")
    format_arg(p)
    p.set_defaults(func=cmd_translate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except GenemagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
