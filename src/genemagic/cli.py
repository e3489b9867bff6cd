"""Command-line interface with stable text, CSV, JSON, and markdown output.

Each command builds one payload, the document that ``--format json``
prints, and renders its csv, md and text views from that payload.

Exit codes: 0 on success, 1 when --strict verification finds a failing
verdict, 2 on usage errors, unknown tables, malformed input, or output
that cannot be written (a closed stdout, a full disk, a closed pipe).
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys

from . import encoding, tables
from .encoding import Notation
from .errors import GenemagicError, ParseError

FORMATS = ("text", "csv", "json", "md")

#: Orientation groups in a fixed output order: ``enzymes.SAME`` and ``enzymes.OPPOSITE``.
_GROUPS = ("same", "opposite")


def _precision(side: int, five_from: int) -> int:
    """Decimal places: GENEMAGIC_PRECISION if set, else 5 from side ``five_from`` up, else 4."""
    env = os.environ.get("GENEMAGIC_PRECISION")
    if env is None:
        return 5 if side >= five_from else 4
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


def _emit(fmt: str, payload, view) -> None:
    """Write ``payload`` as JSON, or as ``view(payload, fmt)`` for csv, md and text."""
    if sys.stdout is None:  # the process started with its stdout closed
        raise OSError(errno.EBADF, "standard output is closed")
    if fmt == "json":
        import json
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(view(payload, fmt))


def _csv(rows: list[list]) -> str:
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _md_table(header: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return _lines(lines)


def _md_grid(rows: list[list]) -> str:
    """A square of cells as a markdown table headed by column numbers."""
    return _md_table([str(j + 1) for j in range(len(rows))], rows)


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _report(fmt: str, title: str, head: str, items: list[str], tail=(), lead=()) -> str:
    """A view's lines: md's ``# title``, a blank line and ``- `` before each item,
    or text's ``head`` and the bare items; ``lead`` lines go before the items."""
    if fmt == "md":
        lines = [f"# {title}", "", *lead, *(f"- {item}" for item in items)]
    else:
        lines = [head, *lead, *items]
    return _lines(lines + list(tail))


def _yes(flag) -> str:
    return "yes" if flag else "no"


def _summarize(values) -> str:
    distinct = sorted(set(values))
    if len(distinct) == 1:
        return f"all {distinct[0]}"
    return " ".join(str(v) for v in distinct)


# --------------------------------------------------------------------------
# list
# --------------------------------------------------------------------------

def cmd_list(args: argparse.Namespace) -> int:
    payload = [
        {"id": g.name, "size": g.side, "word_len": g.word_len, "complete": g.is_complete()}
        for g in map(tables.load_canonical, tables.CANONICAL_IDS)
    ]
    _emit(args.format, payload, _list_view)
    return 0


def _list_view(payload: list[dict], fmt: str) -> str:
    if fmt == "csv":
        rows = [[t["id"], t["size"], t["word_len"], t["complete"]] for t in payload]
        return _csv([["id", "size", "word_len", "complete"]] + rows)
    if fmt == "md":
        rows = [
            [t["id"], f"{t['size']}x{t['size']}", t["word_len"], _yes(t["complete"])]
            for t in payload
        ]
        return _md_table(["id", "size", "n", "complete"], rows)
    return "".join(
        f"{t['id']:<4} {t['size']:>2}x{t['size']:<2} n={t['word_len']} "
        f"{'complete' if t['complete'] else 'partial'}\n"
        for t in payload
    )


# --------------------------------------------------------------------------
# show
# --------------------------------------------------------------------------

def cmd_show(args: argparse.Namespace) -> int:
    from . import magic
    grid = _resolve_grid(args)
    notation = Notation(args.notation) if args.notation else None
    if notation is None:
        cells = [list(row) for row in grid.cells]
    else:
        cells = [list(row) for row in magic.numeric_grid(grid, notation).values]
    payload = {
        "grid": grid.name,
        "size": grid.side,
        "word_len": grid.word_len,
        "notation": notation.value if notation else "letters",
        "cells": cells,
    }
    _emit(args.format, payload, _show_view)
    return 0


def _show_view(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _csv(payload["cells"])
    if fmt == "md":
        return _md_grid(payload["cells"])
    return tables.grid_text(payload["word_len"], payload["cells"])


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _region_entries(report: magic.MagicReport) -> list[dict]:
    from . import structure
    lines = structure.rows(report.side) + structure.columns(report.side) + structure.diagonals()
    sums = report.s1_rows + report.s1_cols + report.s1_diags
    squares = report.s2_rows + report.s2_cols + report.s2_diags
    return [
        {"kind": r.kind, "index": r.index[0] + 1 if r.index else None, "sum": s, "square_sum": q}
        for r, s, q in zip(lines, sums, squares)
    ]


def _half_line_entries(report: magic.MagicReport) -> list[dict]:
    from . import structure
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


def cmd_verify(args: argparse.Namespace) -> int:
    from . import magic
    grid = _resolve_grid(args)
    report = magic.analyze(grid, Notation(args.notation))
    _emit(args.format, verify_payload(report), _verify_view)
    if args.strict and not report.magic:
        return 1
    return 0


def _verify_view(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [["kind", "index", "sum", "square_sum"]]
        for entry in payload["regions"]:
            rows.append([entry["kind"], entry["index"], entry["sum"], entry["square_sum"]])
        for k, blocks in payload["blocks"].items():
            for b in blocks:
                cell = f"({b['row']},{b['col']})"
                rows.append([f"block_{k}x{k}", cell, b["sum"], b["square_sum"]])
        for entry in payload["half_lines"]:
            rows.append([entry["kind"], f"{entry['index']} ({entry['half']})", entry["sum"], ""])
        return _csv(rows)
    lines = []
    regions = payload["regions"]
    rows = [r for r in regions if r["kind"] == "row"]
    cols = [r for r in regions if r["kind"] == "column"]
    main, anti = regions[-2:]
    if payload["s1"] is not None:
        lines.append(f"S1 := {payload['s1']}")
    else:
        lines.append(f"S1: none (row sums {_summarize(r['sum'] for r in rows)})")
    if payload["s2"] is not None:
        lines.append(f"S2 := {payload['s2']}")
    else:
        lines.append("S2: none (square sums differ)")
    verdicts = payload["verdicts"]
    for label, key in (
        ("magic", "magic"),
        ("column-bimagic", "column_bimagic"),
        ("bimagic", "bimagic"),
    ):
        lines.append(f"{label}: {_yes(verdicts[key])}")
    for key, what in (("sum", "sums"), ("square_sum", "square sums")):
        lines.append(f"row {what}: {_summarize(r[key] for r in rows)}")
        lines.append(f"column {what}: {_summarize(c[key] for c in cols)}")
        lines.append(f"diagonal {what}: main {main[key]}, anti {anti[key]}")
    for k, blocks in payload["blocks"].items():
        totals = _summarize(b["sum"] for b in blocks)
        squares = _summarize(b["square_sum"] for b in blocks)
        lines.append(f"{k}x{k} block sums: {totals}; square sums: {squares}")
        if blocks[0]["magic_subsquare"] is not None:
            good = sum(1 for b in blocks if b["magic_subsquare"])
            lines.append(f"{k}x{k} magic subsquares: {good}/{len(blocks)}")
    if payload["half_lines"]:
        totals = _summarize(h["sum"] for h in payload["half_lines"])
        lines.append(f"half-line sums: {totals}")
    if payload["divisibility"]:
        facts = "; ".join(f"{d['value']} = {d['quotient']} x 37" for d in payload["divisibility"])
        lines.append(f"divisible by 37: {facts}")
    else:
        lines.append("divisible by 37: none")
    name, notation = payload["grid"], payload["notation"]
    head = f"grid: {name or '-'}  notation: {notation}"
    return _report(fmt, f"verify {name or 'grid'} ({notation})", head, lines)


# --------------------------------------------------------------------------
# entropy
# --------------------------------------------------------------------------

def cmd_entropy(args: argparse.Namespace) -> int:
    from . import entropy
    grid = _resolve_grid(args)
    notation = Notation(args.notation)
    prob = entropy.normalize(grid, notation)
    report = entropy.shannon_report(prob)
    index = entropy.order_index(prob)
    p_prec = _precision(prob.side, 8)
    e_prec = _precision(prob.side, 16)
    comma = args.decimal_comma

    def e(v: float) -> str:
        return _fmt(v, e_prec, comma)

    def frac(value: Fraction, precision: int) -> dict:
        return {
            "num": value.numerator,
            "den": value.denominator,
            "dec": _fmt(float(value), precision, comma),
        }

    payload = {
        "grid": grid.name,
        "notation": notation.value,
        "line_sum": prob.line_sum,
        "precision": {"probability": p_prec, "entropy": e_prec},
        "probabilities": [[frac(v, p_prec) for v in row] for row in prob.values],
        "entropy_terms": [[e(t) for t in row] for row in report.terms],
        "row_entropy": [e(v) for v in report.row_sums],
        "column_entropy": [e(v) for v in report.col_sums],
        "diagonal_entropy": {
            "main": e(report.diag_sums[0]),
            "anti": e(report.diag_sums[1]),
        },
        "order_index": {
            "rows": [frac(v, e_prec) for v in index.rows],
            "columns": [frac(v, e_prec) for v in index.cols],
        },
    }
    _emit(args.format, payload, _entropy_view)
    return 0


def _entropy_view(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [["kind", "row", "col", "numerator", "denominator", "value", "term"]]
        cells = zip(payload["probabilities"], payload["entropy_terms"])
        for i, (probs, terms) in enumerate(cells):
            for j, (v, term) in enumerate(zip(probs, terms)):
                rows.append(["cell", i + 1, j + 1, v["num"], v["den"], v["dec"], term])
        for i, v in enumerate(payload["row_entropy"]):
            rows.append(["row_entropy", i + 1, "", "", "", v, ""])
        for j, v in enumerate(payload["column_entropy"]):
            rows.append(["column_entropy", "", j + 1, "", "", v, ""])
        for which, v in payload["diagonal_entropy"].items():
            rows.append(["diagonal_entropy", which, "", "", "", v, ""])
        for i, v in enumerate(payload["order_index"]["rows"]):
            rows.append(["row_order_index", i + 1, "", v["num"], v["den"], v["dec"], ""])
        for j, v in enumerate(payload["order_index"]["columns"]):
            rows.append(["column_order_index", "", j + 1, v["num"], v["den"], v["dec"], ""])
        return _csv(rows)
    name, notation, line_sum = payload["grid"], payload["notation"], payload["line_sum"]
    diagonal = payload["diagonal_entropy"]
    index = payload["order_index"]
    summary = [
        f"row entropy: {' '.join(payload['row_entropy'])}",
        f"column entropy: {' '.join(payload['column_entropy'])}",
        f"diagonal entropy: main {diagonal['main']}, anti {diagonal['anti']}",
        f"order index per row: {' '.join(v['dec'] for v in index['rows'])}",
        f"order index per column: {' '.join(v['dec'] for v in index['columns'])}",
    ]
    probabilities = [[v["dec"] for v in row] for row in payload["probabilities"]]
    title = f"entropy {name or 'grid'} ({notation})"
    if fmt == "md":
        table = ["", "probabilities:", "", _md_grid(probabilities).rstrip()]
        return _report(fmt, title, "", [f"line sum: {line_sum}", *summary], table)
    head = f"grid: {name or '-'}  notation: {notation}  line sum: {line_sum}"
    out = ["probabilities:", *("  " + " ".join(row) for row in probabilities)]
    out += ["entropy terms:", *("  " + " ".join(row) for row in payload["entropy_terms"])]
    return _report(fmt, title, head, out + summary)


# --------------------------------------------------------------------------
# hamming
# --------------------------------------------------------------------------

def _balance_regions(grid: tables.Grid) -> list[structure.Region]:
    """The standard lines and blocks whose size is a multiple of 2^n; no half lines."""
    from . import structure
    standard = structure._layout(grid.side).standard
    sizes = structure._plans(standard, grid.side)[1]
    return [
        region for region, size in zip(standard, sizes)
        if size % 2**grid.word_len == 0 and region.kind not in structure.HALF_NAMES
    ]


def cmd_hamming(args: argparse.Namespace) -> int:
    from . import hamming
    grid = _resolve_grid(args)
    wg = hamming.weight_grid(grid)
    freq = hamming.frequency_distribution(grid)
    balance = hamming.balance_report(grid, _balance_regions(grid))
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
    # the csv view lists each cell's word, which the JSON document leaves out
    _emit(args.format, payload, lambda p, fmt: _hamming_view(p, fmt, grid.cells))
    return 0


def _hamming_view(payload: dict, fmt: str, words) -> str:
    weights, monomials = payload["weights"], payload["monomials"]
    if fmt == "csv":
        rows = [["row", "col", "word", "weight", "monomial"]]
        for i, (word_row, weight_row, monomial_row) in enumerate(zip(words, weights, monomials)):
            for j, entry in enumerate(zip(word_row, weight_row, monomial_row)):
                rows.append([i + 1, j + 1, *entry])
        return _csv(rows)
    name, freq = payload["grid"], payload["frequency"]
    counts = [
        f"counts by weight: {' '.join(str(c) for c in freq['counts'])}",
        f"expected 2^n * C(n,k): {' '.join(str(c) for c in freq['expected'])}",
    ]
    title, head = f"hamming {name or 'grid'}", f"grid: {name or '-'}  n={payload['word_len']}"
    if fmt == "md":
        cells = [
            [f"{w} {m}" for w, m in zip(weight_row, monomial_row)]
            for weight_row, monomial_row in zip(weights, monomials)
        ]
        table = [_md_grid(cells).rstrip(), ""]
        return _report(fmt, title, head, [*counts, f"match: {_yes(freq['match'])}"], lead=table)
    out = ["weights:", *("  " + " ".join(str(w) for w in row) for row in weights), *counts]
    out.append(f"binomial match: {_yes(freq['match'])}")
    balance = payload["balance"]
    if balance:
        passed = sum(1 for ok in balance.values() if ok)
        out.append(f"balanced regions: {passed}/{len(balance)}")
        failing = [label for label, ok in balance.items() if not ok]
        if failing:
            out.append("unbalanced: " + "; ".join(failing))
    return _report(fmt, title, head, out)


# --------------------------------------------------------------------------
# structure
# --------------------------------------------------------------------------

def _structure_payload(grid: tables.Grid, places: list[int]) -> dict:
    from . import structure
    side = grid.side
    regions = structure.standard_regions(side) if side % 4 == 0 else []
    projections = {place: structure.place_letters(grid, place) for place in places}
    place_reports = {}
    for place, projection in projections.items():
        verdicts = structure.place_permutation_report(grid, place, regions)
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
                        projections[a], projections[b]
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
    places = [args.place] if args.place is not None else list(range(1, grid.word_len + 1))
    _emit(args.format, _structure_payload(grid, places), _structure_view)
    return 0


def _structure_view(payload: dict, fmt: str) -> str:
    if fmt == "csv":
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
        return _csv(rows)
    out, tail = [], []
    for place, entry in payload["places"].items():
        regions = entry["regions"]
        passed = sum(1 for ok in regions.values() if ok)
        if regions:
            line = f"place {place}: {passed}/{len(regions)} regions uniform"
        else:
            line = f"place {place}: not applicable (no regions)"
        failing = [label for label, ok in regions.items() if not ok]
        if failing:
            line += " (failing: " + "; ".join(failing) + ")"
        out.append(line)
        if entry["projection_latin"] is not None:
            latin = entry["projection_latin"]
            out.append(
                f"place {place} projection: latin {_yes(latin['latin'])}, "
                f"diagonal latin {_yes(latin['diagonal_latin'])}"
            )
    for pair, ok in payload["orthogonality"].items():
        out.append(f"places {pair} orthogonal: {_yes(ok)}")
    if payload["xor_grid"] is not None:
        xor = payload["xor_grid"]
        out.append(
            f"xor grid: latin {_yes(xor['latin'])}, "
            f"diagonal latin {_yes(xor['diagonal_latin'])}"
        )
        tail = ["  " + " ".join(str(v) for v in row) for row in xor["cells"]]
    name = payload["grid"]
    head = f"grid: {name or '-'}  n={payload['word_len']}"
    return _report(fmt, f"structure {name or 'grid'}", head, out, tail)


# --------------------------------------------------------------------------
# enzymes
# --------------------------------------------------------------------------

def cmd_enzymes(args: argparse.Namespace) -> int:
    from . import enzymes
    sums = {nt.value: enzymes.orientation_sums(nt) for nt in Notation}
    payload = {
        "records": [
            {
                "tetramer": r.tetramer,
                "orientation": r.orientation,
                "enzyme_count": r.enzyme_count,
                "encodings": {nt.value: encoding.encode(r.tetramer, nt) for nt in Notation},
            }
            for r in enzymes.ENZYME_TABLE
            if args.orientation is None or r.orientation == args.orientation
        ],
        "sums": {group: {nt: s[group] for nt, s in sums.items()} for group in _GROUPS},
        "enzyme_totals": {
            group: sum(r.enzyme_count for r in enzymes.ENZYME_TABLE if r.orientation == group)
            for group in _GROUPS
        },
    }
    _emit(args.format, payload, _enzymes_view)
    return 0


def _enzymes_view(payload: dict, fmt: str) -> str:
    records, totals = payload["records"], payload["enzyme_totals"]
    if fmt == "csv":
        rows = [["tetramer", "orientation", "enzyme_count", "bin", "digit", "dec"]]
        for r in records:
            codes = r["encodings"].values()
            rows.append([r["tetramer"], r["orientation"], r["enzyme_count"], *codes])
        return _csv(rows)
    if fmt == "md":
        rows = [
            [
                r["tetramer"],
                r["orientation"],
                r["enzyme_count"],
                f"{r['encodings']['bin']:08d}",
                r["encodings"]["digit"],
                r["encodings"]["dec"],
            ]
            for r in records
        ]
        out = _md_table(["tetramer", "orientation", "enzymes", "bin", "digit", "dec"], rows)
        for group, sums in payload["sums"].items():
            out += (
                f"\n- {group}: {totals[group]} enzymes; sums "
                f"{sums['bin']} / {sums['digit']} / {sums['dec']}"
            )
        return out + "\n"
    out = []
    for r in records:
        codes = r["encodings"]
        out.append(
            f"{r['tetramer']} {r['orientation']:<8} enzymes={r['enzyme_count']:<3} "
            f"bin={codes['bin']:08d} digit={codes['digit']} dec={codes['dec']}"
        )
    for group, sums in payload["sums"].items():
        out.append(
            f"{group}: {totals[group]} enzymes; sums bin={sums['bin']} "
            f"digit={sums['digit']} dec={sums['dec']}"
        )
    return _lines(out)


# --------------------------------------------------------------------------
# translate
# --------------------------------------------------------------------------

def cmd_translate(args: argparse.Namespace) -> int:
    payload = [
        {"codon": encoding.parse_word(codon), "amino_acid": encoding.translate(codon)}
        for codon in args.codons
    ]
    _emit(args.format, payload, _translate_view)
    return 0


def _translate_view(payload: list[dict], fmt: str) -> str:
    rows = [[t["codon"], t["amino_acid"]] for t in payload]
    if fmt == "csv":
        return _csv([["codon", "amino_acid"]] + rows)
    if fmt == "md":
        return _md_table(["codon", "amino acid"], rows)
    return "".join(f"{codon} {aa}\n" for codon, aa in rows)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

#: The grid source: a canonical table id or ``--input FILE``.
_GRID = [
    ("table", {"nargs": "?", "help": "canonical table id (see 'list')"}),
    ("--input", {"metavar": "FILE", "help": "read the grid from a file"}),
]
_NOTATIONS = {"choices": [nt.value for nt in Notation], "help": "numeral rendering"}
_NOTATION = ("--notation", {**_NOTATIONS, "default": "dec"})
_FORMAT = ("--format", {"choices": FORMATS, "default": "text", "help": "output format"})

#: Subcommands in parser order: name -> (help, argument specs in usage order).
_COMMANDS = {
    "list": ("list the canonical tables", [_FORMAT]),
    "show": ("print a table as letters or numerals", [
        *_GRID,
        ("--notation", {**_NOTATIONS, "help": "numeral rendering (default: letters)"}),
        _FORMAT,
    ]),
    "verify": ("exact magic/bimagic verification report", [
        *_GRID, _NOTATION, _FORMAT,
        ("--strict", {"action": "store_true", "help": "exit 1 when the grid is not magic"}),
    ]),
    "entropy": ("probabilities, Shannon entropy, order index", [
        *_GRID, _NOTATION, _FORMAT,
        ("--decimal-comma",
         {"action": "store_true", "help": "render decimals with a comma separator"}),
    ]),
    "hamming": ("weight grid and binomial frequency report", [*_GRID, _FORMAT]),
    "structure": ("letter permutation and Latin square report", [
        *_GRID, _FORMAT,
        ("--place", {"type": int, "help": "restrict to one letter place"}),
    ]),
    "enzymes": ("antiparallel tetramer table with encodings", [
        ("--orientation", {"choices": list(_GROUPS), "help": "restrict to one orientation group"}),
        _FORMAT,
    ]),
    "translate": ("translate codons to amino-acid labels", [
        ("codons", {"nargs": "+", "metavar": "CODON"}), _FORMAT,
    ]),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose help, like any other output, fails loudly when it cannot be written."""

    def print_help(self, file=None):
        (file or sys.stdout or sys.stderr).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genemagic",
        description="Genetic-code tables as exact magic squares: "
        "verification, entropy, Hamming, and enzyme reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in specs:
            p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # after help, or a usage error on stderr
            code = exc.code if isinstance(exc.code, int) else 2
        else:
            code = globals()[f"cmd_{args.command}"](args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except GenemagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # As the note on SIGPIPE in the ``signal`` docs advises, what stdout
        # still holds goes to os.devnull, so the final flush cannot fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        except OSError:
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
