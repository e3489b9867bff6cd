"""Record the CLI's golden outputs: stdout, stderr and exit code of every request.

Run from the repository root, only when an output is meant to change:

    python tests/golden/regenerate.py

It writes ``inputs/`` (the grid files that ``--input`` requests read) and
one ``<group>.json`` per command next to this file, from the genemagic in
this checkout's ``src/``.  ``tests/test_golden.py`` replays every recorded
request in process and compares byte for byte.  A changed golden is a
reviewed diff and is noted in ``CHANGES.md``.

    python tests/golden/regenerate.py --check

replays every recorded request the same way and writes nothing.  It
prints each request whose exit code, stdout or stderr differs, and exits
1 if any does (or if the recorded requests are not the pinned ones).  It
needs only the standard library, so it runs on interpreters without
pytest.

Requests run with this directory as the working directory, so ``--input``
paths are relative and no golden depends on where the checkout lives.
Every request runs with ``COLUMNS=80``, which fixes the width of argparse's
usage lines, and with ``GENEMAGIC_PRECISION`` unset unless the request
sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

TABLES = ("M1", "M2", "M3", "R4", "R8A", "R8B", "R16", "ENZ")
FORMATS = ("text", "csv", "json", "md")
NOTATIONS = ("bin", "digit", "dec")
COMMANDS = ("list", "show", "verify", "entropy", "hamming", "structure", "enzymes", "translate")
#: Environment variables a request may set; all others are left as they are.
ENV_KEYS = ("GENEMAGIC_PRECISION", "COLUMNS")

#: Grid files with exactly one defect each, next to the serialized tables.
DEFECTS = {
    "bad_header.txt": b"size=4 words=2\nAT TG CC GA\nCA GC AG TT\nGG CT TA AC\nTC AA GT CG\n",
    "repeated_key.txt": b"n=2 size=4 n=2\nAT TG CC GA\nCA GC AG TT\nGG CT TA AC\nTC AA GT CG\n",
    "ragged_row.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AG\nGG CT TA AC\nTC AA GT CG\n",
    "row_count.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AG TT\nGG CT TA AC\n",
    "word_length.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AGA TT\nGG CT TA AC\nTC AA GT CG\n",
    "header_n.txt": b"n=3 size=4\nAT TG CC GA\nCA GC AG TT\nGG CT TA AC\nTC AA GT CG\n",
    "bad_letter.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AX TT\nGG CT TA AC\nTC AA GT CG\n",
    "lower_case.txt": b"n=2 size=4\nAT TG CC GA\nCA GC ag TT\nGG CT TA AC\nTC AA GT CG\n",
    "invalid_utf8.txt": b"n=2 size=4\nAT TG CC GA\nCA GC AG TT\nGG CT TA \xff\xfe\nTC AA GT CG\n",
    "empty.txt": b"# nothing but a comment\n\n",
}
#: A well-formed file with comments, blank lines and trailing blanks.
COMMENTED = (
    b"# the Khajuraho square\nn=2 size=4\n\nAT TG CC GA  \n"
    b"# a comment\nCA GC AG TT\nGG CT TA AC\nTC AA GT CG\n"
)


def _case(argv, **env) -> dict:
    return {"argv": list(argv), "env": env}


def requests() -> dict[str, list[dict]]:
    """Every pinned request, grouped by the golden file that holds it."""
    groups: dict[str, list[dict]] = {name: [] for name in (*COMMANDS, "input", "usage")}
    groups["list"] += [_case(["list", "--format", fmt]) for fmt in FORMATS]
    for table in TABLES:
        for fmt in FORMATS:
            for command in ("show", "hamming", "structure"):
                groups[command].append(_case([command, table, "--format", fmt]))
            for nt in NOTATIONS:
                opts = ["--notation", nt, "--format", fmt]
                for command in ("show", "verify", "entropy"):
                    groups[command].append(_case([command, table] + opts))
        for nt in NOTATIONS:
            groups["verify"].append(_case(["verify", table, "--notation", nt, "--strict"]))
    groups["verify"] += [
        _case(["verify", "M2", "--notation", "dec", "--strict", "--format", "json"]),
        _case(["verify", "R16", "--strict", "--format", "md"]),
        _case(["verify", "r8b"]),
    ]
    for table in ("R8A", "R16"):
        for fmt in FORMATS:
            groups["entropy"].append(
                _case(["entropy", table, "--notation", "bin", "--format", fmt, "--decimal-comma"])
            )
        for precision in ("1", "7", "15"):
            for fmt in FORMATS:
                argv = ["entropy", table, "--notation", "dec", "--format", fmt]
                groups["entropy"].append(_case(argv, GENEMAGIC_PRECISION=precision))
        for precision in ("0", "x"):
            groups["entropy"].append(_case(["entropy", table], GENEMAGIC_PRECISION=precision))
        groups["entropy"].append(
            _case(["entropy", table, "--decimal-comma"], GENEMAGIC_PRECISION="7")
        )
    # a grid that is not magic reports that before a bad precision
    groups["entropy"].append(_case(["entropy", "M2"], GENEMAGIC_PRECISION="x"))
    for place in ("1", "2", "3", "4"):
        for fmt in FORMATS:
            argv = ["structure", "R16", "--place", place, "--format", fmt]
            groups["structure"].append(_case(argv))
    for table, place in (("R8A", "3"), ("R8B", "2"), ("R4", "1"), ("M1", "1")):
        groups["structure"].append(_case(["structure", table, "--place", place]))
    for table, place in (("R4", "3"), ("R4", "0"), ("R16", "-1")):
        groups["structure"].append(_case(["structure", table, "--place", place]))
    for orientation in (None, "same", "opposite"):
        opt = [] if orientation is None else ["--orientation", orientation]
        for fmt in FORMATS:
            groups["enzymes"].append(_case(["enzymes"] + opt + ["--format", fmt]))
    for fmt in FORMATS:
        argv = ["translate", "CAG", "TAA", "uuu", "atg", "--format", fmt]
        groups["translate"].append(_case(argv))
    groups["translate"] += [
        _case(["translate", "CAGA"]),
        _case(["translate", "CAG", "CXG"]),
        _case(["translate", ""]),
    ]
    for table in TABLES:
        path = f"inputs/{table}.txt"
        groups["input"] += [
            _case(["show", "--input", path]),
            _case(["show", "--input", path, "--notation", "dec", "--format", "json"]),
            _case(["verify", "--input", path, "--format", "json"]),
            _case(["verify", "--input", path, "--notation", "bin", "--format", "md"]),
            _case(["entropy", "--input", path, "--format", "json"]),
            _case(["hamming", "--input", path]),
            _case(["structure", "--input", path, "--format", "json"]),
        ]
    groups["input"].append(_case(["verify", "--input", "inputs/R4_commented.txt"]))
    for name in sorted(DEFECTS) + ["missing.txt"]:
        groups["input"].append(_case(["verify", "--input", f"inputs/{name}"]))
    groups["input"].append(_case(["show", "--input", "inputs/missing.txt", "--format", "json"]))
    groups["usage"] += [
        _case(argv) for argv in (
            [],
            ["bogus"],
            ["verify"],
            ["verify", "R99"],
            ["verify", "R16", "--format", "xml"],
            ["verify", "R4", "--bogus"],
            ["show", "R4", "--notation", "hex"],
            ["structure", "R4", "--place", "x"],
            ["enzymes", "--orientation", "sideways"],
            ["translate"],
            ["list", "extra"],
            ["hamming", "R4", "--notation", "dec"],
        )
    ]
    # help texts: the parser's declared arguments, their order, choices and defaults
    groups["usage"].append(_case(["-h"]))
    for command in COMMANDS:
        groups["usage"].append(_case([command, "-h"]))
    return groups


@contextlib.contextmanager
def _request_context(env: dict):
    """Run with this directory as cwd and exactly ``env`` among ENV_KEYS; restore after."""
    saved_env = {key: os.environ.get(key) for key in ENV_KEYS}
    saved_cwd = os.getcwd()
    try:
        for key in ENV_KEYS:
            os.environ.pop(key, None)
        os.environ.update({"COLUMNS": "80"}, **env)
        os.chdir(HERE)
        yield
    finally:
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def replay(case: dict) -> dict:
    """Run one request through ``cli.main`` in process; return it with its outputs."""
    from genemagic import cli

    out, err = io.StringIO(), io.StringIO()
    with _request_context(case["env"]), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(list(case["argv"]))
    return {
        "argv": case["argv"],
        "env": case["env"],
        "exit": code,
        # lines, so that a changed golden reads as a line diff; "\n".join restores the bytes
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def load() -> dict[str, list[dict]]:
    """The recorded goldens, by group."""
    return {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(HERE.glob("*.json"))
    }


def _pinned(groups: dict[str, list[dict]]) -> dict[str, list[tuple]]:
    return {group: [(c["argv"], c["env"]) for c in cases] for group, cases in groups.items()}


def check() -> int:
    """Replay every golden and print the requests that differ; 1 if any does, else 0."""
    sys.path.insert(0, str(SRC))
    recorded = load()
    stale = _pinned(recorded) != _pinned(requests())
    if stale:
        print("the recorded requests are not the pinned ones; the goldens need regenerating")
    total = matched = 0
    for group, cases in recorded.items():
        for expected in cases:
            total += 1
            actual = replay(expected)
            moved = [key for key in ("exit", "stdout", "stderr") if actual[key] != expected[key]]
            if not moved:
                matched += 1
                continue
            env = "".join(f"{key}={value} " for key, value in expected["env"].items())
            argv = " ".join(expected["argv"])
            print(f"{group}: {env}genemagic {argv}: {', '.join(moved)} differ")
    print(f"{matched}/{total} requests match on Python {sys.version.split()[0]}")
    return 1 if stale or matched < total else 0


def main() -> None:
    sys.path.insert(0, str(SRC))
    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    from genemagic import load_canonical, serialize_grid

    for table in TABLES:
        text = serialize_grid(load_canonical(table))
        (inputs / f"{table}.txt").write_text(text, encoding="utf-8")
    for name, data in DEFECTS.items():
        (inputs / name).write_bytes(data)
    (inputs / "R4_commented.txt").write_bytes(COMMENTED)
    total = 0
    for group, cases in requests().items():
        records = [replay(case) for case in cases]
        text = json.dumps(records, indent=0) + "\n"
        (HERE / f"{group}.json").write_text(text, encoding="utf-8")
        total += len(records)
        print(f"{group}.json: {len(records)} requests, {len(text)} bytes")
    print(f"{total} requests")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the CLI goldens, or check them.")
    parser.add_argument(
        "--check", action="store_true",
        help="replay every golden, print the requests that differ, and write nothing",
    )
    sys.exit(check() if parser.parse_args().check else main())
