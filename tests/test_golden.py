"""Byte-for-byte CLI goldens: every recorded request must reproduce stdout, stderr and exit code.

The goldens live in ``tests/golden/`` and are written only by
``tests/golden/regenerate.py``; see its docstring.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

from genemagic.cli import build_parser

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RECORDED = regenerate.load()


def _label(case) -> str:
    env = " ".join(f"{k}={v}" for k, v in case["env"].items())
    return (env + " " if env else "") + "genemagic " + " ".join(case["argv"])


def _diff(expected, actual) -> str:
    lines = []
    for stream in ("stdout", "stderr"):
        lines += difflib.unified_diff(
            expected[stream], actual[stream], f"golden {stream}", f"actual {stream}", lineterm=""
        )
    return "\n".join([f"exit {expected['exit']} -> {actual['exit']}"] + lines[:60])


@pytest.mark.parametrize("group", sorted(RECORDED))
def test_cli_output_matches_golden(group):
    mismatches = []
    for expected in RECORDED[group]:
        actual = regenerate.replay(expected)
        if actual != expected:
            mismatches.append((_label(expected), _diff(expected, actual)))
    assert not mismatches, (
        f"{len(mismatches)} of {len(RECORDED[group])} requests differ; first: "
        f"{mismatches[0][0]}\n{mismatches[0][1]}"
    )


def test_goldens_hold_exactly_the_pinned_requests():
    # a request added to or dropped from the matrix needs a regenerated golden
    pinned = {
        group: [(case["argv"], case["env"]) for case in cases]
        for group, cases in regenerate.requests().items()
    }
    recorded = {
        group: [(case["argv"], case["env"]) for case in cases]
        for group, cases in RECORDED.items()
    }
    assert recorded == pinned


def test_every_subcommand_and_format_has_a_golden():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    covered = set()
    for cases in RECORDED.values():
        for case in cases:
            argv = case["argv"]
            if case["exit"] == 0:
                fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
                covered.add((argv[0], fmt))
    wanted = set()
    for name, sub in commands.items():
        choices = [a.choices for a in sub._actions if a.dest == "format"] or [["text"]]
        wanted |= {(name, fmt) for fmt in choices[0]}
    assert wanted <= covered, sorted(wanted - covered)
