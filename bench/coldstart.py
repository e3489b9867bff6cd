"""The ``cold_start`` workload and the interpreter start-up reference points.

One op is one child process ``python -m genemagic ...``, run to completion
before the next starts, so the load is a single process with one child
at a time.  The reference points split a child's time into interpreter
start-up without ``site``, ``site`` itself, and importing genemagic.cli.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path

import sweep
import tracer
from common import BENCH, child_wall_ns, run_child

REQUESTS = (
    sweep.Request(("list",), 0),
    sweep.Request(("verify", "R16"), 0, "R16"),
    sweep.Request(("entropy", "R8B", "--notation", "dec", "--format", "json"), 0, "R8B"),
)

#: Interpreter runs behind each reference point.
PROBES = {
    "nosite": ["-S", "-c", "pass"],
    "site": ["-c", "pass"],
    "import_cli": ["-c", "import genemagic.cli"],
}
IMPORTTIME = ["-X", "importtime", "-c", "import genemagic.cli"]
#: Modules whose own import time (-X importtime "self") is reported.
IMPORT_MODULES = (
    "genemagic",
    "genemagic.cli",
    "genemagic.encoding",
    "genemagic.tables",
    "genemagic.structure",
    "genemagic.magic",
    "genemagic.entropy",
    "genemagic.hamming",
    "genemagic.enzymes",
    "argparse",
    "fractions",
    "dataclasses",
    "json",
    "csv",
)
PROBE_REPEATS = 5


def op(request: sweep.Request) -> sweep.Output:
    done = run_child(["-m", "genemagic", *request.argv])
    return sweep.Output(done.returncode, done.stdout, done.stderr)


class TracedOp:
    """Runs each request in a child that traces the layer functions and writes its spans."""

    def __init__(self, spans_file: Path) -> None:
        self.spans_file = spans_file
        self.spans: list[tracer.Span] = []
        self.calls: Counter[str] = Counter()
        self.ops = 0

    def __call__(self, request: sweep.Request) -> sweep.Output:
        child = [str(BENCH / "child.py"), "trace", str(self.spans_file), *request.argv]
        self.spans_file.unlink(missing_ok=True)  # a child that dies writes none
        done = run_child(child)
        spans, calls = tracer.load(self.spans_file)
        base = len(self.spans)
        self.spans += [
            span._replace(parent=span.parent + base if span.parent >= 0 else -1, op=self.ops)
            for span in spans
        ]
        self.calls.update(calls)
        self.ops += 1
        return sweep.Output(done.returncode, done.stdout, done.stderr)


def _importtime(stderr: str) -> dict[str, float]:
    """Self milliseconds by module from ``-X importtime`` output."""
    selves = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        selves[name.strip()] = int(own) / 1e3
    return selves


def startup_probes() -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Reference points (medians of ``PROBE_REPEATS`` runs) and the import breakdown."""
    walls = {name: [] for name in PROBES}
    imports: dict[str, list[float]] = {}
    for _ in range(PROBE_REPEATS):
        for name, args in PROBES.items():
            walls[name].append(child_wall_ns(args) / 1e6)
        done = run_child(IMPORTTIME)
        for module, ms in _importtime(done.stderr).items():
            imports.setdefault(module, []).append(ms)
    wall = {name: statistics.median(times) for name, times in walls.items()}
    own = {module: statistics.median(times) for module, times in imports.items()}
    metrics = {
        "startup.interp_nosite_ms": wall["nosite"],
        "startup.site_ms": wall["site"] - wall["nosite"],
        "startup.import_cli_ms": wall["import_cli"] - wall["site"],
    }
    for module in IMPORT_MODULES:
        metrics[f"startup.importtime.{module}.self_ms"] = own.get(module, 0.0)
    return metrics, sorted(own.items(), key=lambda item: -item[1])
