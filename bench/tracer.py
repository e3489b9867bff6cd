"""Span tracing of genemagic's public functions, installed from outside the package.

``install`` replaces the public module-level functions of the layer
modules with wrappers, in every ``genemagic`` module namespace that holds
them, so calls made through ``from .x import f`` are traced too.  Each
wrapped call records a span ``(name, start_ns, end_ns, parent, op)``;
spans stay in memory until the run writes them out.

Functions called once per grid cell get no span: a 16x16 grid makes
thousands of such calls per op, and a span each would cost more than the
work it times.  Those in ``COUNTED`` are counted; the others are left
alone.  Either way their time stays in the caller's self time.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import NamedTuple

#: Layers, named after the genemagic modules, in report order.
LAYERS = ("tables", "encoding", "magic", "entropy", "structure", "hamming", "enzymes", "cli")
#: Functions called once per grid cell, by name prefix.
PER_CELL = ("encoding.", "entropy.entropy_term", "hamming.monomial")
#: Per-cell functions whose calls are counted.
COUNTED = ("encoding.encode", "encoding.hamming_weight", "entropy.entropy_term")
#: Layers with spans, so with a self time.
SPANNED_LAYERS = tuple(layer for layer in LAYERS if layer != "encoding")
#: Root span of one benchmark op.  Spans named ``bench.*`` time the
#: benchmark's own code; ``startup.import`` times a child's import of genemagic.cli.
ROOT = "bench.op"

#: Spanned functions reported one by one, as ``layer.function``.
REPORTED = (
    "tables.parse_grid",
    "tables.load_canonical",
    "magic.numeric_grid",
    "magic.analyze",
    "magic.block_report",
    "entropy.normalize",
    "entropy.order_index",
    "entropy.shannon_report",
    "structure.place_permutation_report",
    "structure.latin_square_check",
    "structure.orthogonality_check",
    "structure.xor_letter_grid",
    "hamming.weight_grid",
    "hamming.balance_report",
    "hamming.frequency_distribution",
    "enzymes.orientation_sums",
    "enzymes.classify",
    "cli.main",
    "cli.build_parser",
    "cli.parse_args",
    "cli.cmd_list",
    "cli.cmd_show",
    "cli.cmd_verify",
    "cli.cmd_entropy",
    "cli.cmd_hamming",
    "cli.cmd_structure",
    "cli.cmd_enzymes",
    "cli.cmd_translate",
)


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: int


class Tracer:
    """The spans and call counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op = -1
        self._counts: dict[str, list[int]] = {}
        self._root = self.wrap(ROOT, lambda fn, arg: fn(arg))

    @property
    def calls(self) -> Counter:
        return Counter({name: box[0] for name, box in self._counts.items()})

    def wrap(self, name: str, fn):
        # A one-item list is the cheapest counter to bump from a closure.
        box = self._counts.setdefault(name, [0])
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                box[0] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            box[0] += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._op)
        return traced

    def run_op(self, op_id: int, fn, arg):
        """``fn(arg)`` under the root span of op ``op_id``; the spans it causes carry that id."""
        self._op = op_id
        return self._root(fn, arg)


def dump(path, spans, calls) -> None:
    """Write the call counts, then one span per line: name, start_ns, end_ns, parent, op."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(calls) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def load(path) -> tuple[list[Span], Counter]:
    """Read back what ``dump`` wrote."""
    with open(path, encoding="utf-8") as handle:
        calls = Counter(json.loads(handle.readline()))
        spans = [Span(*json.loads(line)) for line in handle]
    return spans, calls


def cache_counts() -> Counter:
    """Hits and misses so far of the canonical-table cache, if the program keeps one."""
    from genemagic import tables

    info = getattr(getattr(tables, "_load", None), "cache_info", None)
    if info is None:
        return Counter()
    hits, misses, _, _ = info()
    return Counter({"tables.load_canonical.hits": hits, "tables.load_canonical.misses": misses})


def _targets():
    """(layer.function, function) for every function to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"genemagic.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
                and (name in COUNTED or not name.startswith(PER_CELL))
            ):
                yield name, value


def install(tracer: Tracer):
    """Wrap the layer functions everywhere genemagic refers to them; return an undo."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in _targets()}
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "genemagic" and not modname.startswith("genemagic."):
            continue
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    parse_args = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = tracer.wrap("cli.parse_args", parse_args)

    def restore() -> None:
        argparse.ArgumentParser.parse_args = parse_args
        for module, attr, value in undo:
            setattr(module, attr, value)
    return restore


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def layer_metrics(spans, calls, ops: int) -> dict[str, float]:
    """Per-op calls and self milliseconds, by function and by layer."""
    self_ns = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_ns[span.name] += own
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = calls[name] / ops
    for name in REPORTED:
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.self_ms"] = self_ns[name] / ops / 1e6
    for layer in SPANNED_LAYERS:
        total = sum(ns for name, ns in self_ns.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = total / ops / 1e6
    hits, misses = calls["tables.load_canonical.hits"], calls["tables.load_canonical.misses"]
    metrics["tables.load_canonical.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["startup.import_ms"] = self_ns["startup.import"] / ops / 1e6
    bench_ns = sum(ns for name, ns in self_ns.items() if name.startswith("bench."))
    metrics["bench.self_ms"] = bench_ns / ops / 1e6
    metrics["trace.self_sum_ms"] = sum(self_ns.values()) / ops / 1e6
    metrics["trace.spans_per_op"] = len(spans) / ops
    return metrics
