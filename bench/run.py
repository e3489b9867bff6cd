"""genemagic benchmark: three closed-loop, single-process workloads.

    python3 bench/run.py --workload orbit|cli_sweep|cold_start \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md in this directory):

* ``orbit``: one op analyzes one distinct grid of the R4/R8A/R8B/R16
  symmetry orbits with the library functions;
* ``cli_sweep``: one op is one in-process ``genemagic.cli.main`` request
  from a fixed mix covering every command, format, table and notation;
* ``cold_start``: one op is one ``python -m genemagic`` child process.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it measures the workload untraced, then again with every
layer function wrapped, and reports per-layer metrics and the tracing
overhead.  Every op's result is checked; the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

from common import (
    CHILD_PROCESS,
    IN_PROCESS,
    SEGMENT_OPS,
    SRC,
    WORK,
    Calibration,
    latency,
    peak_rss_mib,
    setup_samples,
    timed_loop,
)

WORKLOADS = ("orbit", "cli_sweep", "cold_start")


class Workload(NamedTuple):
    rounds: Callable
    op: Callable
    check: Callable
    calibration: Calibration
    magic_share: Callable[[], float]
    exit2_share: Callable[[], float]


def make_workload(name: str, seed: int, scratch: Path) -> Workload:
    if name == "orbit":
        import orbit

        sample, checker = orbit.OrbitSample(seed), orbit.Checker()
        return Workload(
            sample.next_round, orbit.op, checker, IN_PROCESS,
            lambda: checker.magic_pairs / max(1, checker.pairs), lambda: 0.0,
        )
    import sweep

    checker = sweep.Checker()
    if name == "cli_sweep":
        requests = sweep.build_requests(scratch)
        share = sweep.magic_share(requests)
        return Workload(
            sweep.Rounds(requests, seed), sweep.op, checker, IN_PROCESS,
            lambda: share, lambda: checker.exit2_share,
        )
    import coldstart

    share = sweep.magic_share(coldstart.REQUESTS)
    return Workload(
        sweep.Rounds(coldstart.REQUESTS, seed), coldstart.op, checker, CHILD_PROCESS,
        lambda: share, lambda: checker.exit2_share,
    )


def end_to_end(workload: str, setup_s: float, tally) -> dict[str, tuple[float, str]]:
    lat = latency(tally)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (lat.ops_per_s, "1/s"),
        "op_ms_p50": (lat.p50_ms, "ms"),
        "op_ms_p90": (lat.p90_ms, "ms"),
        "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mib": (peak_rss_mib(children=workload == "cold_start"), "MiB"),
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("_share"):
        return "ratio"
    if name == "trace.spans_per_op":
        return "spans/op"
    if name.startswith(("startup.", "trace.")) or name == "bench.calibration_ms":
        return "ms"
    return "ms/op"


def startup_reference():
    """The interpreter start-up reference points, printed and returned as metrics."""
    import coldstart

    probes, breakdown = coldstart.startup_probes()
    points = {k: round(v, 3) for k, v in probes.items() if "importtime" not in k}
    print(
        f"start-up reference points, ms (median of {coldstart.PROBE_REPEATS} runs):",
        json.dumps(points),
    )
    print("import time, self ms:", ", ".join(f"{m} {ms:.2f}" for m, ms in breakdown[:10]))
    return probes


def traced(args, workload: Workload, scratch: Path, untraced, probes) -> tuple[dict, object]:
    """Run the workload again with tracing; return per-layer metrics and the traced tally."""
    import coldstart
    import tracer

    if args.workload == "cold_start":
        op = coldstart.TracedOp(scratch / "child-spans.jsonl")
        tally = timed_loop(workload.rounds, op, workload.check, args.seconds, workload.calibration)
        spans, calls = op.spans, op.calls
    else:
        recorder = tracer.Tracer()
        before = tracer.cache_counts()
        restore = tracer.install(recorder)
        try:
            tally = timed_loop(
                workload.rounds, workload.op, workload.check, args.seconds,
                workload.calibration, recorder,
            )
        finally:
            restore()
        spans, calls = recorder.spans, recorder.calls
        calls.update(tracer.cache_counts() - before)
    tracer.dump(WORK / f"trace-{args.workload}.jsonl", spans, calls)

    metrics = tracer.layer_metrics(spans, calls, tally.attempted)
    metrics.update(probes)
    metrics["entropy.magic_share"] = workload.magic_share()
    metrics["cli.exit2_share"] = workload.exit2_share()
    metrics["bench.calibration_ms"] = statistics.median(tally.calibration_ns) / 1e6
    # Both p50s are scaled to the reference speed, so a drift of the
    # machine between the two phases does not show up as overhead.
    p50_untraced = latency(untraced).p50_ms
    p50_traced = latency(tally).p50_ms
    mean_traced = statistics.mean(tally.times_ns) / 1e6
    outside = 0.0
    if args.workload == "cold_start":
        outside = probes["startup.interp_nosite_ms"] + probes["startup.site_ms"]
    metrics["trace.op_ms_p50_untraced"] = p50_untraced
    metrics["trace.op_ms_p50_traced"] = p50_traced
    metrics["trace.overhead_ms"] = p50_traced - p50_untraced
    metrics["trace.unattributed_ms"] = mean_traced - outside - metrics["trace.self_sum_ms"]
    print(
        f"traced: {tally.attempted} ops, op p50 {p50_traced:.3f} ms against {p50_untraced:.3f} ms "
        f"untraced (overhead {p50_traced - p50_untraced:.3f} ms); per-op self times sum to "
        f"{metrics['trace.self_sum_ms']:.3f} ms"
        + (f" + {outside:.3f} ms start-up" if outside else "")
        + f" of a {mean_traced:.3f} ms mean op (unscaled)"
    )
    return metrics, tally


def run(args, scratch: Path) -> dict:
    setup_times, setup_calibration = setup_samples()
    workload = make_workload(args.workload, args.seed, scratch)
    probes = startup_reference() if args.trace or args.workload == "cold_start" else {}
    tally = timed_loop(
        workload.rounds, workload.op, workload.check, args.seconds, workload.calibration
    )
    more_times, more_calibration = setup_samples()  # before and after: one slow spell weighs less
    setup_times += more_times
    setup_calibration += more_calibration
    raw_setup_s = statistics.median(setup_times)
    scaled_setup_s = raw_setup_s * CHILD_PROCESS.reference_ns / statistics.median(setup_calibration)
    e2e = end_to_end(args.workload, scaled_setup_s, tally)
    raw = latency(tally, scaled=False)
    n = tally.attempted
    print(
        f"workload {args.workload}, seed {args.seed}: {n} ops in {sum(tally.times_ns) / 1e9:.2f} s "
        f"of op time; rates and latencies are medians over {raw.segments} segments of whole "
        f"rounds with at least {SEGMENT_OPS} ops each"
    )
    print(
        f"machine speed: median calibration {statistics.median(tally.calibration_ns) / 1e6:.3f} ms "
        f"against {workload.calibration.reference_ns / 1e6:.3f} ms reference "
        f"({workload.calibration.measure.__name__}); times below are scaled to the reference, "
        "unscaled in brackets"
    )
    print(
        f"  setup_s       {scaled_setup_s:.4f} s [{raw_setup_s:.4f}] "
        f"(median of {len(setup_times)} fresh interpreters)"
    )
    print(f"  ops_per_s     {e2e['ops_per_s'][0]:.2f} 1/s [{raw.ops_per_s:.2f}]")
    print(f"  op_ms_p50     {e2e['op_ms_p50'][0]:.3f} ms [{raw.p50_ms:.3f}] (n={n})")
    print(f"  op_ms_p90     {e2e['op_ms_p90'][0]:.3f} ms [{raw.p90_ms:.3f}] (n={n})")
    print(
        f"  failed_share  {tally.failed}/{n} = {tally.failed / n:.5f} "
        f"({tally.wrong} wrong results)"
    )
    print(f"  peak_rss_mib  {e2e['peak_rss_mib'][0]:.1f} MiB")
    for error in sorted(set(tally.errors))[:5]:
        print("  failed:", error)
    attempted, failed, wrong = n, tally.failed, tally.wrong
    if args.trace:
        layer, traced_tally = traced(args, workload, scratch, tally, probes)
        metrics = {name: (value, unit(name)) for name, value in layer.items()}
        attempted += traced_tally.attempted
        failed += traced_tally.failed
        wrong += traced_tally.wrong
    else:
        metrics = e2e
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "genemagic" / "__init__.py").is_file():
        print(f"error: no genemagic package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("GENEMAGIC_PRECISION", None)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        result = run(args, Path(scratch))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
