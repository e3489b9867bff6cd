"""Shared pieces of the benchmark: paths, child processes, speed calibration, the timed loop."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch files of a run (inputs, spans); listed in .gitignore.
WORK = ROOT / ".bench_work"

#: Set-up is timed in this many fresh interpreters before the timed loop,
#: and as many after it, and reported as the median of all of them.
SETUP_CHILDREN = 8
#: A child process that runs longer than this counts as a failed op.
CHILD_TIMEOUT_S = 60
#: Fewest ops in a segment: its p90 then has at least ten samples beyond it.
SEGMENT_OPS = 100
#: An op is scaled by the calibration times of this many ops on either side of it.
CALIBRATION_WINDOW = 2


def child_env() -> dict[str, str]:
    """Environment of every child: no inherited PYTHON*/GENEMAGIC_* settings.

    Dropping them makes bytecode caching and precision the same whatever
    the caller's shell sets; the first child of a run writes the .pyc files.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("PYTHON", "GENEMAGIC_"))
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python <args>`` from the checkout root and wait for it to end."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


# ---------------------------------------------------------------------------
# Speed calibration.  The machine the baseline comes from (2 cores shared
# with other tenants) changes speed by up to a factor of two over seconds
# to minutes, and CPU time grows with wall time, so the CPU itself runs
# slower.  Next to each op the run times a fixed task that does not touch
# genemagic; op times are then scaled to the task's reference time.
# ---------------------------------------------------------------------------


def _kernel() -> int:
    table = {}
    for i in range(500):
        key = str(i)
        table[key] = [i, i * i, key]
    return sum(len(value[2]) + value[1] % 7 for value in table.values())


def kernel_ns() -> int:
    """Nanoseconds of a fixed pure-Python task: str, dict, list and int work.

    The faster of two runs, with the cyclic garbage collector paused, so
    that neither the caches nor the heap the last op left behind change it.
    """
    gc.disable()
    try:
        times = []
        for _ in range(2):
            start = perf_counter_ns()
            _kernel()
            times.append(perf_counter_ns() - start)
    finally:
        gc.enable()
    return min(times)


def child_wall_ns(args: list[str]) -> int:
    """Wall nanoseconds of a ``python <args>`` child, which must succeed."""
    start = perf_counter_ns()
    done = run_child(args)
    elapsed = perf_counter_ns() - start
    if done.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} failed: {done.stderr.strip()}")
    return elapsed


def interpreter_start_ns() -> int:
    """Nanoseconds of a whole ``python -S -c pass`` child process."""
    return child_wall_ns(["-S", "-c", "pass"])


class Calibration(NamedTuple):
    """A fixed task timed next to every op, and its time on a quiet machine."""

    measure: Callable[[], int]
    reference_ns: int


#: For ops inside the benchmark process.
IN_PROCESS = Calibration(kernel_ns, 150_000)
#: For ops that are child processes, whose time the parent's kernel does not track.
CHILD_PROCESS = Calibration(interpreter_start_ns, 13_000_000)


def setup_samples() -> tuple[list[float], list[int]]:
    """Set-up seconds of ``SETUP_CHILDREN`` fresh interpreters, and a
    ``CHILD_PROCESS`` calibration time taken before each.

    A set-up child times importing genemagic and genemagic.cli and loading
    every canonical table.
    """
    child = [str(BENCH / "child.py"), "setup"]
    run_child(child)  # writes the bytecode caches
    seconds, calibration = [], []
    for _ in range(SETUP_CHILDREN):
        calibration.append(CHILD_PROCESS.measure())
        done = run_child(child)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        seconds.append(float(done.stdout.split()[0]))
    return seconds, calibration


def peak_rss_mib(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


@dataclass
class Tally:
    """What a timed loop did: per-op times and calibration times, rounds, failures."""

    calibration: Calibration
    times_ns: list[int] = field(default_factory=list)
    calibration_ns: list[int] = field(default_factory=list)  # one per op, taken before it
    rounds: list[int] = field(default_factory=list)  # ops per round
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times_ns)

    def segments(self) -> list[range]:
        """Op index ranges of consecutive whole rounds with at least ``SEGMENT_OPS`` ops.

        A short tail joins the last segment; a loop of fewer ops is one segment.
        """
        bounds, start, end = [], 0, 0
        for size in self.rounds:
            end += size
            if end - start >= SEGMENT_OPS:
                bounds.append(range(start, end))
                start = end
        if end > start:
            if bounds:
                bounds[-1] = range(bounds[-1].start, end)
            else:
                bounds.append(range(start, end))
        return bounds


class Latency(NamedTuple):
    ops_per_s: float
    p50_ms: float
    p90_ms: float
    segments: int


def scaled_ms(tally: Tally) -> list[float]:
    """Op times in ms, each scaled by the calibration's reference time over the
    median calibration time of the ``CALIBRATION_WINDOW`` ops on either side."""
    calibration, window = tally.calibration_ns, CALIBRATION_WINDOW
    return [
        t * tally.calibration.reference_ns
        / statistics.median(calibration[max(0, i - window):i + window + 1]) / 1e6
        for i, t in enumerate(tally.times_ns)
    ]


def latency(tally: Tally, scaled: bool = True) -> Latency:
    """Throughput, median and 90th percentile: each the median over the run's segments.

    Scaled, the op times come from ``scaled_ms``.  The median over
    segments then also ignores a segment the scaling did not fully correct.
    """
    times = scaled_ms(tally) if scaled else [t / 1e6 for t in tally.times_ns]
    per_segment = []
    for ops in tally.segments():
        ms = times[ops.start:ops.stop]
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
        per_segment.append((len(ms) / (sum(ms) / 1e3), statistics.median(ms), p90))
    ops_per_s, p50, p90 = (statistics.median(column) for column in zip(*per_segment))
    return Latency(ops_per_s, p50, p90, len(per_segment))


def timed_loop(
    next_round, op, check, seconds: float, calibration: Calibration, tracer=None
) -> Tally:
    """Closed loop over whole rounds, at least one, until ``seconds`` of op time are spent.

    One op runs at a time; the next starts when the previous one has been
    checked.  Only ``op`` is timed; ``calibration`` is measured just before
    it.  An op that raises is failed; an op whose result ``check``
    rejects, or cannot read, is failed and wrong.
    """
    tally = Tally(calibration)
    budget = seconds * 1e9
    spent = 0
    while not tally.attempted or spent < budget:
        items = next_round()
        tally.rounds.append(len(items))
        for item in items:
            tally.calibration_ns.append(calibration.measure())
            op_id = tally.attempted
            start = perf_counter_ns()
            try:
                if tracer is None:
                    result = op(item)
                else:
                    result = tracer.run_op(op_id, op, item)
            except Exception as exc:  # a failed op must not end the run
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            elapsed = perf_counter_ns() - start
            spent += elapsed
            tally.times_ns.append(elapsed)
            if error is not None:
                tally.failed += 1
                tally.errors.append(f"{item}: {error}")
            elif not _passes(check, item, result):
                tally.failed += 1
                tally.wrong += 1
                tally.errors.append(f"{item}: wrong result")
    return tally


def _passes(check, item, result) -> bool:
    """``check(item, result)``; a result the check cannot even read is wrong."""
    try:
        return bool(check(item, result))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False
