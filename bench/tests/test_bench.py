"""Tests of the benchmark's own code.  Run: python -m pytest bench/tests"""

import dataclasses
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import orbit  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
from genemagic import load_canonical, parse_grid  # noqa: E402
from tracer import Span  # noqa: E402


def _rounds(seed, count):
    sample = orbit.OrbitSample(seed)
    return [item for _ in range(count) for item in sample.next_round()]


def test_orbit_sample_is_deterministic_distinct_and_valid():
    first, again, other = _rounds(7, 3), _rounds(7, 3), _rounds(8, 3)
    assert first == again
    assert first != other
    assert len({item.text for item in first}) == len(first) == 3 * 37
    assert Counter(item.table for item in first) == {"R4": 3, "R8A": 36, "R8B": 36, "R16": 36}
    for item in first:
        assert parse_grid(item.text).cells == item.cells
        base = load_canonical(item.table).cells
        assert item.cells == orbit.transform(base, item.places, item.labels, item.dihedral)


def test_r4_orbit_has_96_distinct_grids():
    sample = orbit.OrbitSample(1)
    stream = sample.streams["R4"]
    texts = {next(stream).text for _ in range(96)}
    assert len(texts) == 96
    assert next(stream).text in texts  # the orbit is exhausted and starts over


def test_dihedral_maps_are_the_eight_symmetries():
    cells = (("a", "b"), ("c", "d"))
    images = {orbit.dihedral(cells, d) for d in range(8)}
    assert len(images) == 8
    assert orbit.dihedral(cells, 1) == (("c", "a"), ("d", "b"))  # quarter turn clockwise
    assert orbit.dihedral(cells, 4) == (("a", "c"), ("b", "d"))  # transpose


def test_self_times_on_hand_built_tree():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("a.child", 15, 25, 1, 0),
        Span("b", 50, 90, 0, 0),
        Span("b.x", 55, 70, 3, 0),
        Span("b.y", 65, 80, 3, 0),  # overlaps b.x: covered time counts once
        Span("other_root", 200, 230, -1, 1),
    ]
    assert tracer.self_times(spans) == [30, 20, 10, 15, 15, 15, 30]


def test_layer_metrics_sum_to_root_time():
    spans = [
        Span(tracer.ROOT, 0, 1_000_000, -1, 0),
        Span("magic.analyze", 100_000, 700_000, 0, 0),
        Span("magic.numeric_grid", 200_000, 500_000, 1, 0),
        Span("cli.main", 800_000, 900_000, 0, 0),
    ]
    calls = Counter({"magic.analyze": 1, "magic.numeric_grid": 1, "encoding.encode": 256})
    metrics = tracer.layer_metrics(spans, calls, ops=1)
    assert metrics["magic.analyze.self_ms"] == 0.3
    assert metrics["magic.self_ms"] == 0.6
    assert metrics["cli.self_ms"] == 0.1
    assert metrics["bench.self_ms"] == 0.3
    assert metrics["trace.self_sum_ms"] == 1.0
    assert metrics["encoding.encode.calls"] == 256


def test_tracer_records_nested_spans_and_restores():
    import genemagic
    from genemagic import Notation

    analyze = genemagic.analyze
    recorder = tracer.Tracer()
    restore = tracer.install(recorder)
    try:
        recorder.run_op(0, lambda grid: genemagic.analyze(grid, Notation.DEC), load_canonical("R4"))
    finally:
        restore()
    assert genemagic.analyze is analyze
    names = [span.name for span in recorder.spans]
    assert names.count("magic.analyze") == 1 and tracer.ROOT in names
    root = names.index(tracer.ROOT)
    analyze_span = recorder.spans[names.index("magic.analyze")]
    assert analyze_span.parent == root
    assert recorder.calls["encoding.encode"] >= 16


def test_wrong_result_counts_as_failed():
    requests = [sweep.Request(("list",), 0), sweep.Request(("verify", "R99"), 2)]
    rounds = sweep.Rounds(requests, seed=1)

    def wrong_exit_code(request):
        return sweep.Output(1, "", "error: made up")

    tally = common.timed_loop(rounds, wrong_exit_code, sweep.Checker(), 0, common.IN_PROCESS)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 2)

    tally = common.timed_loop(rounds, sweep.op, sweep.Checker(), 0, common.IN_PROCESS)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 0, 0)


def test_orbit_checker_rejects_a_wrong_sum():
    item = next(item for item in _rounds(3, 1) if item.table == "R16")
    result = orbit.op(item)
    assert orbit.Checker()(item, result)
    notation = orbit.NOTATIONS[0]
    report = dataclasses.replace(result.reports[notation], s1=result.reports[notation].s1 + 1)
    wrong = result._replace(reports={**result.reports, notation: report})
    checker = orbit.Checker()
    tally = common.timed_loop(lambda: [item], lambda _: wrong, checker, 0, common.IN_PROCESS)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_op_that_raises_is_failed_not_wrong():
    def boom(_):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    tally = common.timed_loop(lambda: ["x"], boom, lambda *_: True, 0, common.IN_PROCESS)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_expected_exit_codes_follow_the_line_sums():
    for table in ("R4", "R8A", "R8B", "R16"):
        for notation in sweep.NOTATIONS:
            cells = load_canonical(table).cells
            assert sweep.entropy_exit(cells, notation) == 0
            assert sweep.strict_exit(cells, notation) == 0
            index = sweep.NOTATIONS.index(notation)
            assert sweep.line_sums(cells, notation, diagonals=True) == {orbit.S1[table][index]}
    assert sweep.strict_exit(load_canonical("M2").cells, "dec") == 1
    assert sweep.entropy_exit(load_canonical("M2").cells, "dec") == 2


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_untraced_run_prints_every_end_to_end_metric():
    done = _run("--workload", "orbit", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 37
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_run_prints_every_per_layer_metric():
    done = _run("--workload", "cli_sweep", "--seed", "1", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.build_parser.calls"] == 1.0
    assert 0.05 < metrics["cli.exit2_share"] < 0.25


def test_run_without_the_program_fails(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_unreadable_output_is_wrong():
    request = sweep.Request(("translate", "CAG", "--format", "json"), 0)
    tally = common.timed_loop(
        lambda: [request], lambda _: sweep.Output(0, "not json", ""), sweep.Checker(), 0,
        common.IN_PROCESS,
    )
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_segments_group_whole_rounds_of_at_least_100_ops():
    tally = common.Tally(common.IN_PROCESS, times_ns=[1] * 250, rounds=[60, 60, 60, 60, 10])
    assert tally.segments() == [range(0, 120), range(120, 250)]
    reference = common.IN_PROCESS.reference_ns
    short = common.Tally(
        common.IN_PROCESS, times_ns=[5_000_000] * 30, calibration_ns=[2 * reference] * 30,
        rounds=[30],
    )
    assert common.latency(short, scaled=False) == (200.0, 5.0, 5.0, 1)
    assert common.latency(short) == (400.0, 2.5, 2.5, 1)  # the machine ran at half speed
