"""The benchmark's per-layer metrics name functions that exist in the package.

``bench/tracer.py`` wraps the public functions of each ``genemagic``
layer by name.  A function renamed, made private or turned into another
kind of callable would no longer be wrapped, and its metrics would read 0
with no error.  This test loads the tracer as it stands and checks every
name it reports.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

#: Reported names that are not genemagic functions: argparse's own
#: ``parse_args``, which the tracer wraps on its class.
NOT_IN_PACKAGE = {"cli.parse_args"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("genemagic_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer()


@pytest.mark.parametrize(
    "name", sorted(set(TRACED.REPORTED + TRACED.COUNTED) - NOT_IN_PACKAGE)
)
def test_every_traced_name_is_a_function_of_its_layer(name):
    layer, attr = name.split(".")
    assert layer in TRACED.LAYERS
    module = importlib.import_module(f"genemagic.{layer}")
    fn = getattr(module, attr, None)
    # the tracer wraps only plain functions defined in the layer's own module
    assert inspect.isfunction(fn), f"genemagic.{name} is not a function"
    assert fn.__module__ == module.__name__


#: Package names that ``bench/orbit.py`` calls through ``genemagic``.
ORBIT_NAMES = (
    "parse_grid",
    "analyze",
    "normalize",
    "shannon_report",
    "order_index",
    "standard_regions",
    "place_permutation_report",
    "weight_grid",
    "balance_report",
)


def test_restoring_the_tracer_gives_back_the_package_functions():
    import genemagic

    originals = {name: getattr(genemagic, name) for name in ORBIT_NAMES}
    restore = TRACED.install(TRACED.Tracer())
    try:
        wrapped = {name: getattr(genemagic, name) for name in ORBIT_NAMES}
    finally:
        restore()
    for name, original in originals.items():
        assert wrapped[name] is not original, name
        assert getattr(genemagic, name) is original, name


def test_a_traced_command_counts_the_layer_calls_it_makes(capsys):
    from genemagic import cli

    recorder = TRACED.Tracer()
    restore = TRACED.install(recorder)
    try:
        code = cli.main(["verify", "R16"])
    finally:
        restore()
    assert code == 0 and "bimagic: yes" in capsys.readouterr().out
    assert recorder.calls["cli.cmd_verify"] == 1
    assert recorder.calls["magic.analyze"] == 1
    assert recorder.calls["tables.load_canonical"] == 1
