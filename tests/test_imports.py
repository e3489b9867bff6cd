"""What a command imports, and the package's names that load on first use.

``python -m genemagic`` runs one command and exits, so its time goes to
importing code.  A command imports the layers it calls and nothing else:
``list`` needs only the tables, ``verify`` the magic and structure code.
Renderers (``json``, ``csv``) load only for the format that uses them,
and no record type needs ``dataclasses``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genemagic

SRC = Path(genemagic.__file__).resolve().parents[1]

#: Prints the modules that importing genemagic.cli and running one command loads.
PROBE = """\
import contextlib, io, sys
before = set(sys.modules)
import genemagic.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = genemagic.cli.main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""

NEVER = {"dataclasses", "json", "csv", "fractions"}


def python(code: str, *argv: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports genemagic from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    return done.stdout


def loaded_by(*argv: str) -> set[str]:
    code, *modules = python(PROBE, *argv).split()
    assert code == "0"
    return set(modules)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["list"], {"magic", "entropy", "hamming", "enzymes", "structure"}),
        (["verify", "R16"], {"entropy", "hamming", "enzymes"}),
    ],
)
def test_a_command_loads_only_what_it_needs(argv, unloaded):
    modules = loaded_by(*argv)
    assert "genemagic.cli" in modules
    assert not modules & (NEVER | {f"genemagic.{name}" for name in unloaded})


def test_json_output_loads_json_and_the_entropy_layer():
    modules = loaded_by("entropy", "R8B", "--format", "json")
    assert {"json", "fractions", "genemagic.entropy"} <= modules
    assert not modules & {"dataclasses", "csv", "genemagic.hamming", "genemagic.enzymes"}


@pytest.mark.parametrize("name", genemagic.__all__)
def test_every_public_name_resolves_to_its_submodules_object(name):
    module = importlib.import_module(f"genemagic.{genemagic._SOURCES[name]}")
    value = genemagic.__getattr__(name)
    assert value is getattr(module, name)
    assert getattr(genemagic, name) is value
    assert vars(genemagic)[name] is value


def test_dir_lists_every_public_name_before_it_loads():
    code = "import genemagic, sys; print(*dir(genemagic), 'genemagic.magic' in sys.modules)"
    listed = python(code)
    *names, magic_loaded = listed.split()
    assert set(genemagic.__all__) | {"__version__"} <= set(names)
    assert magic_loaded == "False"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'analyse'"):
        genemagic.analyse
    assert not hasattr(genemagic, "_SECRET")
    with pytest.raises(ImportError):
        from genemagic import analyse  # noqa: F401


def test_submodules_are_reachable_as_attributes():
    sources = sorted(set(genemagic._SOURCES.values()))
    code = "import sys, genemagic; print(*(getattr(genemagic, m).__name__ for m in sys.argv[1:]))"
    assert python(code, *sources).split() == [f"genemagic.{source}" for source in sources]


def test_the_cli_orientation_groups_are_the_enzyme_tables():
    from genemagic import cli, enzymes

    assert cli._GROUPS == (enzymes.SAME, enzymes.OPPOSITE)
