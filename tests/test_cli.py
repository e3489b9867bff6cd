"""Command-line surface: formats, exit codes, and deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genemagic
from genemagic.cli import main

SRC = Path(genemagic.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_mentions_every_table(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for table_id in ("M1", "M2", "M3", "R4", "R8A", "R8B", "R16", "ENZ"):
        assert table_id in out


def test_show_khajuraho(capsys):
    code, out, _ = run(capsys, "show", "R4", "--notation", "dec")
    assert code == 0
    assert "7 12 1 14" in out
    assert out.startswith("n=2 size=4\n")


def test_show_letters_by_default(capsys):
    code, out, _ = run(capsys, "show", "R4")
    assert code == 0
    assert "AT TG CC GA" in out


def test_verify_r8b_json(capsys):
    code, out, _ = run(capsys, "verify", "R8B", "--notation", "dec", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["bimagic"] is True
    assert payload["s1"] == 260
    assert payload["s2"] == 11180
    assert {r["sum"] for r in payload["regions"]} == {260}
    assert payload["divisibility"] == []


def test_verify_r8a_reports_column_bimagic(capsys):
    code, out, _ = run(capsys, "verify", "R8A", "--notation", "bin", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"] == {
        "magic": True,
        "bimagic": False,
        "column_bimagic": True,
    }
    assert payload["s1"] == 444444
    assert payload["s2"] == 44893328844
    assert {"value": 444444, "quotient": 12012} in payload["divisibility"]


def test_verify_strict_exit_code(capsys):
    code, _, _ = run(capsys, "verify", "M2", "--notation", "dec", "--strict")
    assert code == 1
    code, _, _ = run(capsys, "verify", "R4", "--notation", "dec", "--strict")
    assert code == 0


def test_unknown_table_exits_2(capsys):
    code, out, err = run(capsys, "verify", "R99")
    assert code == 2
    assert out == ""
    assert "R99" in err


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "verify", "R4", "--bogus")[0] == 2


def test_missing_table_argument_exits_2(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "table id" in err


def test_entropy_csv_contains_row_entropies(capsys):
    code, out, _ = run(capsys, "entropy", "R8A", "--notation", "bin", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,row,col,numerator,denominator,value,term"
    row_lines = [line for line in lines if line.startswith("row_entropy,")]
    assert len(row_lines) == 8
    assert "row_entropy,1,,,,0.6732," in lines
    assert "cell,1,2,16685,74074,0.22525,0.1458" in lines


def test_entropy_non_magic_grid_exits_2(capsys):
    code, _, err = run(capsys, "entropy", "M2", "--notation", "dec")
    assert code == 2
    assert "not magic" in err


def test_entropy_decimal_comma(capsys):
    code, out, _ = run(
        capsys, "entropy", "R8A", "--notation", "bin", "--decimal-comma"
    )
    assert code == 0
    assert "0,6732" in out
    assert "0.6732" not in out


def test_entropy_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GENEMAGIC_PRECISION", "6")
    code, out, _ = run(capsys, "entropy", "R8A", "--notation", "bin")
    assert code == 0
    assert "0.673180" in out  # first row entropy at six decimals


def test_bad_precision_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GENEMAGIC_PRECISION", "lots")
    code, _, err = run(capsys, "entropy", "R8A", "--notation", "bin")
    assert code == 2
    assert "GENEMAGIC_PRECISION" in err


def test_entropy_json_rows(capsys):
    code, out, _ = run(
        capsys, "entropy", "R8B", "--notation", "bin", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["line_sum"] == 444444
    assert payload["row_entropy"][0] == "0.6768"
    assert payload["order_index"]["rows"][0]["dec"] == "0.2273"
    first = payload["probabilities"][0][0]
    # 1111/444444 in lowest terms; the line sum field recovers the raw pair
    assert (first["num"], first["den"]) == (101, 40404)


def test_hamming_json(capsys):
    code, out, _ = run(capsys, "hamming", "R16", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["frequency"]["counts"] == [16, 64, 96, 64, 16]
    assert payload["frequency"]["match"] is True
    assert payload["weights"][0][0] == 0
    assert payload["monomials"][0][1] == "a^4"


def test_hamming_csv(capsys):
    code, out, _ = run(capsys, "hamming", "M2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "row,col,word,weight,monomial"
    assert "1,1,CC,0,b^2" in out


def test_structure_report(capsys):
    code, out, _ = run(capsys, "structure", "R4")
    assert code == 0
    assert "places 1,2 orthogonal: yes" in out
    assert "diagonal latin" in out


def test_structure_json_r8a(capsys):
    code, out, _ = run(capsys, "structure", "R8A", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["xor_grid"]["diagonal_latin"] is True
    assert payload["xor_grid"]["cells"][0] == list("ahcfdebg")
    assert all(payload["places"]["1"]["regions"].values())


def test_structure_place_out_of_range(capsys):
    code, _, err = run(capsys, "structure", "R4", "--place", "3")
    assert code == 2
    assert "place" in err


def test_enzymes_json(capsys):
    code, out, _ = run(capsys, "enzymes", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["records"]) == 16
    gatc = next(r for r in payload["records"] if r["tetramer"] == "GATC")
    assert gatc["enzyme_count"] == 45
    assert gatc["encodings"] == {"bin": 11011000, "digit": 4231, "dec": 217}
    assert payload["sums"]["same"] == {"bin": 44444444, "digit": 22220, "dec": 1028}
    assert payload["sums"]["opposite"]["dec"] == 1028
    assert payload["enzyme_totals"] == {"same": 88, "opposite": 20}


def test_enzymes_orientation_filter(capsys):
    code, out, _ = run(capsys, "enzymes", "--orientation", "opposite", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9  # header and eight records
    assert all(",opposite," in line for line in lines[1:])


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "CAG", "TAA", "uuu")
    assert code == 0
    assert out == "CAG Gln\nTAA Stop\nTTT Phe\n"


def test_translate_bad_codon_exits_2(capsys):
    code, _, err = run(capsys, "translate", "CAGA")
    assert code == 2
    assert "3 letters" in err


def test_input_file_round_trip(tmp_path, capsys):
    grid_file = tmp_path / "khajuraho.grid"
    _, letters, _ = run(capsys, "show", "R4")
    grid_file.write_text(letters)
    code, out, _ = run(capsys, "verify", "--input", str(grid_file), "--notation", "dec", "--format", "json")
    assert code == 0
    assert json.loads(out)["s1"] == 34


@pytest.mark.parametrize("fmt", ["text", "csv", "json", "md"])
def test_entropy_of_a_certain_cell_is_not_negative_zero(tmp_path, capsys, fmt):
    grid_file = tmp_path / "certain.grid"
    grid_file.write_text("n=1 size=2\nC A\nA C\n")
    code, out, _ = run(
        capsys, "entropy", "--input", str(grid_file), "--notation", "bin", "--format", fmt
    )
    assert code == 0
    assert "0.0000" in out
    assert "-0.0000" not in out


def test_input_file_parse_error(tmp_path, capsys):
    grid_file = tmp_path / "bad.grid"
    grid_file.write_text("n=2 size=2\nAT TG\nCA\n")
    code, _, err = run(capsys, "show", "--input", str(grid_file))
    assert code == 2
    assert "row 2" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "show", "--input", "/nonexistent/grid.txt")
    assert code == 2
    assert "cannot read" in err


def test_input_file_with_invalid_utf8(tmp_path, capsys):
    grid_file = tmp_path / "bad.grid"
    grid_file.write_bytes(b"n=1 size=2\nC A\nT \xff\xfe\n")
    code, out, err = run(capsys, "verify", "--input", str(grid_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read ") and "utf-8" in err


@pytest.mark.parametrize("fmt", ["text", "md"])
def test_structure_without_regions_is_not_applicable(capsys, fmt):
    # M1 is 2x2: no region holds a multiple of 4 cells, so no verdict is given
    code, out, _ = run(capsys, "structure", "M1", "--format", fmt)
    assert code == 0
    assert "place 1: not applicable (no regions)" in out
    assert "0/0" not in out


def test_structure_without_regions_json_is_unchanged(capsys):
    code, out, _ = run(capsys, "structure", "M1", "--format", "json")
    assert code == 0
    assert json.loads(out)["places"] == {"1": {"regions": {}, "projection_latin": None}}


@pytest.mark.parametrize(
    "table_id", ["M1", "M2", "M3", "R4", "R8A", "R8B", "R16", "ENZ"]
)
def test_every_table_id_is_accepted_everywhere(capsys, table_id):
    # show/verify/hamming/structure succeed on every canonical id; entropy
    # cleanly reports the precondition failure for non-magic tables
    for command in ("show", "verify", "hamming", "structure"):
        code, _, err = run(capsys, command, table_id)
        assert code == 0, (command, table_id, err)
    code, _, err = run(capsys, "entropy", table_id, "--notation", "dec")
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("list",),
        ("show", "R16", "--notation", "bin"),
        ("verify", "R8B", "--notation", "digit", "--format", "json"),
        ("verify", "R16", "--notation", "bin", "--format", "md"),
        ("entropy", "R8A", "--notation", "bin", "--format", "csv"),
        ("entropy", "R16", "--notation", "bin", "--format", "json"),
        ("hamming", "R16", "--format", "csv"),
        ("structure", "R8B", "--format", "json"),
        ("enzymes", "--format", "md"),
    ],
)
def test_output_is_deterministic(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def genemagic_process(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m genemagic argv`` run from this tree, with its stderr captured."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "genemagic", *argv],
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        **kwargs,
    )


def assert_write_failure(done, reason):
    # exit 2, not the --strict code 1, and one error line instead of a traceback
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write output: {reason}\n"


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_closed_stdout_exits_2():
    done = genemagic_process("list", stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert_write_failure(done, "[Errno 9] standard output is closed")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_disk_exits_2():
    with open("/dev/full", "w") as full:
        done = genemagic_process("list", stdout=full)
    assert_write_failure(done, "[Errno 28] No space left on device")


@pytest.mark.skipif(os.name != "posix", reason="needs a pipe whose reader has closed")
def test_pipe_closed_by_its_reader_exits_2():
    read, write = os.pipe()
    os.close(read)
    try:
        done = genemagic_process("entropy", "R16", "--format", "json", stdout=write)
    finally:
        os.close(write)
    assert_write_failure(done, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [("-h",), ("verify", "-h")])
def test_help_to_a_full_disk_exits_2(argv):
    with open("/dev/full", "w") as full:
        done = genemagic_process(*argv, stdout=full)
    assert_write_failure(done, "[Errno 28] No space left on device")


@pytest.mark.skipif(os.name != "posix", reason="needs a pipe whose reader has closed")
def test_help_to_a_pipe_closed_by_its_reader_exits_2():
    read, write = os.pipe()
    os.close(read)
    try:
        done = genemagic_process("structure", "-h", stdout=write)
    finally:
        os.close(write)
    assert_write_failure(done, "[Errno 32] Broken pipe")


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_help_with_stdout_closed_goes_to_stderr():
    # argparse's own fallback: with no stdout at all, help is written to stderr
    done = genemagic_process("-h", stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert done.returncode == 0
    assert done.stderr.startswith("usage: genemagic")
