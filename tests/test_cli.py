"""CLI subcommands, exit codes, and deterministic JSON output."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quograph
from quograph.cli import main
from quograph.errors import ContractViolationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def loads_as_dumped(out):
    """The JSON printed, checked to be the bytes of json.dumps(indent=2)."""
    d = json.loads(out)
    assert out == json.dumps(d, indent=2) + "\n"
    return d


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "circulant:17:1,4")
    assert code == 0
    assert "quotient-polynomial: True" in out
    assert "p2(x) = 1/26 (3x^4 - 10x^3 - 18x^2 + 75x - 36)" in out
    assert "association scheme with 4 classes" in out


def test_analyze_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", "name:petersen", "--format", "json")
    code2, out2, _ = run(capsys, "analyze", "name:petersen", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across runs
    d = json.loads(out1)
    assert d["quotient"]["quotient_polynomial"] is True
    assert d["flags"]["distance_regular"] is True
    assert d["scheme"]["generates"] is True


def test_analyze_disconnected_exit_code(capsys, tmp_path):
    p = tmp_path / "two_parts.txt"
    p.write_text("4 2\n0 1\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 1
    assert "disconnected" in out


def test_analyze_bad_input_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "graph6:")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "analyze", "circulant:17:99")
    assert code == 1


def test_partition_subcommand(capsys):
    code, out, _ = run(capsys, "partition", "circulant:17:1,4")
    assert code == 0
    assert "5 classes (r = 4)" in out
    code, out, _ = run(capsys, "partition", "circulant:17:1,4",
                       "--format", "json")
    d = loads_as_dumped(out)
    assert d["num_classes"] == 5
    assert len(d["classes"][0]["pairs"]) == 17  # the diagonal


def test_polys_subcommand(capsys):
    code, out, _ = run(capsys, "polys", "name:y6")
    assert code == 0
    assert "not quotient-polynomial (r = 7 > d = 6)" in out
    assert "distance p2(x)" in out
    code, out, _ = run(capsys, "polys", "name:petersen")
    assert "H(x)" in out
    code, out, _ = run(capsys, "polys", "name:y6", "--format", "json")
    d = loads_as_dumped(out)
    assert d["quotient"]["r"] == 7 and d["flags"]["distance_polynomial"]


def test_scheme_subcommand(capsys):
    code, out, _ = run(capsys, "scheme", "name:petersen")
    assert code == 0 and "2-class association scheme" in out
    code, out, _ = run(capsys, "scheme", "name:petersen", "--format", "json")
    d = loads_as_dumped(out)
    assert d["generates"] is True and len(d["classes"]) == 3
    code, _, err = run(capsys, "scheme", "name:y6")
    assert code == 1 and "no scheme" in err


def test_census_stdin(capsys, monkeypatch, tmp_path):
    lines = "A_\nD?{\nnot-a-graph6-line\x01\n\n"
    p = tmp_path / "batch.g6"
    p.write_text(lines)
    code, out, _ = run(capsys, "census", str(p), "--format", "json")
    assert code == 0
    d = loads_as_dumped(out)
    assert d["summary"]["parse_errors"] == 1
    assert d["summary"]["graphs"] == 2
    assert d["records"][0]["graph6"] == "A_"


def test_census_counts_disconnected(capsys, tmp_path):
    # "B?" is the empty graph on 3 vertices: parsed fine, then skipped
    p = tmp_path / "batch.g6"
    p.write_text("B?\nBw\n")
    code, out, _ = run(capsys, "census", str(p), "--format", "json")
    d = json.loads(out)
    assert d["summary"]["skipped_disconnected"] == 1
    assert d["summary"]["graphs"] == 1


def test_census_survives_analysis_error(capsys, monkeypatch, caplog):
    # at --tol 0.9 the numeric grouping of EhEG disagrees with the exact
    # eigenvalue count; the lines around it must still be reported
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nEhEG\nBw\n"))
    code, out, _ = run(capsys, "census", "-", "--tol", "0.9",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert [rec["line"] for rec in d["records"]] == [1, 3]
    assert d["summary"]["analysis_errors"] == 1
    assert "line 2 (EhEG)" in caplog.text


def test_census_contract_violation_names_line(capsys, monkeypatch, tmp_path):
    def broken(alg):
        raise ContractViolationError("boom")
    monkeypatch.setattr("quograph.report.decide_quotient_polynomial", broken)
    p = tmp_path / "batch.g6"
    p.write_text("A_\nBw\n")
    code, _, err = run(capsys, "census", str(p))
    assert code == 2
    assert "line 1 (A_): boom" in err


def test_closed_pipe_exits_quietly():
    """`quograph analyze ... | head -1` ends without a traceback."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(quograph.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quograph.cli", "analyze", "name:cycle:30",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"  # the report is far larger than a pipe
    proc.stdout.close()
    proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_orbits_flag(capsys):
    code, out, _ = run(capsys, "analyze", "name:cycle:5", "--orbits",
                       "--format", "json")
    d = json.loads(out)
    assert d["orbits"]["num_automorphisms"] == 10
    assert d["orbits"]["orbit_polynomial"] is True
    assert d["flags"]["orbit_polynomial"] is True


def test_tol_env_var(capsys, monkeypatch):
    monkeypatch.setenv("QUOGRAPH_TOL", "1e-7")
    code, _, _ = run(capsys, "analyze", "name:petersen")
    assert code == 0
    for bad in ["not-a-float", "nan", "-1", "inf"]:
        monkeypatch.setenv("QUOGRAPH_TOL", bad)
        code, out, err = run(capsys, "analyze", "name:petersen")
        assert code == 1 and out == ""
        assert ("QUOGRAPH_TOL: tolerance must be a finite non-negative "
                f"number, got {bad!r}") in err


@pytest.mark.parametrize("bad", ["abc", "nan", "-1", "inf"])
def test_tol_flag_rejects_malformed(capsys, monkeypatch, bad):
    monkeypatch.delenv("QUOGRAPH_TOL", raising=False)
    code, out, err = run(capsys, "analyze", "name:petersen", "--tol", bad)
    assert code == 1 and out == ""
    assert ("--tol: tolerance must be a finite non-negative number, "
            f"got {bad!r}") in err


def test_tolerance_error_exit_code(capsys, monkeypatch):
    """A failed spectral cross-check exits 3, apart from bad input (1) and
    broken theorems (2)."""
    monkeypatch.delenv("QUOGRAPH_TOL", raising=False)
    # the eigenvalue grouping merges all five distinct eigenvalues
    code, out, err = run(capsys, "analyze", "circulant:17:1,4", "--tol", "10")
    assert code == 3 and out == ""
    assert "numeric disagreement: numeric grouping found 1" in err
    # P4's eigenvalues stay apart, but its m-vectors are ambiguous at 0.5
    code, out, err = run(capsys, "analyze", "graph6:Ch", "--tol", "0.5")
    assert code == 3 and out == ""
    assert "numeric disagreement: pair" in err and "tol=0.5" in err


def test_debug_checks_flag(capsys):
    code, out, _ = run(capsys, "analyze", "circulant:17:1,4", "--debug-checks")
    assert code == 0 and "quotient-polynomial: True" in out
