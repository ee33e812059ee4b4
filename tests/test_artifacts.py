"""One CSV byte format and one manifest writer, and the experiment
scripts that write the same tables as the library."""

import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from collapse_spectra import FlatTorus, threshold_check_product
from collapse_spectra.artifacts import csv_text
from collapse_spectra.scenarios import run_scenario_checks

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("pattern", [r"csv\.writer", r"io\.StringIO",
                                     r"json\.dumps\([^)]*indent=2"])
def test_one_module_writes_each_format(pattern):
    modules = [path.name for path
               in sorted((ROOT / "src" / "collapse_spectra").glob("*.py"))
               if re.search(pattern, path.read_text(encoding="utf-8"))]
    assert len(modules) == 1, modules


def test_csv_text_format():
    assert csv_text(["a", "b", "c"], [[np.float64(0.1), 2, "x,y"]]) \
        == 'a,b,c\n0.1,2,"x,y"\n'


def _run_script(name, monkeypatch, *args, code=0):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    assert exc.value.code == code


def test_collapse_sweep_matches_mapping_torus(tmp_path, monkeypatch):
    # the script's defaults are the mapping-torus defaults: B = [[0, 1],
    # [0, 0]] on eps = 2^-1 .. 2^-10
    _run_script("collapse_sweep.py", monkeypatch, "--out", str(tmp_path))
    expected = run_scenario_checks("mapping-torus").artifacts["collapse.csv"]
    assert (tmp_path / "collapse_k1.csv").read_bytes() == expected.encode()


def test_collapse_sweep_runs_at_its_stated_jmax(tmp_path, monkeypatch):
    # the help's bound: eps = 2^-14 keeps eps^2 above twice the kernel
    # cutoff for the default B, whose eps = 1 trace is 1
    _run_script("collapse_sweep.py", monkeypatch, "--jmax", "14",
                "--out", str(tmp_path))
    assert (tmp_path / "collapse_k1.csv").exists()


def test_flat_thresholds_writes_threshold_table(tmp_path, monkeypatch):
    out = tmp_path / "thresholds.csv"
    _run_script("flat_thresholds.py", monkeypatch,
                "--fiber", "0.04 0; 0 0.09", "--out", str(out))
    rep = threshold_check_product(FlatTorus.circle(1.0),
                                  FlatTorus(np.diag([0.04, 0.09])), 1)
    assert out.read_bytes() == rep.csv.encode()


@pytest.mark.parametrize("name,args,message", [
    ("collapse_sweep.py", ["--b", "0 1; 0"], "--b: need a square matrix"),
    ("collapse_sweep.py", ["--jmax", "0"], "--jmax: need an integer >= 1"),
    ("flat_thresholds.py", ["--fiber", "1 2; 3 4"],
     "--fiber: must be symmetric"),
    ("flat_thresholds.py", ["--degree", "5"],
     "--degree: degree 5 not in [0, 2]"),
    # numpy's Cholesky check used to reach stderr as a LinAlgError
    ("flat_thresholds.py", ["--fiber", "1 2; 2 1"],
     "--fiber: must be positive definite"),
    # eps = 2^-15 puts eps^2 under twice the kernel cutoff
    ("collapse_sweep.py", ["--jmax", "15"], "--jmax: eps = 3.0517578125e-05"),
    # base / fiber length 1e5 with the default fiber, 527,792 rows
    ("flat_thresholds.py", ["--base-length", "1e4"], "--base-length: need"),
    # a circle of length -1 is the circle of length 1
    ("flat_thresholds.py", ["--base-length", "-1"], "--base-length: need"),
], ids=["sweep-ragged-b", "sweep-jmax-0", "thresholds-asymmetric-fiber",
        "thresholds-degree-5", "thresholds-indefinite-fiber", "sweep-jmax-15",
        "thresholds-base-1e4", "thresholds-base-negative"])
def test_script_rejects_malformed_input(name, args, message, tmp_path,
                                        monkeypatch, capsys):
    out = tmp_path / "out"
    _run_script(name, monkeypatch, *args, "--out", str(out), code=2)
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: ") and message in stderr
    assert not out.exists()
