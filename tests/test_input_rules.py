"""Each input rule has one declaration, and every entry point that reads
the input gives its verdict: the eps grid rule
(``torus_bundle.check_eps_grid``), the flat-threshold size rule
(``flat_torus.check_product_lengths``) and the matrix rule (the
``matrix`` kind of ``scenarios.parse_value``).  A rejected input raises
``InputRejected`` keyed by the input, and each front end exits 2 naming
the key or the flag it came from, never with a traceback."""

import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import collapse_spectra as cs
from collapse_spectra import cli, scenarios, torus_bundle
from collapse_spectra.errors import InputRejected

ROOT = Path(__file__).resolve().parents[1]


def _script(name, monkeypatch, capsys, *args):
    """``(exit code, stderr)`` of one run of ``scripts/<name>``."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    return exit_.value.code, capsys.readouterr().err


@pytest.mark.parametrize("grid", [(), (0.0,), (1.5,), (math.nan,)],
                         ids=["empty", "zero", "above-one", "nan"])
def test_grid_rule_verdict_is_shared(grid):
    for name in scenarios.SCENARIOS:
        with pytest.raises(InputRejected, match="^eps_grid: "):
            scenarios.resolve(name, eps_grid=grid)
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    for call in (lambda: torus_bundle.check_eps_grid(grid),
                 lambda: cs.run_collapse(B, 1, grid),
                 lambda: cs.collapse_direction([1.0, 2.0], [1, 0], grid),
                 lambda: cs.vol_bound_experiment(
                     cs.TorusBundleOverT2((1,)), [1.0], grid)):
        with pytest.raises(InputRejected,
                           match=r"^eps_grid: eps grid must lie in \(0, 1\]"):
            call()


@pytest.mark.parametrize("base_length, key, flag", [
    ("1e-160", "base_length", "--base-length"),   # its square is subnormal
    ("1e-200", "base_length", "--base-length"),   # its square is zero
    ("1e3", "fiber_length", "--fiber"),           # base / fiber length 1e4
    ("1001", "base_length", "--base-length"),
    ("100", None, None),                          # base / fiber length 1e3
])
def test_size_rule_verdict_is_shared(base_length, key, flag, tmp_path,
                                     monkeypatch, capsys):
    # the script's default fiber 0.01 is a circle of length 0.1, the
    # scenario's default fiber_length
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\nbase_length = {base_length}\n")
    code = cli.main(["flat-threshold", "--config", str(config),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if key:
        assert code == 2 and err.startswith(f"error: {key}: need lengths")
    else:
        assert code == 0 and err == ""
    code, err = _script("flat_thresholds.py", monkeypatch, capsys,
                        "--base-length", base_length,
                        "--out", str(tmp_path / "modes.csv"))
    if flag:
        assert code == 2 and err.startswith(f"error: {flag}: need lengths")
    else:
        assert code == 0 and err == ""


@pytest.mark.parametrize("text", ["1 2; 3", "1 2 3; 4 5 6", "nan 0; 0 1",
                                  ""],
                         ids=["ragged", "non-square", "nan", "empty"])
def test_matrix_rule_verdict_is_shared(text, tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\nB = {text}\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: B: need a square")
    for name, flag, *out in [
            ("collapse_sweep.py", "--b", "--out", str(tmp_path / "sweep")),
            ("flat_thresholds.py", "--fiber", "--out", str(tmp_path / "t")),
            ("semisimple_floor_experiment.py", "--b")]:
        code, err = _script(name, monkeypatch, capsys, flag, text, *out)
        assert code == 2, name
        assert err.startswith(f"error: {flag}: need a square"), (name, err)


#: a B that every front end reading B rejects: a singular value at the
#: rank threshold, an eps = 1 trace that puts eps^2 under the kernel
#: cutoff at every eps (k = 1), an exact Jordan chain past the floats
BAD_B = ["1 0; 0 1e-9", "1e5 0 0; 0 0 1; 0 0 0",
         "0 1e200 0; 0 0 1e200; 0 0 0"]

#: (front end, arguments, [params] of the CLI config, key or flag named)
REJECTED = [
    *[("cli", ["mapping-torus"], {"B": b, "k": "1"}, "B") for b in BAD_B],
    ("cli", ["mapping-torus"], {"k": "2"}, "k"),
    ("cli", ["mapping-torus", "--eps-grid", "2e-5"], {}, "eps_grid"),
    ("cli", ["vol-bound", "--eps-grid", "1e-200"], {}, "eps_grid"),
    ("cli", ["flat-threshold"], {"base_length": "0"}, "base_length"),
    ("cli", ["flat-threshold"], {"fiber_length": "0"}, "fiber_length"),
    *[("collapse_sweep.py", ["--b", b], {}, "--b") for b in BAD_B],
    ("collapse_sweep.py", ["--jmax", "20"], {}, "--jmax"),
    ("semisimple_floor_experiment.py", ["--b", "7e153 0; 0 -7e153"], {},
     "--b"),
    ("semisimple_floor_experiment.py", ["--trials", "0"], {}, "--trials"),
    ("semisimple_floor_experiment.py", ["--cap", "nan"], {}, "--cap"),
    ("flat_thresholds.py", ["--base-length", "0"], {}, "--base-length"),
    ("flat_thresholds.py", ["--fiber", "1e-12"], {}, "--fiber"),
    ("semisimple_floor_experiment.py", ["--seed", "-1"], {}, "--seed"),
    *[("cli", [command, "--seed", "x"], {}, "seed")
      for command in ("heisenberg", "verify-all")],
    *[(script, [flag, "x"], {}, flag) for script, flag in (
        ("semisimple_floor_experiment.py", "--seed"),
        ("semisimple_floor_experiment.py", "--trials"),
        ("semisimple_floor_experiment.py", "--cap"),
        ("collapse_sweep.py", "--jmax"),
        ("flat_thresholds.py", "--base-length"),
        ("flat_thresholds.py", "--degree"))],
]


@pytest.mark.parametrize(
    "front_end, args, params, key", REJECTED,
    ids=[f"{row[0]}-{row[3]}-{i}" for i, row in enumerate(REJECTED)])
def test_rejected_input_names_its_key(front_end, args, params, key,
                                      tmp_path, monkeypatch, capsys):
    if front_end == "cli":
        config = tmp_path / "run.ini"
        config.write_text("[params]\n" + "".join(
            f"{name} = {value}\n" for name, value in params.items()))
        code = cli.main([*args, "--config", str(config),
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
    else:
        out = [] if front_end.startswith("semisimple") \
            else ["--out", str(tmp_path / "o")]
        code, err = _script(front_end, monkeypatch, capsys, *args, *out)
    assert code == 2 and err.startswith(f"error: {key}: "), err


#: values at the edges of the floats that every parameter is set to
EXTREMES = [0.0, 1e-300, -1e-300, 1e300, -1e300, 1e200]


def _extreme_configs():
    """``(scenario, arguments, [params])`` of every scenario with one
    parameter at a time at each of EXTREMES: a vector's first entry, then
    its last, then all of them, and B in four 2x2 placements; and of every
    scenario at its defaults on a subnormal and a tiny eps grid."""
    for name, spec in sorted(scenarios.SCENARIOS.items()):
        for grid in ("5e-324", "1e-300"):
            yield name, ["--eps-grid", grid], {}
        for key, (kind, default, *_) in spec.params.items():
            for x in EXTREMES:
                value, negated = f"{x:g}", f"{-x:g}"
                if kind == "vector":
                    entries = default.split()
                    texts = [" ".join([value, *entries[1:]]),
                             " ".join([*entries[:-1], value]),
                             " ".join([value] * len(entries))]
                elif kind == "matrix":
                    texts = [f"{value} 0; 0 0", f"0 {value}; 0 0",
                             f"{value} 0; 0 {negated}", f"0.5 {value}; 0 -0.5"]
                else:
                    texts = [value]
                for text in texts:
                    yield name, [], {key: text}


def test_no_exception_escapes_the_cli(tmp_path, capsys, time_limit):
    # a known defect: the numeric kernel tower decides ranks on B / |B|_2,
    # so an ill-scaled hyperbolic B gets wrong invariants and these
    # configs fail kernel-dim, exit 1; every other config passes or is
    # rejected naming its key
    known_failures = {("mapping-torus", f"0.5 {value:g}; 0 -0.5")
                      for value in (1e300, -1e300, 1e200)}
    config = tmp_path / "run.ini"
    wrong = []
    with time_limit(10.0, "the extreme-value sweep"):
        for name, args, params in _extreme_configs():
            config.write_text("[params]\n" + "".join(
                f"{key} = {text}\n" for key, text in params.items()))
            try:
                code = cli.main([name, *args, "--config", str(config),
                                 "--out", str(tmp_path / "o")])
            except Exception as exc:
                wrong.append((name, args, params, repr(exc)))
                continue
            err = capsys.readouterr().err
            if code == 2:
                keys = [*scenarios.SCENARIOS[name].params, "eps_grid", "seed"]
                if not any(err.startswith(f"error: {key}: ") for key in keys):
                    wrong.append((name, args, params, err))
            elif code != 0 and (code != 1 or (name, *params.values())
                                not in known_failures):
                wrong.append((name, args, params, code))
    assert wrong == []
