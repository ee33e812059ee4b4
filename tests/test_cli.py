import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from collapse_spectra import cli, mapping_torus, scenarios
from collapse_spectra.errors import InputRejected
from collapse_spectra.scenarios import list_scenarios, run_scenario_checks


def test_list_scenarios():
    rows = list_scenarios()
    names = [name for name, _, _ in rows]
    assert "heisenberg" in names
    assert "gt-family" in names
    assert len(rows) >= 10
    assert names == sorted(names)


def test_all_scenarios_pass_in_memory():
    for name, _, _ in list_scenarios():
        result = run_scenario_checks(name, seed=0)
        assert result.passed, (name, [c for c in result.checks
                                      if not c.passed])


def test_cli_list_exit_code():
    assert cli.main(["list"]) == 0


def test_cli_unknown_scenario():
    assert cli.main(["no-such-scenario"]) == 2


def test_cli_run_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["heisenberg", "--out", str(out1), "--seed", "3"]) == 0
    assert cli.main(["heisenberg", "--out", str(out2), "--seed", "3"]) == 0
    assert (out1 / "spectra.csv").read_bytes() \
        == (out2 / "spectra.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2
    assert m1["passed"] and m1["artifacts"][0]["sha256"] \
        == m2["artifacts"][0]["sha256"]


def test_cli_eps_grid_flag(tmp_path):
    assert cli.main(["heisenberg", "--out", str(tmp_path),
                     "--eps-grid", "0.5,0.25"]) == 0
    body = (tmp_path / "spectra.csv").read_text()
    assert len(body.splitlines()) == 3


def test_cli_config_file(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[scenario]\n"
        "name = mapping-torus\n"
        "seed = 1\n"
        "eps_grid = 0.5, 0.25, 0.125\n"
        "[params]\n"
        "k = 0\n"
        "B =\n"
        "    0 1 0\n"
        "    0 0 1\n"
        "    0 0 0\n")
    out = tmp_path / "out"
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(out)]) == 0
    body = (out / "collapse.csv").read_text()
    assert body.splitlines()[0].startswith("eps,eig_1")


def test_cli_config_name_mismatch(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[scenario]\nname = heisenberg\n")
    assert cli.main(["gt-family", "--config", str(config)]) == 2


def test_cli_invalid_param(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nnot_a_knob = 1\n")
    assert cli.main(["heisenberg", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_invalid_eps_grid(tmp_path):
    assert cli.main(["heisenberg", "--out", str(tmp_path),
                     "--eps-grid", "1.5,0.5"]) == 2


def test_cli_corrupt_tolerance_config(tmp_path, capsys):
    # bounds are fixed, so a [tolerances] section is an unknown section
    config = tmp_path / "bad.ini"
    config.write_text("[tolerances]\nheisenberg_rtol = 1e-3\n")
    assert cli.main(["verify-all", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err \
        == "error: tolerances: unknown config section\n"
    assert not (tmp_path / "o").exists()


def test_config_reader_rejects_bad_section(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[mystery]\nkey = 1\n")
    with pytest.raises(InputRejected,
                       match=r"^mystery: unknown config section$"):
        cli._read_config(str(config))
    # every other rejection of the reader, and heisenberg's curvature
    # rule, through the command line: exit 2 naming the key
    for i, (text, key) in enumerate((
            (None, "config"),                   # no such file
            ("gamma = 1\n", "config"),          # no section header
            ("[scenario]\nseed = x\n", "seed"),
            ("[scenario]\nmystery = 1\n", "mystery"),
            ("[params]\ngamma = 1\n", "gamma"))):
        config = tmp_path / f"case{i}.ini"
        if text is not None:
            config.write_text(text)
        assert cli.main(["heisenberg", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2, text
        assert capsys.readouterr().err.startswith(f"error: {key}: "), text


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("COLLAPSE_SPECTRA_OUT", str(tmp_path / "env-out"))
    assert cli.main(["heisenberg"]) == 0
    assert (tmp_path / "env-out" / "spectra.csv").exists()


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "collapse_spectra.cli",
                           "list"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "heisenberg" in proc.stdout


def test_scenario_config_dataclass():
    assert scenarios.resolve("heisenberg", {"gamma": 2}, 1,
                             (0.5, 0.1))[3] == (0.5, 0.1)
    assert run_scenario_checks("heisenberg", {"gamma": 2}, 1,
                               (0.5, 0.1)).passed
    with pytest.raises(InputRejected, match=re.escape(
            "name: unknown scenario 'nope'; see 'list'")):
        scenarios.resolve("nope")
    with pytest.raises(InputRejected,
                       match="^bad: not a parameter of heisenberg$"):
        scenarios.resolve("heisenberg", {"bad": 1})
    with pytest.raises(InputRejected, match=r"^eps_grid: eps grid must lie"):
        scenarios.resolve("heisenberg", eps_grid=(2.0,))
    with pytest.raises(InputRejected, match="^seed: need an integer >= 0"):
        scenarios.resolve("heisenberg", seed="zero")


def test_run_manifest_round_trip(tmp_path):
    grid = scenarios.resolve("heisenberg")[3]
    manifest = cli.run_scenario("heisenberg", tmp_path,
                                run_scenario_checks("heisenberg"), {}, 0,
                                grid)
    loaded = json.loads((tmp_path / "manifest.json").read_text())
    assert loaded == json.loads(json.dumps(manifest._asdict()))
    assert loaded["tag"] == "small-eigenvalue-rate"


def test_csv_bodies_use_plain_float_repr():
    for name, _, _ in list_scenarios():
        result = run_scenario_checks(name, seed=0)
        for fname, body in result.artifacts.items():
            assert "np.float64" not in body, (name, fname)
            assert "(" not in body.splitlines()[1], (name, fname)


def test_cli_verify_all_byte_identical(tmp_path):
    out1 = tmp_path / "v1"
    out2 = tmp_path / "v2"
    assert cli.main(["verify-all", "--out", str(out1)]) == 0
    assert cli.main(["verify-all", "--out", str(out2)]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*")
                    if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*")
                    if p.is_file())
    assert files1 == files2 and len(files1) >= 15
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_cli_seed_precedence(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[scenario]\nname = euler-bound\nseed = 5\n")
    out = tmp_path / "o"
    assert cli.main(["euler-bound", "--config", str(config), "--out",
                     str(out), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert cli.main(["euler-bound", "--config", str(config), "--out",
                     str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_cli_eps_grid_underflow_names_key(tmp_path, capsys):
    # eps^(2 tau) underflows to zero, which the relative error divides by
    assert cli.main(["heisenberg", "--out", str(tmp_path),
                     "--eps-grid", "1e-200"]) == 2
    assert capsys.readouterr().err.startswith("error: eps_grid:")


def test_cli_ragged_matrix_names_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nB =\n    1 2\n    3\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: B:")


@pytest.mark.parametrize("scenario", ["two-block-solvable", "vol-bound"])
def test_cli_eps_grid_divisor_underflow_names_key(scenario, tmp_path, capsys):
    # two-block-solvable divides by eps^2, vol-bound by vol^2 = eps^4
    assert cli.main([scenario, "--out", str(tmp_path),
                     "--eps-grid", "1e-200"]) == 2
    assert capsys.readouterr().err.startswith("error: eps_grid:")


def test_cli_non_square_matrix_names_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nB =\n    1 2 3\n    4 5 6\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: B:")


def test_cli_vector_length_names_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nn = 3\nb = 1 0\n")
    assert cli.main(["torus-bundle", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: b:")


def test_cli_tolerances_rejected_for_single_scenario(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[tolerances]\nheisenberg_rtol = 1e-30\n")
    assert cli.main(["heisenberg", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err \
        == "error: tolerances: unknown config section\n"


def test_verify_all_evaluates_each_default_twice(tmp_path, monkeypatch):
    counts = {}
    for name, spec in list(scenarios.SCENARIOS.items()):
        def counting(params, seed, grid, name=name, func=spec.func):
            key = (name, tuple(sorted(params.items())), seed, grid)
            counts[key] = counts.get(key, 0) + 1
            return func(params, seed, grid)

        monkeypatch.setitem(scenarios.SCENARIOS, name,
                            spec._replace(func=counting))
    assert cli.main(["verify-all", "--out", str(tmp_path)]) == 0
    for name in scenarios.SCENARIOS:
        assert counts[scenarios.resolve(name)] == 2, name


def test_resolve_builds_no_collapse_family(monkeypatch):
    # B and k are decided where the one collapse family is built, so the
    # configuration check does no linear algebra
    def refuse(*args):
        raise AssertionError("resolve built a collapse family")

    monkeypatch.setattr(mapping_torus, "collapse_family", refuse)
    for name in scenarios.SCENARIOS:
        scenarios.resolve(name)
    # the README's example config
    scenarios.resolve("mapping-torus", {"k": "1", "B": "\n0 1\n0 0"}, 1,
                      "0.5, 0.25, 0.125")


def test_verify_all_builds_one_family_per_collapse_run(tmp_path,
                                                       monkeypatch):
    counts = {"jordan_zero_chain": 0, "run_collapse": 0}
    for fname in counts:
        def counting(*args, fname=fname, func=getattr(mapping_torus, fname)):
            counts[fname] += 1
            return func(*args)

        monkeypatch.setattr(mapping_torus, fname, counting)
    assert cli.main(["verify-all", "--out", str(tmp_path)]) == 0
    assert counts["jordan_zero_chain"] == counts["run_collapse"] > 0


def test_cli_mapping_torus_k_capacity_names_key(tmp_path, capsys):
    # B is invertible, so d = d' = 0 and no eigenvalue can be made small
    config = tmp_path / "run.ini"
    config.write_text("[params]\nk = 1\nB =\n    0 1\n    -1 0\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: k:")


def test_cli_torus_bundle_empty_fiber_names_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nn = 0\nb =\n")
    assert cli.main(["torus-bundle", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: n:")


@pytest.mark.parametrize("grid", ["1e-5,1e-5", "0.5"])
def test_cli_two_block_grid_names_key(grid, tmp_path, capsys):
    # 1e-5: 2 eps^2 sits under the kernel cutoff; 0.5: rate-drift would
    # compare no two grid points
    assert cli.main(["two-block-solvable", "--out", str(tmp_path),
                     "--eps-grid", grid]) == 2
    assert capsys.readouterr().err.startswith("error: eps_grid:")


def test_two_block_rate_ratio_is_exactly_two():
    # the small degree-2 eigenvalue is 2 eps^2; solved from the Gram matrix
    # of one d_p it comes out exact on these grids, so ratio reads 2.0
    for grid in (None, (0.5, 0.03, 0.007)):
        rate = run_scenario_checks("two-block-solvable", eps_grid=grid)\
            .artifacts["rate.csv"]
        ratios = [row.split(",")[2] for row in rate.splitlines()[1:]]
        assert ratios and set(ratios) == {"2.0"}, rate


def test_cli_removed_resolution_names_key(tmp_path, capsys):
    # the covering radius is exact, so gt-family has no resolution knob
    config = tmp_path / "run.ini"
    config.write_text("[params]\nresolution = 200\n")
    assert cli.main(["gt-family", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: resolution:")


@pytest.mark.parametrize("big", ["1000000000", "10000000000"])
def test_cli_mapping_torus_wide_integer_entry(big, tmp_path):
    # a single 3-block: d - d' = 2 on the exact path, both in the
    # configuration check and in the collapse run
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\nk = 2\nB =\n    0 {big} 0\n"
                      "    0 0 1\n    0 0 0\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 0


def test_cli_mapping_torus_invertible_small_eigenvalues_names_key(
        tmp_path, capsys):
    # B is invertible and semisimple, so d = d' = 0 although B^4 is tiny
    config = tmp_path / "run.ini"
    config.write_text("[params]\nk = 1\nB =\n    1 0 0 0\n"
                      "    0 0.001 0 0\n    0 0 -1 0\n    0 0 0 -0.001\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: k:")


def test_cli_mapping_torus_rank_ambiguous_names_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nB =\n    1 0\n    0 1e-9\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: B:")


def test_cli_gt_family_empty_t_values_names_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nt_values =\n")
    assert cli.main(["gt-family", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: t_values:")


def test_cli_gt_family_too_many_t_values_names_key(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[params]\nt_values = " + " ".join(["0.5"] * 101) + "\n")
    assert cli.main(["gt-family", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: t_values:")


@pytest.mark.parametrize("scenario, key, value", [
    ("euler-bound", "trials", "0"),         # was a vacuous PASS, margin +inf
    ("euler-bound", "trials", "-3"),
    ("euler-bound", "trials", "10001"),
    ("euler-bound", "kmax", "0"),           # was a numpy ValueError traceback
    ("euler-bound", "kmax", "9"),
    ("torus-bundle", "n", "11"),
])
def test_cli_size_bounds_name_key(scenario, key, value, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\n{key} = {value}\n")
    assert cli.main([scenario, "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}:")


@pytest.mark.parametrize("scenario, key, value", [
    ("heisenberg", "gamma", "nan"),         # each ended in a traceback
    ("torus-bundle", "b", "inf 0"),
    ("gt-family", "t_values", "nan"),
    ("mapping-torus", "B", "nan 1\n    0 0"),
])
def test_cli_non_finite_param_names_key(scenario, key, value, tmp_path,
                                        capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\n{key} = {value}\n")
    assert cli.main([scenario, "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}:")


def test_negative_seed_names_key(tmp_path, capsys):
    with pytest.raises(InputRejected, match="^seed:"):
        scenarios.resolve("heisenberg", seed=-1)
    assert cli.main(["euler-bound", "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: seed:")
    config = tmp_path / "run.ini"
    config.write_text("[scenario]\nseed = x\n")
    assert cli.main(["heisenberg", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: seed: ")
    # one range rule for resolve and the floor: any integral value >= 0,
    # kept in resolve's key as the plain int the manifest JSON needs
    B = [[1.0, 0.0], [0.0, -1.0]]
    seed = scenarios.resolve("heisenberg", seed=np.int64(1))[2]
    assert seed == 1 and type(seed) is int
    assert mapping_torus.semisimple_floor(B, 2, seed=np.int64(1)) == \
        mapping_torus.semisimple_floor(B, 2, seed=1)
    for bad in (1.5, -1, "1"):
        with pytest.raises(InputRejected, match="^seed: need an integer"):
            scenarios.resolve("heisenberg", seed=bad)
        with pytest.raises(InputRejected, match="^seed: need an integer"):
            mapping_torus.semisimple_floor(B, 2, seed=bad)


def test_verify_all_negative_seed_runs_no_criterion(tmp_path, capsys,
                                                    monkeypatch):
    # criteria 2, 4, 6 and 11 seed their RNGs directly
    def no_criteria(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(cli.acceptance, "run_all", no_criteria)
    assert cli.main(["verify-all", "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: seed:")


#: (id, flags, [scenario] lines, [params] lines, key named) of options
#: that neither list nor verify-all reads
UNREAD = [
    ("flag-eps_grid", ["--eps-grid", "7"], "", "", "eps_grid"),
    ("config-eps_grid", [], "eps_grid = 5\n", "", "eps_grid"),
    ("name", [], "name = heisenberg\n", "", "name"),
    ("gamma", [], "", "gamma = -7\n", "gamma"),
    ("bogus", [], "", "bogus = 1\n", "bogus"),
]


@pytest.mark.parametrize("command, args, scenario, params, key", [
    *[pytest.param("verify-all", *case, id=id_) for id_, *case in UNREAD],
    *[pytest.param("list", *case, id=f"list-{id_}") for id_, *case in [
        *UNREAD,
        ("flag-seed", ["--seed", "3"], "", "", "seed"),
        ("config-seed", [], "seed = 3\n", "", "seed"),
        ("flag-out", ["--out", "x"], "", "", "out"),
        ("config-out", [], "out = x\n", "", "out")]]])
def test_verify_all_rejects_options_it_does_not_read(command, args, scenario,
                                                     params, key, tmp_path,
                                                     capsys, monkeypatch):
    # verify-all runs every scenario at its defaults and reads only out
    # and seed; list reads no option
    def no_criteria(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(cli.acceptance, "run_all", no_criteria)
    config = tmp_path / "v.ini"
    config.write_text(f"[scenario]\n{scenario}[params]\n{params}")
    out = [] if command == "list" else ["--out", str(tmp_path / "o")]
    assert cli.main([command, *args, "--config", str(config), *out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key}: ")
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("base_length", "0"),
    ("fiber_length", "0"),
    ("fiber_length", "1e-200"),           # its square underflows to 0
    ("fiber_length", "-0.1"),
    ("base_length", "1001"),              # modes_square.csv has 8.1 base rows
    ("fiber_length", "1e-4"),             # modes_circle.csv, 5.3 base / fiber
])
def test_cli_flat_threshold_lengths_name_key(key, value, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\n{key} = {value}\n")
    assert cli.main(["flat-threshold", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}:")


@pytest.mark.parametrize("t_values", ["300", "0 -100.5", "1e200"])
def test_cli_gt_family_t_bound_names_key(t_values, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\nt_values = {t_values}\n")
    assert cli.main(["gt-family", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: t_values:")


def test_failing_eigenvalue_rate_has_negative_margin():
    # eps^(2 tau) = 1e-80 lies under the kernel cutoff, so no eigenvalue
    # counts as nonzero, while the relative error stays tiny
    run = scenarios.SCENARIOS["heisenberg"].func
    (check,) = run({"alpha": 1.0, "beta": 1.0, "gamma": 22.0}, 0,
                   (0.01,)).checks
    assert not check.passed and check.margin < 0.0


@pytest.mark.parametrize("scenario, b", [
    ("torus-bundle", "0 0"),                # failed eigenspace-split, margin 0
    ("torus-bundle", "1e-200 0"),           # sum b_i^2 underflows
    ("torus-bundle", "1e200 0"),            # sum b_i^2 overflows: NaN margin
    ("torus-bundle", "1e4 1"),              # sum b_i^2 > 1e4: spectrum-match
                                            # failed its absolute 1e-10
    ("nil-homothety", "1e200 1"),           # was an OverflowError traceback
    ("nil-dense-direction", "1e200 1"),     # was a ValueError traceback
    ("nil-dense-direction", "1 0"),         # limit 0: failed positive-limit
])
def test_cli_bracket_vector_names_key(scenario, b, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\nb = {b}\n")
    assert cli.main([scenario, "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: b:")


def test_cli_nil_homothety_rate_is_exact_to_rounding_of_lambda(tmp_path):
    # lambda(0.9) = 10.7: a one-ulp gap of 1.8e-15 failed the absolute
    # 1e-15 that now holds relative to max(1, lambda)
    config = tmp_path / "run.ini"
    config.write_text("[params]\nb = 3 -2 0.5\n")
    assert cli.main(["nil-homothety", "--config", str(config),
                     "--eps-grid", "0.9,0.3", "--out", str(tmp_path / "o")]) \
        == 0
    (check,) = [c for c in run_scenario_checks(
        "nil-homothety", {"b": "3 -2 0.5"}, eps_grid="0.9,0.3").checks
        if c.name == "rate-exact"]
    assert 0.0 < check.value <= check.bound == 1e-15


def test_cli_heisenberg_grid_under_kernel_cutoff_names_key(tmp_path, capsys):
    # tau = 3: eps = 0.01 gives eps^6 = 1e-12, under the cutoff EIG_TOL
    config = tmp_path / "run.ini"
    config.write_text("[params]\ngamma = 5\n")
    assert cli.main(["heisenberg", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: eps_grid:")


@pytest.mark.parametrize("k, grid, code", [
    (1, "2e-5", 2),        # eps^2 = 4e-10, was a failed kernel-dim
    (1, "1e-170", 2),      # eps^2 underflows to zero
    (1, "5e-324", 2),      # was a LinAlgError traceback
    (0, "5e-324", 0),      # a homothety has no small eigenvalue
])
def test_cli_mapping_torus_grid_under_kernel_cutoff_names_key(
        k, grid, code, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\nk = {k}\n")
    assert cli.main(["mapping-torus", "--config", str(config), "--eps-grid",
                     grid, "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: eps_grid:")


def _rejects(check, params, grid):
    try:
        check(params, grid)
    except InputRejected:
        return True
    return False


def test_kernel_cutoff_rules_match_their_closed_forms():
    # heisenberg rejected eps^(2 tau) < 2 EIG_TOL and two-block-solvable
    # eps < 2 lam sqrt(EIG_TOL); the one cutoff rule decides the same
    # away from one ulp of each boundary
    eig_tol = 1e-9
    edge = 2.0 * scenarios._TWO_BLOCK_LAM * math.sqrt(eig_tol)
    for eps in (10.0 ** (-8 + 8 * i / 2000) for i in range(2001)):
        if abs(eps - edge) > math.ulp(edge):
            assert _rejects(scenarios._check_two_block, {},
                            (eps, 0.09, 0.08)) == (eps < edge), eps
        for tau in (0.5, 1.0, 3.0):
            heis_edge = (2.0 * eig_tol) ** (1.0 / (2.0 * tau))
            if abs(eps - heis_edge) <= 4 * math.ulp(heis_edge):
                continue
            params = {"alpha": 1.0, "beta": 1.0, "gamma": 2.0 + tau}
            assert _rejects(scenarios._check_heisenberg, params, (eps,)) \
                == (eps ** (2.0 * tau) < 2.0 * eig_tol), (eps, tau)


def test_verify_all_check_records(tmp_path):
    assert cli.main(["verify-all", "--seed", "0", "--out", str(tmp_path)]) == 0
    manifests = list(tmp_path.glob("*/manifest.json"))
    assert len(manifests) == len(scenarios.SCENARIOS)
    for path in manifests:
        for check in json.loads(path.read_text())["checks"]:
            assert set(check) == {"name", "value", "bound", "sense",
                                  "passed", "margin", "detail"}, path
            assert check["passed"] == (check["margin"] >= 0.0), check
            assert all(math.isfinite(check[key])
                       for key in ("value", "bound", "margin")), check


def test_chain_rows_follow_the_checks_rules():
    result = scenarios.SCENARIOS["euler-bound"].func(
        {"trials": 50, "kmax": 4}, 0, ())
    header, *lines = result.artifacts["chain.csv"].splitlines()
    assert header.endswith("lam_min,mid_bound,det_bound,fact_residual,ok")
    oks = []
    for line in lines:
        lam, mid, det, residual, ok = line.split(",")[3:]
        lam, mid, det = float(lam), float(mid), float(det)
        slack = min(lam - mid, mid - det, lam - det)
        assert int(ok) == int(slack >= -1e-10 and float(residual) <= 1e-10)
        oks.append(int(ok))
    chain_check = next(c for c in result.checks if c.name == "bound-chain")
    assert chain_check.bound == -1e-10
    assert chain_check.passed == all(oks)


@pytest.mark.parametrize("B, k, code", [
    ("1e160 0\n    0 0", 0, 2),
    ("1e300 0\n    0 0", 0, 2),
    ("1e150 0\n    0 0", 0, 0),      # eps = 1 trace 1e300
    ("0 1e160\n    0 0", 1, 0),      # the adapted frame scales it to 1
    # integer B whose exact Jordan chain holds 1e600
    ("0 1e300 0\n    0 0 1e300\n    0 0 0", 0, 2),
])
def test_cli_mapping_torus_huge_b(B, k, code, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[params]\nk = {k}\nB =\n    {B}\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: B:")


@pytest.mark.parametrize("grid", [[], ["--eps-grid", "1"]])
def test_cli_mapping_torus_scale_of_b_names_key(grid, tmp_path, capsys):
    # the eps = 1 trace is 1e10, so even eps = 1 puts the small eigenvalue
    # eps^2 = 1 under twice the kernel cutoff: no grid can pass, and the
    # fault is B's scale, not the grid
    config = tmp_path / "run.ini"
    config.write_text("[params]\nk = 1\nB =\n    1e5 0 0\n    0 0 1\n"
                      "    0 0 0\n")
    assert cli.main(["mapping-torus", "--config", str(config),
                     "--out", str(tmp_path / "o"), *grid]) == 2
    assert capsys.readouterr().err.startswith("error: B:")


def _with_failing_check(monkeypatch, name):
    """Make scenario ``name`` add a check that fails by 1.0."""
    spec = scenarios.SCENARIOS[name]

    def failing(params, seed, grid):
        result = spec.func(params, seed, grid)
        result.checks.append(scenarios.CheckResult("forced", 1.0, 0.0))
        return result

    monkeypatch.setitem(scenarios.SCENARIOS, name,
                        spec._replace(func=failing))


def test_cli_failed_check_exits_one(tmp_path, monkeypatch, capsys):
    _with_failing_check(monkeypatch, "heisenberg")
    assert cli.main(["heisenberg", "--out", str(tmp_path / "one")]) == 1
    assert "FAIL forced: margin -1.000e+00" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert manifest["passed"] is False


def test_verify_all_failed_check_exits_one(tmp_path, monkeypatch):
    _with_failing_check(monkeypatch, "heisenberg")
    assert cli.main(["verify-all", "--out", str(tmp_path)]) == 1
    verify = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert verify["passed"] is False
    assert verify["scenarios"]["heisenberg"]["passed"] is False
    # criterion 1 runs heisenberg, so it fails with the scenario
    assert verify["criteria"]["1"] is False
    assert sum(not ok for ok in verify["criteria"].values()) == 1
    manifest = json.loads((tmp_path / "heisenberg" / "manifest.json")
                          .read_text())
    assert manifest["passed"] is False
    (forced,) = [c for c in manifest["checks"] if c["name"] == "forced"]
    assert forced["passed"] is False and forced["margin"] < 0.0
    assert all(c["passed"] for c in manifest["checks"] if c is not forced)
