"""Command line harness.

    collapse-spectra <scenario> [--config FILE] [--out DIR] [--seed N]
                                [--eps-grid a,b,c]
    collapse-spectra list
    collapse-spectra verify-all [--config FILE] [--out DIR] [--seed N]

CSV bodies are byte-identical for a fixed config and seed; every run
writes a JSON manifest tying artifacts and checks together.  Exit codes:
0 all checks pass, 1 a check failed, 2 configuration error.

The output directory is --out if given, else the environment variable
COLLAPSE_SPECTRA_OUT, else the config's ``out``, else DEFAULT_OUT.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import acceptance, scenarios
from .errors import InputRejected

DEFAULT_OUT = "collapse-spectra-out"
#: the options, by flag or config key, that list and verify-all read
READS = {"list": (), "verify-all": ("out", "seed")}


class RunManifest(NamedTuple):
    """Reproducibility record for one scenario run: the config and its
    hash, artifact digests, and the per-check outcomes."""

    scenario: str
    tag: str
    seed: int
    eps_grid: tuple
    params: dict
    config_hash: str
    artifacts: tuple
    checks: tuple
    passed: bool


def _read_config(path: str) -> dict:
    cp = configparser.ConfigParser()
    cp.optionxform = str          # keep key case
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise InputRejected("config", f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InputRejected("config",
                            f"parse error in {path}: {exc}") from exc
    out = {"params": {}}
    for section in cp.sections():
        if section == "scenario":
            for key, value in cp.items(section):
                if key not in ("name", "out", "seed", "eps_grid"):
                    raise InputRejected(key, "unknown key in [scenario]")
                out[key] = value.strip()
        elif section == "params":
            out["params"].update(cp.items(section))
        else:
            raise InputRejected(section, "unknown config section")
    return out


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_bytes((json.dumps(obj, sort_keys=True, indent=2)
                      + "\n").encode())


def run_scenario(name: str, out_dir: Path, result: scenarios.ScenarioResult,
                 params: dict, seed: int, grid: tuple) -> RunManifest:
    """Write the artifacts of one scenario ``result`` plus its manifest to
    ``out_dir`` and return the manifest.  ``params`` are the overrides as
    given, ``grid`` the resolved eps grid."""
    params = {k: str(v) for k, v in sorted(params.items())}
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for fname in sorted(result.artifacts):
        body = result.artifacts[fname].encode()
        (out_dir / fname).write_bytes(body)
        artifacts.append({"name": fname,
                          "sha256": hashlib.sha256(body).hexdigest()})
    manifest = RunManifest(
        scenario=name,
        tag=scenarios.SCENARIOS[name].tag,
        seed=seed,
        eps_grid=grid,
        params=params,
        config_hash=_config_hash({"scenario": name, "seed": seed,
                                  "eps_grid": list(grid), "params": params}),
        artifacts=tuple(artifacts),
        checks=tuple(dict(c._asdict(), passed=c.passed, margin=c.margin)
                     for c in result.checks),
        passed=bool(result.passed),
    )
    _write_json(out_dir / "manifest.json", manifest._asdict())
    return manifest


def _cmd_list() -> int:
    rows = scenarios.list_scenarios()
    width = max(len(name) for name, _, _ in rows)
    for name, tag, defaults in rows:
        default_str = ", ".join(
            "{}={}".format(k, str(v).replace("\n", "; "))
            for k, v in sorted(defaults.items()))
        print(f"{name:<{width}}  {tag}" + (f"  [{default_str}]"
                                           if default_str else ""))
    print(f"{len(rows)} scenarios")
    return 0


def _cmd_verify_all(seed: int, out_dir: Path) -> int:
    # resolved before any criterion runs, some of which seed an RNG
    grids = {name: scenarios.resolve(name, seed=seed)[3]
             for name in sorted(scenarios.SCENARIOS)}
    summary = acceptance.run_all(seed=seed)
    scenario_manifests = {}
    for name, grid in grids.items():
        # criterion 12's first pass, not a third evaluation
        manifest = run_scenario(name, out_dir / name,
                                summary.runs(name, seed=seed), {}, seed, grid)
        scenario_manifests[name] = manifest
        status = "PASS" if manifest.passed else "FAIL"
        print(f"{status} scenario {name} ({manifest.tag})")
    all_pass = summary.passed and all(m.passed for m in
                                      scenario_manifests.values())
    for res in summary.results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.number:2d}: {res.name} "
              f"({res.seconds:.2f} s)")
        for check in res.checks:
            mark = "ok " if check.passed else "BAD"
            print(f"    {mark} {check.name}: margin {check.margin:+.3e}"
                  + (f" ({check.detail})" if check.detail else ""))
    verify_manifest = {
        "seed": seed,
        "scenarios": {name: {"config_hash": m.config_hash,
                             "artifacts": list(m.artifacts),
                             "passed": m.passed}
                      for name, m in scenario_manifests.items()},
        "criteria": {str(r.number): bool(r.passed) for r in summary.results},
        "passed": bool(all_pass),
    }
    _write_json(out_dir / "verify_manifest.json", verify_manifest)
    print(f"{'PASS' if all_pass else 'FAIL'}: acceptance suite in "
          f"{summary.seconds:.1f} s; manifest at "
          f"{out_dir / 'verify_manifest.json'}")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="collapse-spectra",
        description="Deterministic spectra experiments on collapsing "
                    "homogeneous torus bundles.")
    parser.add_argument("command",
                        help="scenario name, 'list', or 'verify-all'")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", help="integer >= 0")
    parser.add_argument("--eps-grid", dest="eps_grid",
                        help="comma-separated grid in (0, 1]")
    args = parser.parse_args(argv)

    try:
        config = _read_config(args.config) if args.config else {"params": {}}
        if args.command in READS:
            reads = READS[args.command]
            given = [key for key in ("out", "seed", "eps_grid")
                     if getattr(args, key) is not None] + list(config)
            unread = [key for key in given if key not in (*reads, "params")
                      ] + list(config["params"])
            if unread:
                raise InputRejected(unread[0], (
                    f"not read by {args.command}, which reads "
                    + (" and ".join(reads) or "no option")))
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        seed = scenarios.parse_value(int, "seed", seed)
        out_dir = Path(args.out or os.environ.get("COLLAPSE_SPECTRA_OUT")
                       or config.get("out") or DEFAULT_OUT)
        if args.command == "list":
            return _cmd_list()
        if args.command == "verify-all":
            return _cmd_verify_all(seed, out_dir)
        name = args.command
        if "name" in config and config["name"] != name:
            raise InputRejected(
                "name", f"config names scenario {config['name']!r}, "
                        f"command line says {name!r}")
        eps_grid = args.eps_grid or config.get("eps_grid")
        grid = scenarios.resolve(name, config["params"], seed, eps_grid)[3]
        result = scenarios.run_scenario_checks(name, config["params"], seed,
                                               eps_grid)
        manifest = run_scenario(name, out_dir, result, config["params"], seed,
                                grid)
        for check in manifest.checks:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"{mark} {check['name']}: margin {check['margin']:+.3e}"
                  + (f" ({check['detail']})" if check["detail"] else ""))
        print(("PASS" if manifest.passed else "FAIL")
              + f" scenario {name}; artifacts in {out_dir}")
        return 0 if manifest.passed else 1
    except InputRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
