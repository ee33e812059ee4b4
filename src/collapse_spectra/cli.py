"""Command line harness.

    collapse-spectra <scenario> [--config FILE] [--out DIR] [--seed N]
                                [--eps-grid a,b,c]
    collapse-spectra list
    collapse-spectra verify-all [--config FILE] [--out DIR] [--seed N]

CSV bodies are byte-identical for a fixed config and seed; every run
writes a JSON manifest tying artifacts and checks together.  Exit codes:
0 all checks pass, 1 a check failed, 2 configuration error.

The environment variable COLLAPSE_SPECTRA_OUT overrides the output
directory.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import acceptance, scenarios
from .errors import CollapseSpectraError, ConfigInvalid, ScenarioUnknown
from .scenarios import ScenarioConfig

DEFAULT_OUT = "collapse-spectra-out"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record for one scenario run: the config and its
    hash, artifact digests, and the per-check outcomes."""

    scenario: str
    tag: str
    seed: int
    eps_grid: tuple
    params: dict
    config_hash: str
    artifacts: tuple = field(default_factory=tuple)
    checks: tuple = field(default_factory=tuple)
    passed: bool = False

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "tag": self.tag,
            "seed": self.seed,
            "eps_grid": list(self.eps_grid),
            "params": dict(self.params),
            "config_hash": self.config_hash,
            "artifacts": [dict(a) for a in self.artifacts],
            "checks": [dict(c) for c in self.checks],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def _read_config(path: str) -> dict:
    cp = configparser.ConfigParser()
    cp.optionxform = str          # keep key case
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigInvalid(f"config: parse error in {path}: {exc}") from exc
    out = {"params": {}}
    for section in cp.sections():
        if section == "scenario":
            for key, value in cp.items(section):
                if key == "name":
                    out["name"] = value.strip()
                elif key == "seed":
                    try:
                        out["seed"] = int(value)
                    except ValueError as exc:
                        raise ConfigInvalid("seed: must be an integer") from exc
                elif key == "eps_grid":
                    out["eps_grid"] = _parse_grid(value)
                elif key == "out":
                    out["out"] = value.strip()
                else:
                    raise ConfigInvalid(f"{key}: unknown key in [scenario]")
        elif section == "params":
            out["params"].update(cp.items(section))
        elif section == "tolerances":
            out["tolerances"] = {}
            for key, value in cp.items(section):
                if key not in acceptance.TOLERANCES:
                    raise ConfigInvalid(f"{key}: unknown tolerance")
                try:
                    out["tolerances"][key] = float(value)
                except ValueError as exc:
                    raise ConfigInvalid(f"{key}: tolerance must be a float") \
                        from exc
        else:
            raise ConfigInvalid(f"{section}: unknown config section")
    return out


def _parse_grid(text: str):
    try:
        grid = tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigInvalid(f"eps_grid: cannot parse {text!r}") from exc
    if not grid:
        raise ConfigInvalid("eps_grid: empty grid")
    return grid


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_scenario(config: ScenarioConfig, out_dir: Path = None,
                 result: scenarios.ScenarioResult = None) -> RunManifest:
    """Run one scenario, unless its ``result`` is given, write artifacts
    plus manifest, and return the manifest."""
    spec = scenarios.SCENARIOS[config.name]
    if result is None:
        result = config.run()
    params = {k: str(v) for k, v in sorted(config.params.items())}
    grid = config.grid
    artifacts = []
    for fname in sorted(result.artifacts):
        body = result.artifacts[fname].encode()
        artifacts.append({"name": fname,
                          "sha256": hashlib.sha256(body).hexdigest()})
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / fname).write_bytes(body)
    manifest = RunManifest(
        scenario=config.name,
        tag=spec.tag,
        seed=config.seed,
        eps_grid=grid,
        params=params,
        config_hash=_config_hash({"scenario": config.name,
                                  "seed": config.seed,
                                  "eps_grid": list(grid), "params": params}),
        artifacts=tuple(artifacts),
        checks=tuple({"name": c.name, "passed": bool(c.passed),
                      "margin": c.margin, "detail": c.detail}
                     for c in result.checks),
        passed=bool(result.passed),
    )
    if out_dir is not None:
        (out_dir / "manifest.json").write_bytes(manifest.to_json().encode())
    return manifest


def _cmd_list() -> int:
    rows = scenarios.list_scenarios()
    width = max(len(name) for name, _, _ in rows)
    for name, tag, defaults in rows:
        default_str = ", ".join(
            "{}={}".format(k, str(v).replace("\n", "; "))
            for k, v in sorted(defaults.items(), key=lambda kv: kv[0]))
        print(f"{name:<{width}}  {tag}" + (f"  [{default_str}]"
                                           if default_str else ""))
    print(f"{len(rows)} scenarios")
    return 0


def _cmd_verify_all(seed: int, out_dir: Path, tolerances: dict) -> int:
    summary = acceptance.run_all(seed=seed, tolerances=tolerances)
    scenario_manifests = {}
    for name in sorted(scenarios.SCENARIOS):
        # criterion 12's first pass, not a third evaluation
        manifest = run_scenario(ScenarioConfig(name, seed=seed),
                                out_dir=out_dir / name,
                                result=summary.runs(name, seed=seed))
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
                             "artifacts": [dict(a) for a in m.artifacts],
                             "passed": m.passed}
                      for name, m in scenario_manifests.items()},
        "criteria": {str(r.number): bool(r.passed) for r in summary.results},
        "passed": bool(all_pass),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "verify_manifest.json").write_bytes(
        (json.dumps(verify_manifest, sort_keys=True, indent=2) + "\n").encode())
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
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--eps-grid", dest="eps_grid",
                        help="comma-separated grid in (0, 1]")
    args = parser.parse_args(argv)

    try:
        config = _read_config(args.config) if args.config else \
            {"params": {}}
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        out_base = args.out or os.environ.get("COLLAPSE_SPECTRA_OUT") \
            or config.get("out") or DEFAULT_OUT
        out_dir = Path(out_base)
        if args.command == "list":
            return _cmd_list()
        if args.command == "verify-all":
            return _cmd_verify_all(seed, out_dir, config.get("tolerances"))
        name = args.command
        if "tolerances" in config:
            raise ConfigInvalid(
                "tolerances: only verify-all reads the [tolerances] section")
        if "name" in config and config["name"] != name:
            raise ConfigInvalid(
                f"name: config names scenario {config['name']!r}, "
                f"command line says {name!r}")
        eps_grid = _parse_grid(args.eps_grid) if args.eps_grid else \
            config.get("eps_grid")
        manifest = run_scenario(ScenarioConfig(name, config["params"], seed,
                                               eps_grid), out_dir)
        for check in manifest.checks:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"{mark} {check['name']}: margin {check['margin']:+.3e}"
                  + (f" ({check['detail']})" if check["detail"] else ""))
        print(("PASS" if manifest.passed else "FAIL")
              + f" scenario {name}; artifacts in {out_dir}")
        return 0 if manifest.passed else 1
    except (ConfigInvalid, ScenarioUnknown) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CollapseSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
