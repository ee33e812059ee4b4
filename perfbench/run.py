#!/usr/bin/env python3
"""Benchmark of collapse-spectra, run from the root of a checkout.

    python3 perfbench/run.py --workload verify-all|ce-spectra|small-calls
                             --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (``worker.py``) with OpenBLAS
pinned to one thread, so lazily filled caches are paid inside the pass,
as a user's first call pays them.  A run makes a fixed number of passes
one after another, chosen from ``--seconds`` and the workload's nominal
pass time, so that a seed always gives the same ops and the same
failures; the metrics are medians over passes.

The host's speed drifts by tens of percent within a minute, so each
pass also times a fixed calibration kernel before, between and after
its ops, and every reported time is scaled to the speed at which that
kernel takes ``CALIBRATION_REF_S``.  The raw times stay in the run
record.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` passes alternate
between untraced and traced, and the object holds the per-layer
metrics of the traced passes plus the tracing overhead.  Every op is
checked against its oracle; ``correct`` is false when an op fails for a
reason outside :data:`KNOWN_DEFECTS`.  Spans of the
last traced pass and a full record of the run are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: Nominal wall time of one pass, process start included, on a 2-core
#: host running at reference speed.  A run makes
#: ``round(seconds / NOMINAL_PASS_S)`` passes, at least one (two when
#: traced, and always an even number then).
NOMINAL_PASS_S = {"verify-all": 2.5, "ce-spectra": 8.0, "small-calls": 2.0}
WORKLOADS = tuple(NOMINAL_PASS_S)
#: A run stops starting passes once this much time is gone, so that it
#: ends well inside the 180 s a run may take even on a very slow host.
LATEST_START_S = 120.0
RUN_LIMIT_S = 170.0

KNOWN_DEFECTS = {
    "kernel_cutoff": "the relative kernel cutoff EIG_TOL*max labels small "
                     "nonzero eigenvalues of a dense frame as kernel",
    "smith_growth": "coefficient growth in the dense Smith normal form "
                    "exceeds the digit budget or misses the per-call "
                    "deadline",
}

#: Median time of the calibration kernel in ``worker.py`` on a host
#: running at reference speed.  Every reported time is scaled by this
#: over the kernel's median time around it.
CALIBRATION_REF_S = 0.010

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _run_pass(workload, seed, traced, t_run):
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--out", str(OUT)]
    budget = RUN_LIMIT_S - (time.monotonic() - t_run)
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, budget))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - launched
    record["traced"] = traced
    return record


def _pass_count(workload, seconds, traced):
    count = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    return count + count % 2 if traced else count


def _quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of a non-empty list.

    It is a mean of all order statistics weighted by a Beta density
    around rank q.  Op latencies come in clusters, one per kind of op,
    and a single order statistic jumps from one cluster to the next when
    a latency crosses its neighbour; this estimate moves smoothly.
    """
    from scipy.special import betainc
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


def _scaled(op):
    """An op's latency at the reference speed."""
    return op[1] * CALIBRATION_REF_S / op[4]


def _wall(record, scaled=True):
    """Time of one pass: the sum of its op latencies."""
    return sum(_scaled(op) if scaled else op[1] for op in record["ops"])


def _end_to_end(passes):
    # an op that raised or missed its deadline has no latency; its time
    # still counts in wall_s and the op in fail_frac.  If no op returned
    # (the run is then not correct), all op times stand in.
    ops = [op for p in passes for op in p["ops"]]
    latencies = [_scaled(op) for op in ops if op[5]] or \
        [_scaled(op) for op in ops]
    return {
        "wall_s": (statistics.median(_wall(p) for p in passes), "s"),
        "setup_s": (statistics.median(
            p["setup_s"] * CALIBRATION_REF_S / p["setup_kernel_s"]
            for p in passes), "s"),
        "op_p50_ms": (1e3 * _quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (1e3 * _quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }, len(latencies)


def _per_layer(plain, traced, attempted, failed, known):
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in names}
    metrics = {name: (value, _layer_unit(name)) for name, value in out.items()}
    wall_plain = statistics.median(_wall(p) for p in plain)
    wall_traced = statistics.median(_wall(p) for p in traced)
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead"] = (wall_traced / wall_plain, "ratio")
    metrics["ops.fail_frac"] = (failed / attempted, "ratio")
    for defect, count in known.items():
        metrics[f"ops.known_defect.{defect}"] = (count, "count")
    return metrics


def _layer_unit(name):
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "per_laplacian")):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    if name.endswith("max_digits"):
        return "digits"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "collapse_spectra" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'collapse_spectra'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    t_run = time.monotonic()
    planned = _pass_count(args.workload, args.seconds, args.trace)
    passes = []
    try:
        while len(passes) < planned:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(_run_pass(args.workload, args.seed, traced, t_run))
            pair_done = not args.trace or len(passes) % 2 == 0
            if pair_done and time.monotonic() - t_run >= LATEST_START_S:
                print(f"perfbench: stopped after {len(passes)} of {planned} "
                      f"passes at {LATEST_START_S:g} s", file=sys.stderr)
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: pass {len(passes)} failed: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(op[2] != "ok" for op in ops)
    unexpected = [op for op in ops if op[2] == "fail"]
    known = {d: statistics.median(sum(op[2] == f"known:{d}" for op in p["ops"])
                                  for p in passes)
             for d in KNOWN_DEFECTS}
    prints = {p["fingerprint"] for p in passes}
    consistent = len(prints) == 1 and \
        len({tuple(op[0] for op in p["ops"]) for p in passes}) == 1
    correct = not unexpected and consistent

    e2e, samples = _end_to_end(plain)
    if args.trace:
        metrics = _per_layer(plain, traced, attempted, failed, known)
    else:
        metrics = e2e

    env = passes[0]["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted} ops attempted, {failed} failed")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"raw (unscaled) median wall "
          f"{statistics.median(_wall(p, scaled=False) for p in plain):.6g} s,"
          f" scaled {statistics.median(_wall(p) for p in plain):.6g} s")
    for name, (value, unit) in e2e.items():
        what = f"{samples} op latencies" if name.startswith("op_") \
            else f"median of {len(plain)} passes"
        print(f"  {name} = {value:.6g} {unit} ({what})")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    for defect, text in KNOWN_DEFECTS.items():
        print(f"  known defect {defect}: {known[defect]:g} failed ops per "
              f"pass ({text})")
    for key, _, _, reason, _, _ in unexpected[:20]:
        print(f"  FAILED {key}: {reason}")
    if not consistent:
        print("  FAILED passes disagree on outputs or op lists")

    with open(OUT / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "env": env, "samples": samples,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "passes": passes}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
