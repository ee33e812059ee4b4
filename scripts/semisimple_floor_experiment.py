#!/usr/bin/env python3
"""Sample the empirical spectral floor of a semisimple mapping torus.

For semisimple B no homogeneous collapse produces small eigenvalues;
this samples random bounded-curvature metric frames and reports the
minimum nonzero invariant eigenvalue seen across all form degrees.

Prints a summary and writes no files.  Exit status: 0 when the floor
lies above the 1e-4 sanity line, 1 when it does not, 2 when the input
is rejected, naming the flag at fault: --b for a B that is not a square
matrix of finite numbers, not semisimple, or whose Tr(B^T B) or default
cap 2 Tr(B^T B) + 1 is too large; --trials not an integer in 1..10000;
--cap not finite or outside Tr(B^T B) .. float max / (n + 1)^2; --seed
not an integer >= 0.

Example:
    python scripts/semisimple_floor_experiment.py --b "1 0; 0 -1" --trials 500
"""

import argparse
import sys

import numpy as np

from collapse_spectra import InputRejected, semisimple_floor
from collapse_spectra.scenarios import parse_value

#: the flag of each library key the floor's input can be rejected under
FLAGS = {"B": "--b", "trials": "--trials", "curvature_cap": "--cap",
         "seed": "--seed"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", default="1 0; 0 -1",
                    help="matrix B, rows separated by ';'")
    ap.add_argument("--trials", default="200")
    ap.add_argument("--cap", default=None,
                    help="bound on Tr(C^T C); default 2 Tr(B^T B) + 1")
    ap.add_argument("--seed", default="0")
    args = ap.parse_args()

    try:
        B = np.array(parse_value("matrix", "B", args.b))
        trials = parse_value(int, "trials", args.trials)
        cap = None if args.cap is None \
            else parse_value(float, "curvature_cap", args.cap)
        rep = semisimple_floor(B, trials=trials, curvature_cap=cap,
                               seed=parse_value(int, "seed", args.seed))
    except InputRejected as exc:
        print(f"error: {FLAGS.get(exc.key, exc.key)}: {exc.message}",
              file=sys.stderr)
        return 2
    if rep.vacuous:
        print("B = 0: no nonzero eigenvalues to bound")
        return 0
    print(f"trials = {rep.trials}, trace cap = {rep.cap:.6g}")
    print(f"empirical floor = {rep.floor:.8g} "
          f"({'above' if rep.ok else 'BELOW'} the 1e-4 sanity line)")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
