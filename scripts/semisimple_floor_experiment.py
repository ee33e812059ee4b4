#!/usr/bin/env python3
"""Sample the empirical spectral floor of a semisimple mapping torus.

For semisimple B no homogeneous collapse produces small eigenvalues;
this samples random bounded-curvature metric frames and reports the
minimum nonzero invariant eigenvalue seen across all form degrees.

Prints a summary and writes no files.  Exit status: 0 when the floor
lies above the 1e-4 sanity line, 1 when it does not, 2 when B is not a
square matrix of finite numbers or the library rejects the input (for
example trials outside 1..10000, a non-finite cap, or a B that is not
semisimple or whose Tr(B^T B) is not a finite float, which names --b).

Example:
    python scripts/semisimple_floor_experiment.py --b "1 0; 0 -1" --trials 500
"""

import argparse
import sys

import numpy as np

from collapse_spectra import CollapseSpectraError, semisimple_floor
from collapse_spectra.scenarios import parse_value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", default="1 0; 0 -1",
                    help="matrix B, rows separated by ';'")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--cap", type=float, default=None,
                    help="bound on Tr(C^T C); default 2 Tr(B^T B) + 1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        B = np.array(parse_value("matrix", "--b", args.b))
        try:
            rep = semisimple_floor(B, trials=args.trials,
                                   curvature_cap=args.cap, seed=args.seed)
        except CollapseSpectraError as exc:     # the library's verdict on B
            raise ValueError(f"--b: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
