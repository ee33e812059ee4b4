#!/usr/bin/env python3
"""Sweep collapse families of a mapping torus over a dyadic grid.

Writes one CSV per admissible k (0 <= k <= d - d') for the chosen B,
showing the spectrum of the degree-1 invariant Laplacian, the trace of
C_eps^T C_eps and the frame curvature bound along the collapse.

Exit status: 0 when every table is written, 2 when the input is
rejected, naming the flag at fault: --b for a B that is not a square
matrix of finite numbers or whose Jordan chains the library cannot
decide, --jmax not an integer >= 1 or when the finest eps puts the small
eigenvalues eps^2 of some k >= 1 within twice the kernel cutoff.  The
largest admissible --jmax is 14 for every B whose collapse family has
eps = 1 trace Tr(C^T C) <= 1.86, the default B among them; a larger
trace T lowers it to the largest j with 4^-j >= 2e-9 T.

Example:
    python scripts/collapse_sweep.py --out /tmp/sweep --jmax 12
    python scripts/collapse_sweep.py --b "0 1 0; 0 0 1; 0 0 0"
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from collapse_spectra import InputRejected, invariants_dd, run_collapse
from collapse_spectra.scenarios import parse_value

#: the flag of each library key the sweep's input can be rejected under
FLAGS = {"B": "--b", "eps_grid": "--jmax"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", default="0 1; 0 0",
                    help="matrix B, rows separated by ';'")
    ap.add_argument("--jmax", default="10",
                    help="grid eps = 2^-1 .. 2^-jmax, 1 <= jmax <= 14 "
                         "(less for a B with eps = 1 trace above 1.86)")
    ap.add_argument("--out", default="sweep-out")
    args = ap.parse_args()

    try:
        jmax = parse_value(int, "eps_grid", args.jmax)
        if jmax < 1:
            raise InputRejected("eps_grid",
                                f"need an integer >= 1, got {jmax}")
        B = np.array(parse_value("matrix", "B", args.b))
        d, d_prime = invariants_dd(B)
        grid = [2.0 ** -j for j in range(1, jmax + 1)]
        tables = [run_collapse(B, k, grid) for k in range(d - d_prime + 1)]
    except InputRejected as exc:
        print(f"error: {FLAGS.get(exc.key, exc.key)}: {exc.message}",
              file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"B is {B.shape[0]}x{B.shape[0]} with d = {d}, d' = {d_prime}")
    for k, table in enumerate(tables):
        path = out / f"collapse_k{k}.csv"
        path.write_text(table.to_csv())
        finest = table.rows[-1]
        print(f"k = {k}: wrote {path}; at eps = {finest.eps:.5g} the "
              f"spectrum is {np.round(finest.report.eigenvalues, 8)} "
              f"(small count {finest.small_count})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
