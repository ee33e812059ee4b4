#!/usr/bin/env python3
"""Invariance thresholds on product flat tori.

For a base circle times a fiber torus, lists every Laplace mode below a
cutoff with its fiber-invariance flag, confirming that everything below
the first fiber eigenvalue is invariant and that the bound is attained.

Exit status: 0 when the threshold holds and is attained, 1 when it does
not, 2 when the fiber is not a matrix of numbers, when the base length
breaks the flat-threshold scenario's size rule (0 < base length <= 1e3
and base length / fiber length <= 1e3, the fiber length read as
2 pi / sqrt(lambda01(fiber))), or when the library rejects the input (a
Gram matrix that is not square, finite, symmetric and positive definite,
a degree outside 0..dim).

Example:
    python scripts/flat_thresholds.py --fiber "0.04 0; 0 0.09" --degree 1
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from collapse_spectra import FlatTorus, lambda01, threshold_check_product
from collapse_spectra.flat_torus import MAX_LENGTH_RATIO


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base-length", type=float, default=1.0)
    ap.add_argument("--fiber", default="0.01",
                    help="fiber Gram matrix, rows separated by ';'")
    ap.add_argument("--degree", type=int, default=1)
    ap.add_argument("--out", default="thresholds.csv")
    args = ap.parse_args()

    try:
        try:
            gram = np.array([[float(x) for x in row.split()]
                             for row in args.fiber.split(";")])
        except ValueError:
            raise ValueError(f"--fiber: need a matrix of numbers, rows "
                             f"separated by ';', got {args.fiber!r}") from None
        base = FlatTorus.circle(args.base_length)
        fiber = FlatTorus(gram)
        # the flat-threshold scenario's size rule, reading the fiber length
        # as 2 pi / sqrt(lambda01(fiber)), the length of a circle fiber
        fiber_length = 2.0 * math.pi / math.sqrt(lambda01(fiber))
        if not (args.base_length > 0.0 and max(
                args.base_length, args.base_length / fiber_length)
                <= MAX_LENGTH_RATIO):
            raise ValueError(
                f"--base-length: need 0 < base length <= "
                f"{MAX_LENGTH_RATIO:g} and base length / fiber length <= "
                f"{MAX_LENGTH_RATIO:g}, with fiber length {fiber_length:.6g}")
        rep = threshold_check_product(base, fiber, args.degree)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(rep.csv)
    print(f"fiber lambda01 = {rep.threshold:.8g}")
    print(f"smallest non-invariant eigenvalue = {rep.min_noninvariant:.8g} "
          f"(attained exactly: {rep.attained_exactly})")
    print(f"violations below threshold: {len(rep.violations)}")
    print(f"modes written to {args.out}")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
