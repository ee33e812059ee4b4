#!/usr/bin/env python3
"""Invariance thresholds on product flat tori.

For a base circle times a fiber torus, lists every Laplace mode below a
cutoff with its fiber-invariance flag, confirming that everything below
the first fiber eigenvalue is invariant and that the bound is attained.

Exit status: 0 when the threshold holds and is attained, 1 when it does
not, 2 when an input breaks its rule, naming its flag: a fiber that is
not a symmetric positive definite matrix of finite numbers (--fiber), a
degree that is not an integer in 0..dim (--degree), a base length that
is not a finite number (--base-length), or lengths that break the
flat-threshold scenario's size rule (``flat_torus.check_product_lengths``:
lengths > 0 with normal-float squares, base length <= 1e3 and base
length / fiber length <= 1e3, the fiber length read as
2 pi / sqrt(lambda01(fiber)); --base-length or --fiber).

Example:
    python scripts/flat_thresholds.py --fiber "0.04 0; 0 0.09" --degree 1
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from collapse_spectra import (FlatTorus, InputRejected, lambda01,
                              threshold_check_product)
from collapse_spectra.flat_torus import check_product_lengths
from collapse_spectra.scenarios import parse_value

#: the flag of each library key an input can be rejected under
FLAGS = {"base_length": "--base-length", "fiber_length": "--fiber",
         "gram": "--fiber", "p": "--degree"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base-length", default="1.0")
    ap.add_argument("--fiber", default="0.01",
                    help="fiber Gram matrix, rows separated by ';'")
    ap.add_argument("--degree", default="1")
    ap.add_argument("--out", default="thresholds.csv")
    args = ap.parse_args()

    try:
        base_length = parse_value(float, "base_length", args.base_length)
        degree = parse_value(int, "p", args.degree)
        fiber = FlatTorus(np.array(parse_value("matrix", "--fiber",
                                               args.fiber)))
        # the fiber length of a circle fiber with the same lambda01
        fiber_length = 2.0 * math.pi / math.sqrt(lambda01(fiber))
        check_product_lengths(base_length, fiber_length)
        rep = threshold_check_product(FlatTorus.circle(base_length),
                                      fiber, degree)
    except InputRejected as exc:
        print(f"error: {FLAGS.get(exc.key, exc.key)}: {exc.message}",
              file=sys.stderr)
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
