"""Reference implementations the tests check the package against: closed
forms and second algorithms that ``src/`` does not carry."""

import numpy as np

from collapse_spectra.curvature import CurvatureTable


def int_product(a, b) -> list:
    """Exact product of two integer matrices given as lists of rows."""
    return (np.array(a, dtype=object) @ np.array(b, dtype=object)).tolist()


def jacobi_defect(c) -> float:
    """Max-norm of the Jacobi cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i]
    + [[e_k,e_i],e_j] of a bracket tensor c[i, j, l], the coefficient of
    e_l in [e_i, e_j]; zero iff c satisfies the Jacobi identity.  No
    antisymmetry is assumed, so it measures broken tables too."""
    c = np.asarray(c, dtype=float)
    nested = np.einsum("ijl,lkm->ijkm", c, c)
    cyclic = (nested + np.einsum("jkim->ijkm", nested)
              + np.einsum("kijm->ijkm", nested))
    return float(np.abs(cyclic).max())


def nil_bundle_curvature_closed_form(eta: float, n: int = 2) -> CurvatureTable:
    """Curvature table of the nilpotent bundle algebra with [Y1,Y2] = eta V1.

    Frame order is (V_1, ..., V_n, Y_1, Y_2): K(Y_1, Y_2) = -3/4 eta^2,
    K(V_1, Y_i) = eta^2 / 4, all other pairs flat.
    """
    pairs = {}
    for i in range(n + 2):
        for j in range(i + 1, n + 2):
            pairs[(i, j)] = 0.0
    pairs[(n, n + 1)] = -0.75 * eta ** 2
    pairs[(0, n)] = eta ** 2 / 4.0
    pairs[(0, n + 1)] = eta ** 2 / 4.0
    return CurvatureTable(n + 2, pairs)
