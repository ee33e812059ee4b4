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
    return CurvatureTable(pairs)


def solvable_curvatures_by_pair(C) -> list:
    """K on the frame pairs of the solvable algebra of one C, pair by pair
    in scalar arithmetic: (V_i, V_j) for i < j in row order, then (V_i, Y),
    by K(V_i, V_j) = 1/4 (c_ij + c_ji)^2 - c_ii c_jj and
    K(Y, V_i) = -sum_j c_ji^2 + 1/4 sum_j (c_ij - c_ji)^2."""
    n = C.shape[0]
    pairs = [0.25 * (C[i, j] + C[j, i]) ** 2 - C[i, i] * C[j, j]
             for i in range(n) for j in range(i + 1, n)]
    pairs += [-np.sum(C[:, i] ** 2) + 0.25 * np.sum((C[i, :] - C[:, i]) ** 2)
              for i in range(n)]
    return [float(v) for v in pairs]


def collapse_rows_by_eps(family, eps_grid) -> np.ndarray:
    """The rows of ``run_collapse`` for a built family, one eps at a time:
    ``[eps, *eigenvalues, kernel_dim, trace, max |K|, small_count]`` per
    grid point, with K from :func:`solvable_curvatures_by_pair`."""
    from collapse_spectra.lie_complex import SpectrumReport
    from collapse_spectra.mapping_torus import SMALL_ABS_CAP, laplacian1_fast

    n = family.c_base.shape[0]
    rows = []
    for eps in eps_grid:
        C = family.c_matrix(eps)
        vals = np.linalg.eigvalsh(laplacian1_fast(C))
        report = SpectrumReport.from_eigenvalues(vals)
        small = min(10.0 * eps * eps, SMALL_ABS_CAP)
        count = int(np.sum(vals[family.d_prime + 1:] < small))
        max_k = max(abs(v) for v in solvable_curvatures_by_pair(C))
        rows.append([float(eps), *report.eigenvalues, report.kernel_dim,
                     float(np.sum(C * C)), max_k, count])
    return np.array(rows, dtype=float).reshape(len(rows), n + 6)


def euler_rows_by_map(trials, kmax, seed) -> tuple:
    """``(rows, slack, max_residual)`` of the ``euler-bound`` scenario, one
    map at a time: the draws and the ``gram_det`` filter of the scenario,
    then ``bound_chain`` and ``det_factorization`` for each kept map."""
    import math

    from collapse_spectra import euler_bound

    margin = 1e-10
    rng = np.random.default_rng(seed)
    rows = []
    slack, max_residual = math.inf, 0.0
    count = 0
    while count < trials:
        k = int(rng.integers(1, kmax + 1))
        m = int(rng.integers(k, k + 3))
        E = rng.integers(-4, 5, size=(m, k))
        if not euler_bound.gram_det(E.tolist()):
            continue
        count += 1
        w = rng.standard_normal((k, k))
        gram = w @ w.T + 0.5 * np.eye(k)
        bc = euler_bound.bound_chain(E.tolist(), gram)
        df = euler_bound.det_factorization(E.tolist(), gram)
        row_slack = min(bc.lam_min - bc.mid_bound, bc.mid_bound - bc.det_bound,
                        bc.lam_min - bc.det_bound)
        slack = min(slack, row_slack)
        max_residual = max(max_residual, df.residual)
        rows.append([count, k, m, bc.lam_min, bc.mid_bound, bc.det_bound,
                     df.residual, int(row_slack >= -margin and df.ok)])
    return rows, slack, max_residual
