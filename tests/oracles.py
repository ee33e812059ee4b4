"""Reference implementations the tests check the package against: closed
forms and second algorithms that ``src/`` does not carry."""

import itertools

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


def sectional_curvature(c, u, v) -> float:
    """K(u, v) of the bracket tensor ``c`` for orthonormal coefficient
    vectors u, v, by the five-term formula for left-invariant metrics

        K(U,V) = 1/4 |ad*_U V + ad*_V U|^2 - <ad*_U U, ad*_V V>
                 - 3/4 |[U,V]|^2 - 1/2 <[[U,V],V],U> - 1/2 <[[V,U],U],V>

    with each inner product summed as ``np.sum(x * y)``; the last two use
    <[[U,V],V],U> = sum_m [U,V]_m <[e_m,V],U>."""
    c = np.asarray(c, dtype=float)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)

    # ad_u @ x = [u, x], so ad_u.T is ad*_u
    ad_u, ad_v = (np.einsum("i,ijk->kj", w, c) for w in (u, v))
    uv = ad_u @ v
    term1 = 0.25 * np.sum((ad_u.T @ v + ad_v.T @ u) ** 2)
    term2 = np.sum((ad_u.T @ u) * (ad_v.T @ v))
    term3 = 0.75 * np.sum(uv ** 2)
    # c @ y @ x is the vector <[e_m, x], y> over m
    term4 = 0.5 * np.sum(uv * (c @ u @ v))
    term5 = 0.5 * np.sum(-uv * (c @ v @ u))
    return float(term1 - term2 - term3 - term4 - term5)


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


def additive_compound(C, p) -> np.ndarray:
    """The p-th additive compound C^[p] of the n x n matrix C on the
    lexicographic basis of Lambda^p R^n: the derivation
    v_1 ^ ... ^ v_p -> sum_k v_1 ^ ... ^ C v_k ^ ... ^ v_p.  Subsets are
    bitmasks; C[i, j] moves e_J to e_K, K = J - j + i, with the sign of
    sorting e_i into place past the elements of J strictly between i and
    j.  C^[0] is the 1 x 1 zero; for p < 0 or p > n the matrix is empty."""
    n = len(C)
    if not 0 <= p <= n:
        return np.zeros((0, 0))
    masks = np.array([sum(1 << i for i in J)
                      for J in itertools.combinations(range(n), p)])
    rank = np.zeros(1 << n, dtype=int)
    rank[masks] = np.arange(len(masks))
    popcount = np.array([bin(m).count("1") for m in range(1 << n)])
    out = np.zeros((len(masks), len(masks)))
    cols = np.arange(len(masks))
    for j in range(n):
        has_j = (masks >> j) & 1 == 1
        for i in range(n):
            J = cols[has_j & ((masks >> i) & 1 == 0)] if i != j \
                else cols[has_j]
            lo, hi = min(i, j), max(i, j)
            between = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
            sign = (-1.0) ** popcount[masks[J] & between]
            out[rank[masks[J] ^ (1 << j) ^ (1 << i)], J] += sign * C[i, j]
    return out


def solvable_spectra(C) -> list:
    """Ascending spectra of the Laplacians of ``solvable_algebra(C)``,
    n + 1 dimensional, for p = 0 .. n + 1: d_p carries the forms without
    the coform of Y onto those with it by +-(C^[p])^T and kills the rest,
    so spec Delta_p = sigma^2(C^[p]) u sigma^2(C^[p-1]), which has
    C(n + 1, p) entries."""
    n = len(C)
    sq = [np.linalg.svd(M, compute_uv=False) ** 2 if M.size else np.zeros(0)
          for M in (additive_compound(C, p) for p in range(-1, n + 2))]
    return [np.sort(np.concatenate((sq[p + 1], sq[p])))
            for p in range(n + 2)]


def direct_gram_eigenvalues(c, p) -> np.ndarray:
    """Ascending eigenvalues of G_p of each tensor of the stack ``c``
    (T, n, n, n), solved directly and member by member: d_p from the
    public ``exterior_derivative``, cut to the rows and columns that are
    nonzero in some member, its Gram matrix taken on the smaller side,
    with neither the Hodge mirror nor the middle-degree fold."""
    from collapse_spectra.lie_complex import (StructureConstants,
                                              exterior_derivative)

    return _member_gram_eigenvalues(np.stack(
        [exterior_derivative(StructureConstants(m), p) for m in c]))


def folded_gram_eigenvalues(c) -> np.ndarray:
    """Ascending eigenvalues of the Gram matrix of the Hodge fold
    E = d[J] + s_J d[J^c] of d = d_{n/2-1}, n = 0 (mod 4), of each tensor
    of the stack ``c``, formed from the assembled d of
    ``stacked_derivative`` and solved as :func:`direct_gram_eigenvalues`
    solves d."""
    from collapse_spectra.lie_complex import _hodge_star, stacked_derivative

    n = c.shape[1]
    d = stacked_derivative(c, n // 2 - 1)
    J, Jc, sign = _hodge_star(n)
    return _member_gram_eigenvalues(d[:, J] + sign[:, None] * d[:, Jc])


def _member_gram_eigenvalues(d) -> np.ndarray:
    """Gram eigenvalues of each member of the stack ``d`` (T, rows, cols)
    cut to the rows and columns nonzero in some member, one at a time."""
    rows, cols = (np.flatnonzero((d != 0).any(axis=axes))
                  for axes in ((0, 2), (0, 1)))
    vals = []
    for member in d:
        block = member[np.ix_(rows, cols)]
        vals.append(np.linalg.eigvalsh(block.T @ block
                                       if len(cols) <= len(rows)
                                       else block @ block.T))
    return np.array(vals).reshape(len(d), -1)


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
