"""Euler map of a principal torus bundle and the determinant bound chain.

The map e sends the dual Lie algebra of the fiber to harmonic 2-forms of
the base; its matrix is integral in the lattice basis.  The smallest
eigenvalue of e*e obeys

    lambda_1 >= Det(e*e) / |e*e|^{k-1} >= (Det e)^2 / |e|^{2k-2}

with the operator norm, and Det e factors as (Det' e) Vol(T^k), which is
the volume-squared lower bound mechanism for collapsing bundles.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .artifacts import csv_text
from .errors import InputRejected
from .flat_torus import FlatTorus, _shortest
from .intlat import det_int, int_matrix, smith_normal_form
from .torus_bundle import check_eps_grid, collapse_lambda

#: Largest relative residual |Det e - (Det' e) Vol(T^k)| / max(1, Det e)
#: that :func:`det_factorization` accepts.
FACTORIZATION_RTOL = 1e-10

#: Convention: ``gramG`` is the Gram matrix of the fiber metric on the
#: DUAL algebra in its lattice basis, so Vol(T^k) = det(gramG)^{-1/2}.
#: Worked example: a circle fiber of length s has dual generator of norm
#: 1/s, gramG = (1/s^2) and volT = s.


def _orthonormal_matrix(e_matrix, gram_g) -> tuple:
    """The matrix E L^-T of e in a gram-orthonormalized dual-algebra frame,
    with the Cholesky factor L of gramG; for one map or for a stack
    ``(..., m, k)`` of maps with their ``(..., k, k)`` Grams."""
    L = np.linalg.cholesky(np.asarray(gram_g, dtype=float))
    L_inv_t = np.linalg.inv(L).swapaxes(-1, -2)
    return np.asarray(e_matrix, dtype=float) @ L_inv_t, L


class BoundChainReport(NamedTuple):
    lam_min: float
    mid_bound: float          # Det(e*e) / |e*e|^{k-1}
    det_bound: float          # (Det e)^2 / |e|^{2k-2}


class DetFactorizationReport(NamedTuple):
    det_prime: float          # lattice-basis determinant of e
    vol_t: float              # fiber volume det(gramG)^{-1/2}
    det_e: float              # orthonormal-basis determinant
    residual: float           # |det_e - det_prime * vol_t| (relative)
    ok: bool                  # residual <= FACTORIZATION_RTOL


def _chain(E_on) -> list:
    """The BoundChainReport of each map of a stack ``(T, m, k)`` of Euler
    maps in orthonormalized frames (:func:`_orthonormal_matrix`), from
    one ``eigvalsh`` and one ``det`` of the stack of M = e*e; each map's
    report is bit for bit that of a stack of one.  ``mid_bound`` equals
    ``det_bound`` exactly, as (Det e)^2 = Det(e*e) and |e|^2 = |e*e|:
    they differ by rounding alone."""
    M = E_on.swapaxes(-1, -2) @ E_on
    k = M.shape[-1]
    vals = np.linalg.eigvalsh(M)
    reports = []
    for lam_min, lam_max, det_m in zip(vals[:, 0].tolist(),
                                       vals[:, -1].tolist(),
                                       np.linalg.det(M).tolist()):
        det_e = math.sqrt(max(det_m, 0.0))
        op_norm = math.sqrt(lam_max)
        mid = det_m / lam_max ** (k - 1) if k > 1 else det_m
        det_bound = det_e ** 2 / op_norm ** (2 * k - 2) if k > 1 else det_e ** 2
        reports.append(BoundChainReport(lam_min, mid, det_bound))
    return reports


def _factorization(E_on, L, gram_dets) -> list:
    """The DetFactorizationReport of each map of a stack of injective
    Euler maps in orthonormalized frames, with the Cholesky factors L of
    their Grams and their exact ``gram_det`` values, which are Det'^2.

    Each side is found its own way: Det' from the exact integer Gram,
    Vol(T^k) and Det e from triangular factors (one QR of the stack),
    since a determinant of E_on^T E_on squares E_on's conditioning.
    """
    # a product multiplies each diagonal in index order, stacked or not
    vol_ts = 1.0 / L.diagonal(0, -2, -1).prod(-1)
    det_es = np.abs(np.linalg.qr(E_on, mode="r").diagonal(0, -2, -1)).prod(-1)
    reports = []
    for vol_t, det_e, det in zip(vol_ts.tolist(), det_es.tolist(), gram_dets):
        det_prime = math.sqrt(det)
        residual = abs(det_e - det_prime * vol_t) / max(1.0, det_e)
        reports.append(DetFactorizationReport(det_prime, vol_t, det_e,
                                              residual,
                                              residual <= FACTORIZATION_RTOL))
    return reports


def chain_stack(e_stack, gram_stack, gram_dets) -> list:
    """``(BoundChainReport, DetFactorizationReport)`` of each map of a
    stack ``(T, m, k)`` of injective integral Euler maps of one shape,
    with their dual Grams ``(T, k, k)`` and their ``gram_det`` values:
    one Cholesky, inverse and ``E_on`` for the whole stack, then
    :func:`_chain` and :func:`_factorization`, which :func:`bound_chain`
    and :func:`det_factorization` call on a stack of one."""
    E_on, L = _orthonormal_matrix(e_stack, gram_stack)
    return list(zip(_chain(E_on), _factorization(E_on, L, gram_dets)))


def gram_det(e_matrix) -> int:
    """det(E^T E) of an integral Euler map E, exact by Bareiss
    elimination; it is zero exactly when E has a kernel, and otherwise
    it is (Det' e)^2."""
    Ex = np.array(int_matrix(e_matrix), dtype=object)
    return det_int((Ex.T @ Ex).tolist())


def _injective_gram_det(E) -> int:
    """gram_det of E; ValueError when it is zero."""
    det = gram_det(E)
    if det == 0:
        raise ValueError("Euler map has a kernel; use noninjective_reduce")
    return det


def bound_chain(e_matrix, gram_g) -> BoundChainReport:
    """The two-step determinant bound chain of an injective Euler map:
    :func:`_chain` on a stack of one.  A map whose gram_det is zero has a
    kernel and raises ValueError."""
    E = int_matrix(e_matrix)
    _injective_gram_det(E)
    return _chain(_orthonormal_matrix([E], [gram_g])[0])[0]


def det_factorization(e_matrix, gram_g) -> DetFactorizationReport:
    """Verify Det e = (Det' e) Vol(T^k) for an injective Euler map:
    :func:`_factorization` on a stack of one, with the same
    ValueError for a map with a kernel."""
    E = int_matrix(e_matrix)
    det = _injective_gram_det(E)
    return _factorization(*_orthonormal_matrix([E], [gram_g]), [det])[0]


class NonInjectiveReport(NamedTuple):
    kernel_basis: tuple            # integral lattice basis of ker e
    reduced_integral: tuple        # e on the complement, lattice basis
    quotient_volume: float         # volume of T^k / T^{k-l}
    restricted: BoundChainReport | None       # None for the zero map


def noninjective_reduce(e_matrix, gram_g) -> NonInjectiveReport:
    """Split off the integral kernel of e and bound e*e on its orthogonal
    complement.

    The kernel of an integral map is spanned by integral vectors; Smith
    reduction provides a primitive basis and a complementary sublattice.
    A zero map has no bound: ``restricted`` is None.
    """
    E = int_matrix(e_matrix)
    k = len(E[0])
    g = np.asarray(gram_g, dtype=float)
    _, d, v = smith_normal_form(E)
    rank = sum(1 for i in range(min(len(d), k)) if d[i][i] != 0)
    kernel_cols = [[v[i][j] for i in range(k)] for j in range(rank, k)]
    complement_cols = [[v[i][j] for i in range(k)] for j in range(rank)]
    Ef = np.asarray(E, dtype=float)
    reduced = [[int(sum(E[r][i] * complement_cols[j][i] for i in range(k)))
                for j in range(rank)] for r in range(len(E))]
    if rank == 0:
        return NonInjectiveReport(tuple(map(tuple, kernel_cols)), (),
                                  float("nan"), None)
    if rank == k:
        raise ValueError("Euler map is injective; use bound_chain directly")
    K = np.asarray(kernel_cols, dtype=float).T           # k x l
    gram_q = K.T @ g @ K
    quotient_volume = float(1.0 / math.sqrt(np.linalg.det(gram_q)))
    # gram-orthogonal complement of the kernel, orthonormalized: g K has
    # full column rank l, so the trailing columns of its complete QR span
    # the vectors x with K^T g x = 0
    null = np.linalg.qr(g @ K, mode="complete")[0][:, K.shape[1]:]
    E_on, _ = _orthonormal_matrix([Ef @ null], [null.T @ g @ null])
    return NonInjectiveReport(tuple(map(tuple, kernel_cols)),
                              tuple(map(tuple, reduced)), quotient_volume,
                              _chain(E_on)[0])


# ---------------------------------------------------------------------------
# minimal norm of integral harmonic 2-forms on a flat base
# ---------------------------------------------------------------------------

class RhoReport(NamedTuple):
    rho: float
    #: integer coefficients of the minimizer in the dx_i ^ dx_j basis,
    #: over the pairs i < j in lexicographic order
    attaining: tuple


def rho_flat(base: FlatTorus) -> RhoReport:
    """Minimal L^2 norm of a nonzero integral constant-coefficient 2-form.

    The squared norm of sum c_I dx_I is c^T Gram2 c times the volume,
    where Gram2 is built from 2x2 minors of the inverse Gram: a shortest
    vector problem, solved by the dual-lattice search.
    """
    m = base.k
    if m > 4:
        raise ValueError("rho enumeration supports dim <= 4")
    if m < 2:
        raise ValueError("need at least two dimensions for 2-forms")
    qinv = base.dual_quadratic()
    pairs = list(itertools.combinations(range(m), 2))
    dim = len(pairs)
    gram2 = np.zeros((dim, dim))
    for a, (i1, i2) in enumerate(pairs):
        for b, (j1, j2) in enumerate(pairs):
            gram2[a, b] = qinv[i1, j1] * qinv[i2, j2] \
                - qinv[i1, j2] * qinv[i2, j1]
    norm2, attaining = _shortest(gram2 * base.volume)
    return RhoReport(math.sqrt(norm2), attaining)


# ---------------------------------------------------------------------------
# volume lower-bound experiment on torus bundles over T^2
# ---------------------------------------------------------------------------

class VolBoundRow(NamedTuple):
    eps: float
    lam: float
    vol: float
    ratio: float


class VolBoundReport(NamedTuple):
    rows: tuple
    min_ratio: float
    #: min(min_ratio - ratio_0 (1 - 1e-9), min_ratio), with ratio_0 the
    #: ratio at the largest eps: negative exactly when some ratio drops
    #: below ratio_0 (1 - 1e-9) or below 0
    margin: float

    def to_csv(self) -> str:
        return csv_text(["eps", "lambda", "vol", "ratio"],
                        [[r.eps, r.lam, r.vol, r.ratio] for r in self.rows])


def vol_bound_experiment(bundle, alpha, eps_grid) -> VolBoundReport:
    """Track lambda / Vol(T^k)^2 along a scaling collapse of the bundle.

    lambda is the unique nonzero invariant eigenvalue |V_eps|^2 and the
    fiber volume scales as prod eps^{alpha_i}; the ratio never drops
    below its value at the largest grid point.  A trivial bundle has
    lambda = 0 and raises ValueError, and so does a grid point whose
    lambda is not finite, naming alpha and eps; one whose vol^2 is not a
    normal float rejects eps_grid, naming alpha and eps.
    """
    if bundle.trivial:
        raise ValueError("zero obstruction vector: lambda vanishes, so "
                         "there is no ratio to bound")
    b0 = [float(x) for x in bundle.a]
    alpha = [float(x) for x in alpha]
    if len(alpha) != len(b0):
        raise ValueError("alpha length must equal the fiber dimension")
    rows = []
    for eps in sorted(check_eps_grid(eps_grid), reverse=True):
        lam = collapse_lambda(eps, alpha, b0, f"alpha = {alpha!r}")
        vol = 1.0
        for a in alpha:
            vol *= eps ** a
        vol_sq = vol ** 2
        if not np.finfo(float).tiny <= vol_sq < math.inf:
            raise InputRejected("eps_grid", (
                f"alpha = {alpha!r}: eps = {eps!r} puts the divisor vol^2 = "
                f"{vol_sq!r} outside the normal floats"))
        rows.append(VolBoundRow(float(eps), float(lam), float(vol),
                                float(lam / vol_sq)))
    min_ratio = min(r.ratio for r in rows)
    floor = rows[0].ratio * (1.0 - 1e-9)
    return VolBoundReport(tuple(rows), min_ratio,
                          min(min_ratio - floor, min_ratio))
