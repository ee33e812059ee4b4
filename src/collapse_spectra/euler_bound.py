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
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import csv_text
from .errors import NotInjective
from .flat_torus import FlatTorus, _shortest
from .intlat import det_int, int_matrix, rational_rank, smith_normal_form

#: Convention: ``gramG`` is the Gram matrix of the fiber metric on the
#: DUAL algebra in its lattice basis, so Vol(T^k) = det(gramG)^{-1/2}.
#: Worked example: a circle fiber of length s has dual generator of norm
#: 1/s, gramG = (1/s^2) and volT = s.


@dataclass(frozen=True)
class EulerMap:
    """Integral matrix of e (rows: orthonormal harmonic 2-forms of the
    base; columns: lattice basis of the dual fiber algebra) plus the SPD
    Gram of the dual-algebra metric."""

    e_matrix: tuple
    gram_g: np.ndarray

    def __post_init__(self):
        E = int_matrix(self.e_matrix)
        g = np.asarray(self.gram_g, dtype=float)
        k = len(E[0]) if E else 0
        if g.shape != (k, k):
            raise ValueError("gramG shape must match the number of columns")
        np.linalg.cholesky(g)
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        object.__setattr__(self, "e_matrix", tuple(tuple(r) for r in E))
        object.__setattr__(self, "gram_g", g)

    @property
    def k(self) -> int:
        return len(self.e_matrix[0]) if self.e_matrix else 0

    @property
    def vol_t(self) -> float:
        return float(1.0 / math.sqrt(np.linalg.det(self.gram_g)))


def _orthonormal_matrix(e_matrix, gram_g) -> np.ndarray:
    """Matrix of e in a gram-orthonormalized dual-algebra frame."""
    E = np.asarray(e_matrix, dtype=float)
    L = np.linalg.cholesky(np.asarray(gram_g, dtype=float))
    return E @ np.linalg.inv(L).T


def ee_star(e_matrix, gram_g) -> np.ndarray:
    """Symmetric PSD matrix of e*e in the orthonormalized dual frame."""
    E_on = _orthonormal_matrix(e_matrix, gram_g)
    return E_on.T @ E_on


@dataclass(frozen=True)
class BoundChainReport:
    lam_min: float
    mid_bound: float          # Det(e*e) / |e*e|^{k-1}
    det_bound: float          # (Det e)^2 / |e|^{2k-2}
    det_e: float
    op_norm: float
    ok: bool


def _chain(M: np.ndarray) -> BoundChainReport:
    """The bound chain of the PSD k x k matrix M = e*e; ``ok`` asks all
    three inequalities."""
    k = M.shape[0]
    vals = np.linalg.eigvalsh(M)
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    det_m = float(np.linalg.det(M))
    det_e = math.sqrt(max(det_m, 0.0))
    op_norm = math.sqrt(lam_max)
    mid = det_m / lam_max ** (k - 1) if k > 1 else det_m
    det_bound = det_e ** 2 / op_norm ** (2 * k - 2) if k > 1 else det_e ** 2
    ok = (lam_min >= mid - 1e-10 and mid >= det_bound - 1e-10
          and lam_min >= det_bound - 1e-10)
    return BoundChainReport(lam_min, mid, det_bound, det_e, op_norm, ok)


def bound_chain(e_matrix, gram_g) -> BoundChainReport:
    """Check the two-step determinant bound for an injective Euler map."""
    E = int_matrix(e_matrix)
    if rational_rank(E) < len(E[0]):
        raise NotInjective("Euler map has a kernel; use noninjective_reduce")
    return _chain(ee_star(E, gram_g))


@dataclass(frozen=True)
class DetFactorizationReport:
    det_prime: float          # lattice-basis determinant of e
    vol_t: float              # fiber volume det(gramG)^{-1/2}
    det_e: float              # orthonormal-basis determinant
    residual: float           # |det_e - det_prime * vol_t| (relative)
    ok: bool


def det_factorization(e_matrix, gram_g) -> DetFactorizationReport:
    """Verify Det e = (Det' e) Vol(T^k) for an injective Euler map."""
    E = int_matrix(e_matrix)
    # Det' exact from the integer Gram, which is singular exactly when e
    # has a kernel; the others from triangular factors, since a
    # determinant of E_on^T E_on squares E_on's conditioning
    Ex = np.array(E, dtype=object)
    gram_det = det_int((Ex.T @ Ex).tolist())
    if gram_det == 0:
        raise NotInjective("Euler map has a kernel; use noninjective_reduce")
    det_prime = math.sqrt(gram_det)
    L = np.linalg.cholesky(np.asarray(gram_g, dtype=float))
    vol_t = float(1.0 / np.prod(np.diag(L)))
    R = np.linalg.qr(_orthonormal_matrix(E, gram_g), mode="r")
    det_e = float(np.prod(np.abs(np.diag(R))))
    residual = abs(det_e - det_prime * vol_t) / max(1.0, det_e)
    return DetFactorizationReport(det_prime, vol_t, det_e, residual,
                                  residual <= 1e-10)


@dataclass(frozen=True)
class NonInjectiveReport:
    kernel_basis: tuple            # integral lattice basis of ker e
    complement_basis: tuple        # integral complement in the lattice
    reduced_integral: tuple        # e on the complement, lattice basis
    quotient_volume: float         # volume of T^k / T^{k-l}
    restricted: BoundChainReport | None
    trivial: bool


def noninjective_reduce(e_matrix, gram_g) -> NonInjectiveReport:
    """Split off the integral kernel of e and bound e*e on its orthogonal
    complement.

    The kernel of an integral map is spanned by integral vectors; Smith
    reduction provides a primitive basis and a complementary sublattice.
    A zero map is flagged trivial (no bound available).
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
                                  (), float("nan"), None, True)
    if rank == k:
        raise ValueError("Euler map is injective; use bound_chain directly")
    K = np.asarray(kernel_cols, dtype=float).T           # k x l
    gram_q = K.T @ g @ K
    quotient_volume = float(1.0 / math.sqrt(np.linalg.det(gram_q)))
    # gram-orthogonal complement of the kernel, orthonormalized; K^T g
    # has full row rank l, so its kernel is all but the first l rows of V^T
    null = np.linalg.svd(K.T @ g)[2][K.shape[1]:].T
    m_gram = null.T @ g @ null
    r = np.linalg.cholesky(m_gram)
    W = null @ np.linalg.inv(r).T
    A_on = Ef @ W
    chain = _chain(A_on.T @ A_on)
    # only the end-to-end inequality is asked of the restricted map
    restricted = replace(chain, ok=chain.lam_min >= chain.det_bound - 1e-10)
    return NonInjectiveReport(tuple(map(tuple, kernel_cols)),
                              tuple(map(tuple, complement_cols)),
                              tuple(map(tuple, reduced)),
                              quotient_volume, restricted, False)


# ---------------------------------------------------------------------------
# minimal norm of integral harmonic 2-forms on a flat base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoReport:
    rho: float
    attaining: tuple              # integer coefficients in the dx_i ^ dx_j basis
    pairs: tuple                  # index pairs labelling the coefficients


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
    return RhoReport(math.sqrt(norm2), attaining, tuple(pairs))


# ---------------------------------------------------------------------------
# volume lower-bound experiment on torus bundles over T^2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolBoundRow:
    eps: float
    lam: float
    vol: float
    ratio: float


@dataclass(frozen=True)
class VolBoundReport:
    rows: tuple
    min_ratio: float
    ok: bool
    margin: float          # negative when not ok (unless every ratio is 0)

    def to_csv(self) -> str:
        return csv_text(["eps", "lambda", "vol", "ratio"],
                        [[r.eps, r.lam, r.vol, r.ratio] for r in self.rows])


def vol_bound_experiment(bundle, alpha, eps_grid) -> VolBoundReport:
    """Track lambda / Vol(T^k)^2 along a scaling collapse of the bundle.

    lambda is the unique nonzero invariant eigenvalue |V_eps|^2 and the
    fiber volume scales as prod eps^{alpha_i}; the ratio never drops
    below its value at the largest grid point.
    """
    b0 = [float(x) for x in bundle.a]
    alpha = [float(x) for x in alpha]
    if len(alpha) != len(b0):
        raise ValueError("alpha length must equal the fiber dimension")
    rows = []
    for eps in sorted(eps_grid, reverse=True):
        if not (0.0 < eps <= 1.0):
            raise ValueError("eps grid must lie in (0, 1]")
        lam = sum((eps ** a * x) ** 2 for a, x in zip(alpha, b0))
        vol = 1.0
        for a in alpha:
            vol *= eps ** a
        rows.append(VolBoundRow(float(eps), float(lam), float(vol),
                                float(lam / vol ** 2)))
    min_ratio = min(r.ratio for r in rows)
    floor = rows[0].ratio * (1.0 - 1e-9)
    ok = min_ratio >= floor and min_ratio > 0.0
    return VolBoundReport(tuple(rows), min_ratio, ok,
                          min(min_ratio - floor, min_ratio))
