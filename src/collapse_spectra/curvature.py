"""Sectional curvature of left-invariant metrics.

The general evaluator uses the five-term formula for two invariant
fields U, V of a Lie group with orthonormal frame:

    K(U,V) = 1/4 |ad*_U V + ad*_V U|^2 - <ad*_U U, ad*_V V>
             - 3/4 |[U,V]|^2 - 1/2 <[[U,V],V],U> - 1/2 <[[V,U],U],V>

Closed forms for the two bundle families are provided alongside and are
cross-checked against the general formula in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import csv_text
from .errors import NotOrthonormal
from .lie_complex import StructureConstants

ORTHO_TOL = 1e-9


def ad_star(L: StructureConstants, u) -> np.ndarray:
    """Matrix of ad*_u, the metric adjoint of ad_u.

    In an orthonormal frame this is the transpose:
    <ad*_u v, w> = <v, [u, w]>.  ``u`` may be a frame index or a
    coefficient vector.
    """
    if np.isscalar(u) and not isinstance(u, (float, np.floating)):
        return L.ad(int(u)).T.copy()
    return L.ad_vector(u).T.copy()


def _coeffs(L: StructureConstants, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (L.n,):
        raise ValueError(f"expected coefficient vector of length {L.n}")
    return u


def sectional_curvature(L: StructureConstants, u, v) -> float:
    """K(u, v) for orthonormal coefficient vectors u, v."""
    u = _coeffs(L, u)
    v = _coeffs(L, v)
    if abs(u @ u - 1.0) > ORTHO_TOL or abs(v @ v - 1.0) > ORTHO_TOL:
        raise NotOrthonormal("u and v must be unit vectors")
    if abs(u @ v) > ORTHO_TOL:
        raise NotOrthonormal("u and v must be orthogonal")
    ad_u = L.ad_vector(u)
    ad_v = L.ad_vector(v)
    ad_u_star = ad_u.T
    ad_v_star = ad_v.T
    uv = ad_u @ v            # [u, v]
    term1 = 0.25 * np.sum((ad_u_star @ v + ad_v_star @ u) ** 2)
    term2 = (ad_u_star @ u) @ (ad_v_star @ v)
    term3 = 0.75 * np.sum(uv ** 2)
    term4 = 0.5 * ((L.ad_vector(uv) @ v) @ u)
    term5 = 0.5 * ((L.ad_vector(-uv) @ u) @ v)
    return float(term1 - term2 - term3 - term4 - term5)


@dataclass(frozen=True)
class CurvatureTable:
    """K(e_i, e_j) for unordered frame pairs, plus an optional sampled max
    over random orthonormal 2-planes."""

    n: int
    pairs: dict = field(repr=False)
    sampled_max: float | None = None

    def k(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("sectional curvature needs two distinct directions")
        return self.pairs[(min(i, j), max(i, j))]

    @property
    def max_abs(self) -> float:
        frame = max(abs(v) for v in self.pairs.values()) if self.pairs else 0.0
        if self.sampled_max is not None:
            frame = max(frame, self.sampled_max)
        return float(frame)

    def to_csv(self) -> str:
        return csv_text(["pair_i", "pair_j", "K"],
                        [[i + 1, j + 1, float(self.pairs[(i, j)])]
                         for (i, j) in sorted(self.pairs)])


def frame_curvature_table(L: StructureConstants, samples: int = 0,
                          seed: int = 0) -> CurvatureTable:
    """Evaluate K on every frame pair, optionally sampling random 2-planes.

    The sampled maximum uses ``samples`` seeded random orthonormal pairs;
    the sup over all 2-planes is never computed exactly.
    """
    n = L.n
    eye = np.eye(n)
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(i, j)] = sectional_curvature(L, eye[i], eye[j])
    sampled = None
    if samples > 0:
        rng = np.random.default_rng(seed)
        sampled = 0.0
        for _ in range(samples):
            m = rng.standard_normal((n, 2))
            q, _ = np.linalg.qr(m)
            sampled = max(sampled, abs(sectional_curvature(L, q[:, 0], q[:, 1])))
    return CurvatureTable(n, pairs, sampled)


def solvable_curvature_closed_form(C) -> CurvatureTable:
    """Curvature table of the (n+1)-dim solvable algebra with vertical
    bracket matrix C, using the closed forms

        K(Y, V_i)   = -sum_j c_ji^2 + 1/4 sum_j (c_ij - c_ji)^2
        K(V_i, V_j) = 1/4 (c_ij + c_ji)^2 - c_ii c_jj

    Frame order is (V_1, ..., V_n, Y), so Y has index n.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(i, j)] = float(0.25 * (C[i, j] + C[j, i]) ** 2
                                  - C[i, i] * C[j, j])
    for i in range(n):
        pairs[(i, n)] = float(-np.sum(C[:, i] ** 2)
                              + 0.25 * np.sum((C[i, :] - C[:, i]) ** 2))
    return CurvatureTable(n + 1, pairs)


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


def kappa_invariant(C) -> float:
    """sum_ij (c_ii c_jj - c_ij c_ji): the frame-independent coefficient of
    the characteristic polynomial (twice the second elementary symmetric
    function of the eigenvalues)."""
    C = np.asarray(C, dtype=float)
    return float(np.trace(C) ** 2 - np.trace(C @ C))


@dataclass(frozen=True)
class TraceBoundsReport:
    trace: float
    kappa: float
    upper_margin: float   # (n^2+n) a + kappa - Tr(C^T C)
    lower_margin: float   # 2 Tr(C^T C) - max |K|
    ok: bool


def trace_bounds_check(C, a: float) -> TraceBoundsReport:
    """Check Tr(C^T C) <= (n^2+n) a + kappa and max|K| <= 2 Tr(C^T C).

    ``a`` should be the max frame-pair |K| of the associated solvable
    algebra.  The second inequality is the explicit surrogate for the
    non-constructive lower-bound constant (it follows from the closed
    forms by Cauchy-Schwarz).
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    tr = float(np.sum(C * C))
    kappa = kappa_invariant(C)
    table = solvable_curvature_closed_form(C)
    upper = (n * n + n) * a + kappa - tr
    lower = 2.0 * tr - table.max_abs
    return TraceBoundsReport(tr, kappa, upper, lower,
                             upper >= -1e-10 and lower >= -1e-10)


def oneill_defect(L: StructureConstants, horizontal) -> float:
    """Max over horizontal frame pairs of the O'Neill defect
    |K_N - K_M - 3/4 |[X,Y]^V|^2| over a flat base, where K_N = 0 leaves
    |K_M + 3/4 |[X,Y]^V|^2|.

    ``horizontal`` lists the frame indices spanning the horizontal space.
    """
    horizontal = list(horizontal)
    vertical = [i for i in range(L.n) if i not in horizontal]
    eye = np.eye(L.n)
    worst = 0.0
    for a in range(len(horizontal)):
        for b in range(a + 1, len(horizontal)):
            i, j = horizontal[a], horizontal[b]
            k_m = sectional_curvature(L, eye[i], eye[j])
            bracket = L.ad_vector(eye[i]) @ eye[j]
            vert_sq = float(np.sum(bracket[vertical] ** 2))
            worst = max(worst, abs(k_m + 0.75 * vert_sq))
    return worst


@dataclass(frozen=True)
class OneillFormBoundReport:
    pointwise_margin: float
    global_margin: float
    ok: bool


def oneill_form_bound_check(L: StructureConstants, horizontal,
                            a: float) -> OneillFormBoundReport:
    """For each vertical generator w = V_i^flat check
    |dw(X,Y)|^2 <= (8a/3) |w|^2 on horizontal frame pairs and
    |dw|^2 <= (4 a n (n-1) / 3) |w|^2.

    Homogeneity makes pointwise and sup norms coincide, so the check is a
    finite enumeration.  ``a`` must bound the frame |K|.
    """
    from .lie_complex import exterior_derivative, FormBasis

    horizontal = list(horizontal)
    vertical = [i for i in range(L.n) if i not in horizontal]
    n = L.n
    d1 = exterior_derivative(L, 1)
    basis2 = FormBasis(n, 2)
    pw_margin = np.inf
    gl_margin = np.inf
    for v_idx in vertical:
        col = d1[:, v_idx]
        # |w| = 1 in the orthonormal frame
        for a_i in range(len(horizontal)):
            for b_i in range(a_i + 1, len(horizontal)):
                i, j = sorted((horizontal[a_i], horizontal[b_i]))
                val = col[basis2.rank[(i, j)]] ** 2
                pw_margin = min(pw_margin, 8.0 * a / 3.0 - val)
        gl_margin = min(gl_margin, 4.0 * a * n * (n - 1) / 3.0 - float(col @ col))
    if not vertical:
        pw_margin = gl_margin = 0.0
    if pw_margin is np.inf:
        pw_margin = 8.0 * a / 3.0
    return OneillFormBoundReport(float(pw_margin), float(gl_margin),
                                 pw_margin >= -1e-12 and gl_margin >= -1e-12)
