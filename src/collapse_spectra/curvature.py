"""Sectional curvature of left-invariant metrics.

The general evaluator uses the five-term formula for two invariant
fields U, V of a Lie group with orthonormal frame:

    K(U,V) = 1/4 |ad*_U V + ad*_V U|^2 - <ad*_U U, ad*_V V>
             - 3/4 |[U,V]|^2 - 1/2 <[[U,V],V],U> - 1/2 <[[V,U],U],V>

A closed form for the solvable family is provided alongside and is
cross-checked against the general formula in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import csv_text
from .errors import NotOrthonormal
from .lie_complex import StructureConstants

ORTHO_TOL = 1e-9


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
    """K(e_i, e_j) for unordered frame pairs."""

    n: int
    pairs: dict = field(repr=False)

    def k(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("sectional curvature needs two distinct directions")
        return self.pairs[(min(i, j), max(i, j))]

    @property
    def max_abs(self) -> float:
        return float(max(abs(v) for v in self.pairs.values())
                     if self.pairs else 0.0)

    def to_csv(self) -> str:
        return csv_text(["pair_i", "pair_j", "K"],
                        [[i + 1, j + 1, float(self.pairs[(i, j)])]
                         for (i, j) in sorted(self.pairs)])


def frame_curvature_table(L: StructureConstants) -> CurvatureTable:
    """Evaluate K on every frame pair; the sup over all 2-planes is never
    computed."""
    n = L.n
    eye = np.eye(n)
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(i, j)] = sectional_curvature(L, eye[i], eye[j])
    return CurvatureTable(n, pairs)


def solvable_pair_curvatures(C) -> np.ndarray:
    """K on the frame pairs of the (n+1)-dim solvable algebra with
    vertical bracket matrix C, or of each C in a stack (..., n, n), by the
    closed forms

        K(V_i, V_j) = 1/4 (c_ij + c_ji)^2 - c_ii c_jj
        K(Y, V_i)   = -sum_j c_ji^2 + 1/4 sum_j (c_ij - c_ji)^2

    Shape (..., n (n + 1) / 2): the pairs (V_i, V_j), i < j, in row
    order, then (V_i, Y).  Each K equals the one-matrix value bit for bit:
    the sums run along a contiguous last axis, as for one column.
    """
    C = np.asarray(C, dtype=float)
    Ct = np.ascontiguousarray(C.swapaxes(-1, -2))
    i, j = np.triu_indices(C.shape[-1], 1)
    diag = np.diagonal(C, axis1=-2, axis2=-1)
    # float_power squares through pow, as the closed form's scalar
    # x ** 2 does; an array's x ** 2 multiplies, which can differ by an ulp
    vertical = (0.25 * np.float_power(C[..., i, j] + C[..., j, i], 2.0)
                - diag[..., i] * diag[..., j])
    mixed = (-np.sum(Ct ** 2, axis=-1)
             + 0.25 * np.sum((C - Ct) ** 2, axis=-1))
    return np.concatenate([vertical, mixed], axis=-1)


def solvable_curvature_closed_form(C) -> CurvatureTable:
    """Curvature table of the (n+1)-dim solvable algebra with vertical
    bracket matrix C, from :func:`solvable_pair_curvatures`.

    Frame order is (V_1, ..., V_n, Y), so Y has index n.
    """
    n = np.shape(C)[0]
    keys = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys += [(i, n) for i in range(n)]
    values = solvable_pair_curvatures(C).tolist()
    return CurvatureTable(n + 1, dict(zip(keys, values)))


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
