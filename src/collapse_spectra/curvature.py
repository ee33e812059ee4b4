"""Sectional curvature of left-invariant metrics on frame pairs.

For fields U, V of an orthonormal invariant frame, the five-term formula
for left-invariant metrics (Milnor 1976)

    K(U,V) = 1/4 |ad*_U V + ad*_V U|^2 - <ad*_U U, ad*_V V>
             - 3/4 |[U,V]|^2 - 1/2 <[[U,V],V],U> - 1/2 <[[V,U],U],V>

is read off the structure tensor: ad*_{e_i} e_j = c[i, :, j] and
[e_i, e_j] = c[i, j].  No check needs K on any other plane.  The closed
form of the solvable family is cross-checked against it in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .artifacts import csv_text
from .lie_complex import StructureConstants


def frame_curvatures(c) -> np.ndarray:
    """K(e_i, e_j) of the tensor ``c`` (n, n, n) for every frame pair, as
    an (n, n) array whose diagonal no caller reads.  Each inner product
    sums elementwise products along a contiguous last axis, so each entry
    has the bits of the formula evaluated for one pair of vectors."""
    c = np.asarray(c, dtype=float)
    star = np.ascontiguousarray(c.transpose(0, 2, 1))   # ad*_{e_i} e_j
    own = np.ascontiguousarray(np.diagonal(star).T)     # ad*_{e_i} e_i
    term1 = 0.25 * np.sum((star + star.transpose(1, 0, 2)) ** 2, axis=-1)
    term2 = np.sum(own[:, None] * own[None], axis=-1)
    term3 = 0.75 * np.sum(c ** 2, axis=-1)
    # <[[e_i, e_j], e_j], e_i> = sum_m c[i, j, m] c[m, j, i]; term5 alike
    term4 = 0.5 * np.sum(c * np.ascontiguousarray(c.transpose(2, 1, 0)),
                         axis=-1)
    term5 = 0.5 * np.sum(-c * np.ascontiguousarray(c.transpose(1, 2, 0)),
                         axis=-1)
    return term1 - term2 - term3 - term4 - term5


class CurvatureTable(NamedTuple):
    """K(e_i, e_j) for unordered frame pairs."""

    pairs: dict

    def k(self, i: int, j: int) -> float:
        return self.pairs[(min(i, j), max(i, j))]

    @property
    def max_abs(self) -> float:
        return max(map(abs, self.pairs.values()), default=0.0)

    def to_csv(self) -> str:
        return csv_text(["pair_i", "pair_j", "K"],
                        [[i + 1, j + 1, float(self.pairs[(i, j)])]
                         for (i, j) in sorted(self.pairs)])


def frame_curvature_table(L: StructureConstants) -> CurvatureTable:
    """K on every frame pair from :func:`frame_curvatures`; the sup over
    all 2-planes is never computed."""
    i, j = np.triu_indices(L.n, 1)
    values = frame_curvatures(L.c)[i, j].tolist()
    return CurvatureTable(dict(zip(zip(i.tolist(), j.tolist()), values)))


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
    return CurvatureTable(dict(zip(keys, values)))


def oneill_defect(L: StructureConstants, horizontal) -> float:
    """Max over horizontal frame pairs of the O'Neill defect
    |K_N - K_M - 3/4 |[X,Y]^V|^2| over a flat base, where K_N = 0 leaves
    |K_M + 3/4 |[X,Y]^V|^2|.

    ``horizontal`` lists the frame indices spanning the horizontal space.
    """
    h = list(horizontal)
    vertical = [i for i in range(L.n) if i not in h]
    vert_sq = np.sum(L.c[np.ix_(h, h, vertical)] ** 2, axis=-1)
    defect = np.abs(frame_curvatures(L.c)[np.ix_(h, h)] + 0.75 * vert_sq)
    return float(defect[np.triu_indices(len(h), 1)].max(initial=0.0))
