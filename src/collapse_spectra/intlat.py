"""Exact integer-lattice tools and real matrix exponential/logarithm.

All lattice computations use Python's arbitrary-precision integers, so
Smith normal form never overflows.  Floating point only appears in the
exponential and logarithm helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np
import scipy.linalg

from .errors import BranchUnavailable, NotUnimodular, ZeroVector

IntMatrix = list  # list of rows of ints


def int_matrix(data) -> list:
    """Normalize to a rectangular list of lists of Python ints."""
    rows = [[int(x) for x in row] for row in data]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged integer matrix")
    return rows


def identity_int(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul_int(a, b) -> list:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError("shape mismatch")
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def det_int(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_rank(m) -> int:
    """Rank over the rationals, exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pr = a[rank]
        for i in range(rows):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / pr[col]
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        rank += 1
        if rank == rows:
            break
    return rank


def unimodular_inverse(u) -> list:
    """Exact inverse of a unimodular integer matrix (integer entries)."""
    n = len(u)
    d = det_int(u)
    if d not in (1, -1):
        raise NotUnimodular(f"determinant {d}, expected +-1")
    a = [[Fraction(x) for x in row] for row in u]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        inv[col] = [x / f for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                g = a[i][col]
                a[i] = [x - g * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - g * y for x, y in zip(inv[i], inv[col])]
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _find_pivot(a, t, rows, cols):
    """Smallest-absolute-value nonzero entry in the trailing block,
    earliest position on ties (deterministic)."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return best


def smith_normal_form(m):
    """Return (U, D, V) with U m V = D, U and V unimodular, D diagonal with
    each diagonal entry dividing the next.  Exact integer arithmetic."""
    a = [row[:] for row in int_matrix(m)]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = identity_int(rows)
    V = identity_int(cols)

    def row_op(i, j, f):        # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        U[i] = [x - f * y for x, y in zip(U[i], U[j])]

    def col_op(i, j, f):        # col_i -= f * col_j
        for r in range(rows):
            a[r][i] -= f * a[r][j]
        for r in range(cols):
            V[r][i] -= f * V[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(rows, cols):
        best = _find_pivot(a, t, rows, cols)
        if best is None:
            break
        _, pi, pj = best
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            reduced = True
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:       # remainder becomes the new pivot
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # enforce divisibility of the trailing block by the pivot
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)        # add offending row to pivot row
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, a, V


def invariant_factors(d) -> list:
    """Diagonal of a Smith form, zeros dropped from the tail kept as zeros."""
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


# ---------------------------------------------------------------------------
# mapping-torus first Betti number
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianizationReport:
    """Abelianized fundamental group of the suspension of A: Z^{k+1} x H."""

    free_rank: int                 # k, the free rank of coker(A - I)
    torsion: tuple                 # invariant factors > 1 of A - I
    b1: int                        # k + 1


def betti1_mapping_torus(a_matrix) -> AbelianizationReport:
    """b_1 of the suspension of A in SL_n(Z): 1 + dim ker(A - I), with the
    torsion of the abelianization read off the Smith form of A - I."""
    A = int_matrix(a_matrix)
    n = len(A)
    if det_int(A) != 1:
        raise NotUnimodular("matrix must lie in SL_n(Z)")
    m = [[A[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    _, d, _ = smith_normal_form(m)
    factors = invariant_factors(d)
    zeros = sum(1 for f in factors if f == 0) + (n - len(factors))
    torsion = tuple(f for f in factors if f > 1)
    return AbelianizationReport(zeros, torsion, zeros + 1)


def gcd_completion(vec):
    """(d, P): d = gcd of the entries, P unimodular with first column vec/d."""
    v = [int(x) for x in vec]
    if not v or all(x == 0 for x in v):
        raise ZeroVector("gcd completion needs a nonzero vector")
    n = len(v)
    column = [[x] for x in v]
    u, d_mat, v_mat = smith_normal_form(column)
    d = d_mat[0][0]
    # u * column * v = (d, 0, ..., 0)^T  =>  column = u^{-1} diag * v^{-1}
    u_inv = unimodular_inverse(u)
    sign = v_mat[0][0]          # +-1
    P = [row[:] for row in u_inv]
    for i in range(n):
        P[i][0] *= sign
    assert [P[i][0] * d for i in range(n)] == v
    return d, P


def vector_gcd(vec) -> int:
    g = 0
    for x in vec:
        g = gcd(g, int(x))
    return g


# ---------------------------------------------------------------------------
# matrix exponential / logarithm
# ---------------------------------------------------------------------------

def matrix_exp(b, tol: float = 1e-14) -> np.ndarray:
    """exp(B) by scaling and squaring with a truncated Taylor series."""
    B = np.asarray(b, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("square matrix required")
    n = B.shape[0]
    norm = np.max(np.abs(B)) * n if n else 0.0
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    T = B / (2.0 ** s)
    result = np.eye(n)
    term = np.eye(n)
    k = 1
    while True:
        term = term @ T / k
        result = result + term
        if np.max(np.abs(term)) < tol * max(1.0, np.max(np.abs(result))):
            break
        k += 1
        if k > 200:
            break
    for _ in range(s):
        result = result @ result
    return result


def principal_log(a, tol: float = 1e-10) -> np.ndarray:
    """Principal real logarithm of A; raises BranchUnavailable when an
    eigenvalue lies on the closed negative real axis."""
    A = np.asarray(a, dtype=float)
    eigs = np.linalg.eigvals(A)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    for lam in eigs:
        if lam.real <= 0 and abs(lam.imag) <= 1e-12 * scale:
            raise BranchUnavailable(
                f"eigenvalue {lam} on the closed negative real axis")
    B = scipy.linalg.logm(A)
    B = np.asarray(B)
    if np.iscomplexobj(B) and np.max(np.abs(B.imag)) > 1e-8:
        raise BranchUnavailable("logarithm is not real")
    B = B.real
    if not verify_log(A, B, tol * max(1.0, float(np.max(np.abs(A))))):
        raise ArithmeticError("logm round trip failed the tolerance")
    return B


def verify_log(a, b, tol: float = 1e-8) -> bool:
    """True iff max-entry norm of exp(B) - A is at most tol."""
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrices of equal size required")
    return bool(np.max(np.abs(matrix_exp(B) - A)) <= tol)


# ---------------------------------------------------------------------------
# whitespace text I/O
# ---------------------------------------------------------------------------

def dumps_int_matrix(m) -> str:
    m = int_matrix(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    lines = [f"{rows} {cols}"]
    lines += [" ".join(str(x) for x in row) for row in m]
    return "\n".join(lines) + "\n"


def loads_int_matrix(text: str) -> list:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("missing 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
    it = iter(body)
    return [[int(next(it)) for _ in range(cols)] for _ in range(rows)]
