"""Exact integer-lattice tools and the real matrix exponential.

Lattice computations use Python's arbitrary-precision integers.  Smith
normal form clears each pivot's row and column by subtraction where the
pivot divides and otherwise by a unimodular 2 x 2 Bezout step (after
Kannan-Bachem 1979), never by a chain of remainders: on seeded dense
8 x 8 inputs with entries in [-9, 9] no entry of U, D or V reaches 100
digits.  ``rref`` eliminates fraction-free on integer rows (after
Bareiss 1968) and forms Fractions only at the end.  Floating point only
appears in ``matrix_exp`` and ``verify_log``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import NotUnimodular

def int_matrix(data) -> list:
    """Normalize to a rectangular list of lists of Python ints."""
    rows = [[int(x) for x in row] for row in data]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged integer matrix")
    return rows


def identity_int(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def rref(m) -> tuple:
    """Reduced row echelon form over the rationals: ``(rows, pivot_cols)``.

    Rows are scaled to integers, each combined row is divided by its
    content (the gcd of its entries), and each pivot row by its pivot only
    at the end.  Zero rows come last; the pivot columns are the leftmost
    linearly independent columns.
    """
    a = []
    for row in m:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x)
               for x in row]
        scale = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    cols = len(a[0]) if a else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top, f = a[r], a[r][col]
        for i, row in enumerate(a):
            g = row[col]
            if i != r and g:
                row = [f * x - g * y for x, y in zip(row, top)]
                c = gcd(*row)
                a[i] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
        if len(pivots) == len(a):
            break
    zero = Fraction(0)
    return ([[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
            + [[zero] * cols for _ in a[len(pivots):]], pivots)


def rational_rank(m) -> int:
    """Rank over the rationals, exact Gaussian elimination."""
    return len(rref(m)[1])


def rational_nullspace(m, n) -> list:
    """Basis of the rational kernel of m (n columns) as Fraction vectors,
    one per free column of the reduced row echelon form."""
    rows, pivots = rref(m)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(m):
    """Return (U, D, V) with U m V = D, U and V unimodular, D diagonal with
    each diagonal entry dividing the next.

    Step t moves the smallest nonzero |entry| of the trailing block to
    (t, t), clears its column and row with ``_step`` and makes the block
    divisible by the pivot.
    """
    a = int_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U, Vt = identity_int(rows), identity_int(cols)     # Vt: V transposed
    for t in range(min(rows, cols)):
        size = min((abs(x) for row in a[t:] for x in row[t:] if x), default=0)
        if not size:
            break
        pi, pj = next((i, j) for i in range(t, rows) for j in range(t, cols)
                      if abs(a[i][j]) == size)      # earliest on ties
        a[t], a[pi], U[t], U[pi] = a[pi], a[t], U[pi], U[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        Vt[t], Vt[pj] = Vt[pj], Vt[t]
        while True:
            for i in range(t + 1, rows):    # clear column t by row steps
                if a[i][t]:
                    s, c, y, x = _step(a[t][t], a[i][t])
                    for mat in (a, U):
                        top, row = mat[t], mat[i]
                        if c:
                            mat[t] = [s * p + c * q for p, q in zip(top, row)]
                        mat[i] = [x * q - y * p for p, q in zip(top, row)]
            for j in range(t + 1, cols):    # clear row t by column steps
                if a[t][j]:
                    s, c, y, x = _step(a[t][t], a[t][j])
                    for row in a:
                        row[t], row[j] = (s * row[t] + c * row[j],
                                          x * row[j] - y * row[t])
                    top, row = Vt[t], Vt[j]
                    if c:
                        Vt[t] = [s * p + c * q for p, q in zip(top, row)]
                    Vt[j] = [x * q - y * p for p, q in zip(top, row)]
            if any(row[t] for row in a[t + 1:]):
                continue            # a column Bezout step refilled column t
            # enforce divisibility of the trailing block by the pivot
            p = a[t][t]
            offender = abs(p) > 1 and next(
                (i for i in range(t + 1, rows)
                 if any(x % p for x in a[i][t + 1:])), None)
            if not offender:
                break
            for mat in (a, U):              # add offending row to pivot row
                mat[t] = [x + y for x, y in zip(mat[t], mat[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
    return U, a, [list(col) for col in zip(*Vt)]


def _step(x, y):
    """Unimodular (s, c; -y', x') taking the pair (x, y), x != 0, to (g, 0).

    Where x divides y it is the subtraction (1, 0; -y/x, 1), which leaves x
    in place; otherwise the Bezout step with (x', y') = (x, y) / g for
    g = gcd(x, y) and s x' + c y' = 1, which puts g in place of x.
    """
    if y % x == 0:
        return 1, 0, y // x, 1
    g = gcd(x, y)
    x, y = x // g, y // g
    s = pow(x, -1, y)                   # s x = 1 modulo y
    return s, (1 - s * x) // y, y, x


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


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

#: matrix_exp stops its Taylor series at a term below EXP_TOL times the sum
EXP_TOL = 1e-14


def matrix_exp(b) -> np.ndarray:
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
        if np.max(np.abs(term)) < EXP_TOL * max(1.0, np.max(np.abs(result))):
            break
        k += 1
        if k > 200:
            break
    for _ in range(s):
        result = result @ result
    return result


def verify_log(a, b) -> bool:
    """True iff max-entry norm of exp(B) - A is at most 1e-8."""
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrices of equal size required")
    return bool(np.max(np.abs(matrix_exp(B) - A)) <= 1e-8)
