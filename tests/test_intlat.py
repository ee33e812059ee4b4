import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_spectra as cs
from collapse_spectra.intlat import (det_int, rational_nullspace,
                                     rational_rank, rref)
from oracles import int_product


def _check_snf(m):
    U, D, V = cs.smith_normal_form(m)
    assert int_product(int_product(U, m), V) == D
    assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    nonzero = [x for x in diag if x != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_snf_zero():
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]


def test_snf_shear_minus_identity():
    assert _check_snf([[0, 1], [0, 0]]) == [1, 0]


def test_snf_anosov_minus_identity():
    assert _check_snf([[1, 1], [1, 0]]) == [1, 1]


def test_snf_rank_matches():
    rng = np.random.default_rng(41)
    for _ in range(30):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        m = [[int(x) for x in rng.integers(-6, 7, cols)] for _ in range(rows)]
        diag = _check_snf(m)
        assert sum(1 for x in diag if x != 0) == rational_rank(m)


matrix_strategy = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_snf_property(m):
    _check_snf(m)


def _determinantal_divisors(m):
    """D_k = gcd of the k x k minors, k = 1 .. min(rows, cols)."""
    rows, cols = len(m), len(m[0])
    divisors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, det_int([[m[i][j] for j in ci] for i in ri]))
        divisors.append(g)
    return divisors


def test_snf_determinantal_divisor_oracle():
    # invariant factors are D_k / D_{k-1} (and 0 once D_k = 0); the scaled
    # and low-rank products give factors other than 1 and det
    rng = np.random.default_rng(59)
    shapes = [(4, 4), (5, 5), (3, 5), (5, 3), (4, 6), (6, 4)]
    for trial in range(36):
        rows, cols = shapes[trial % len(shapes)]
        if trial % 3 == 0:
            m = rng.integers(-9, 10, (rows, cols))
        elif trial % 3 == 1:
            m = 6 * rng.integers(-3, 4, (rows, cols))
        else:
            r = int(rng.integers(1, min(rows, cols)))
            m = rng.integers(-3, 4, (rows, r)) @ rng.integers(-3, 4, (r, cols))
        m = m.tolist()
        divisors = [1] + _determinantal_divisors(m)
        expected = [b // a if a else 0 for a, b in zip(divisors, divisors[1:])]
        assert _check_snf(m) == expected


def test_snf_8x8_stays_small(time_limit):
    rng = np.random.default_rng(61)
    for _ in range(4):
        m = rng.integers(-9, 10, (8, 8)).tolist()
        with time_limit(1.0, "8 x 8 Smith form"):
            result = cs.smith_normal_form(m)
        _check_snf(m)
        digits = max(len(str(abs(x))) for mat in result
                     for row in mat for x in row)
        assert digits < 100


def _fraction_rref(m):
    """Reference: Gauss-Jordan elimination on Fractions, row by row."""
    a = [[Fraction(x) for x in row] for row in m]
    cols = len(a[0]) if a else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        f = a[r][col]
        a[r] = [x / f for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                g = a[i][col]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return a, pivots


def test_rref_matches_fraction_elimination():
    # integer, rank-deficient integer and Fraction matrices up to 7 x 7
    rng = np.random.default_rng(67)
    for trial in range(1200):
        rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
        if trial % 3 == 0:
            m = rng.integers(-9, 10, (rows, cols)).tolist()
        elif trial % 3 == 1:
            r = int(rng.integers(1, min(rows, cols) + 1))
            m = (rng.integers(-4, 5, (rows, r))
                 @ rng.integers(-4, 5, (r, cols))).tolist()
        else:
            m = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                  for _ in range(cols)] for _ in range(rows)]
        got, pivots = rref(m)
        expected, expected_pivots = _fraction_rref(m)
        assert pivots == expected_pivots
        assert got == expected
        assert all(type(x) is Fraction for row in got for x in row)


def test_betti_known():
    assert cs.betti1_mapping_torus([[1, 0], [0, 1]]).b1 == 3
    assert cs.betti1_mapping_torus([[1, 1], [0, 1]]).b1 == 2
    assert cs.betti1_mapping_torus([[2, 1], [1, 1]]).b1 == 1


def test_betti_torsion():
    # A - I = [[0, 2], [0, 0]] has Smith form diag(2, 0): torsion Z/2
    rep = cs.betti1_mapping_torus([[1, 2], [0, 1]])
    assert rep.b1 == 2 and rep.torsion == (2,) and rep.free_rank == 1


def test_betti_rejects_non_unimodular():
    with pytest.raises(ValueError,
                       match=re.escape("matrix must lie in SL_n(Z)")):
        cs.betti1_mapping_torus([[2, 0], [0, 1]])


def test_betti_rank_oracle():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        A = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(15):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            s = int(rng.choice([-1, 1]))
            for c in range(n):
                A[i][c] += s * A[j][c]
        assert det_int(A) == 1
        m = [[A[i][j] - int(i == j) for j in range(n)] for i in range(n)]
        assert cs.betti1_mapping_torus(A).b1 == 1 + (n - rational_rank(m))


def test_rational_nullspace_exact_kernel():
    # products of an m x r and an r x n integer matrix have rank <= r
    rng = np.random.default_rng(43)
    for _ in range(40):
        m, n, r = (int(x) for x in rng.integers(1, 6, size=3))
        left = [[int(x) for x in rng.integers(-4, 5, r)] for _ in range(m)]
        right = [[int(x) for x in rng.integers(-4, 5, n)] for _ in range(r)]
        a = int_product(left, right)
        basis = rational_nullspace(a, n)
        assert len(basis) == n - rational_rank(a)
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0
                       for row in a)
        if basis:
            assert rational_rank(basis) == len(basis)


def test_matrix_exp_examples():
    assert np.array_equal(cs.matrix_exp(np.zeros((3, 3))), np.eye(3))
    nilp = cs.matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(nilp, [[1, 1], [0, 1]], atol=1e-15)
    rot = cs.matrix_exp(2.0 * np.pi * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.max(np.abs(rot - np.eye(2))) <= 1e-10


def test_exp_log_random_spd_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        w = rng.standard_normal((n, n))
        A = w @ w.T + n * np.eye(n)
        lam, Q = np.linalg.eigh(A)
        B = Q @ np.diag(np.log(lam)) @ Q.T
        assert np.max(np.abs(cs.matrix_exp(B) - A)) \
            <= 1e-9 * max(1.0, np.max(np.abs(A)))


def test_verify_log():
    assert cs.verify_log(np.eye(2), np.zeros((2, 2)))
    assert cs.verify_log(np.eye(2),
                         2.0 * np.pi * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert cs.verify_log(np.array([[1.0, 1.0], [0.0, 1.0]]),
                         np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not cs.verify_log(np.eye(2), np.eye(2))
