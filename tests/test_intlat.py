import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_spectra as cs
from collapse_spectra.intlat import (det_int, dumps_int_matrix,
                                     invariant_factors, loads_int_matrix,
                                     mat_mul_int, rational_rank,
                                     unimodular_inverse)


def _check_snf(m):
    U, D, V = cs.smith_normal_form(m)
    assert mat_mul_int(mat_mul_int(U, m), V) == D
    assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1
    diag = invariant_factors(D)
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


def test_betti_known():
    assert cs.betti1_mapping_torus([[1, 0], [0, 1]]).b1 == 3
    assert cs.betti1_mapping_torus([[1, 1], [0, 1]]).b1 == 2
    assert cs.betti1_mapping_torus([[2, 1], [1, 1]]).b1 == 1


def test_betti_torsion():
    # A - I = [[0, 2], [0, 0]] has Smith form diag(2, 0): torsion Z/2
    rep = cs.betti1_mapping_torus([[1, 2], [0, 1]])
    assert rep.b1 == 2 and rep.torsion == (2,) and rep.free_rank == 1


def test_betti_rejects_non_unimodular():
    with pytest.raises(cs.NotUnimodular):
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


def test_gcd_completion_examples():
    d, P = cs.gcd_completion([1, 0, 0])
    assert d == 1 and [row[0] for row in P] == [1, 0, 0]
    d, P = cs.gcd_completion([3, 6])
    assert d == 3 and [row[0] for row in P] == [1, 2]
    assert abs(det_int(P)) == 1
    d, P = cs.gcd_completion([4, 6])
    assert d == 2 and [row[0] for row in P] == [2, 3]
    assert abs(det_int(P)) == 1


def test_gcd_completion_zero_rejected():
    with pytest.raises(cs.ZeroVector):
        cs.gcd_completion([0, 0])


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=5)
       .filter(lambda v: any(v)))
@settings(max_examples=60, deadline=None)
def test_gcd_completion_property(vec):
    d, P = cs.gcd_completion(vec)
    assert d > 0
    assert all(x % d == 0 for x in vec)
    assert [row[0] * d for row in P] == list(vec)
    assert abs(det_int(P)) == 1
    # P^{-1} a = (d, 0, ..., 0)
    inv = unimodular_inverse(P)
    image = [sum(inv[i][j] * vec[j] for j in range(len(vec)))
             for i in range(len(vec))]
    assert image == [d] + [0] * (len(vec) - 1)


def test_matrix_exp_examples():
    assert np.array_equal(cs.matrix_exp(np.zeros((3, 3))), np.eye(3))
    nilp = cs.matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(nilp, [[1, 1], [0, 1]], atol=1e-15)
    rot = cs.matrix_exp(2.0 * np.pi * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.max(np.abs(rot - np.eye(2))) <= 1e-10


def test_principal_log_round_trip():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    B = cs.principal_log(A)
    assert np.max(np.abs(cs.matrix_exp(B) - A)) <= 1e-10
    assert np.max(np.abs(cs.principal_log(np.eye(3)))) == 0.0


def test_principal_log_branch_unavailable():
    with pytest.raises(cs.BranchUnavailable):
        cs.principal_log(np.array([[-1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(cs.BranchUnavailable):
        cs.principal_log(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exp_log_random_spd_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        w = rng.standard_normal((n, n))
        A = w @ w.T + n * np.eye(n)
        B = cs.principal_log(A)
        assert np.max(np.abs(cs.matrix_exp(B) - A)) \
            <= 1e-9 * max(1.0, np.max(np.abs(A)))


def test_verify_log():
    assert cs.verify_log(np.eye(2), np.zeros((2, 2)))
    assert cs.verify_log(np.eye(2),
                         2.0 * np.pi * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert cs.verify_log(np.array([[1.0, 1.0], [0.0, 1.0]]),
                         np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not cs.verify_log(np.eye(2), np.eye(2))


def test_int_matrix_text_round_trip():
    m = [[1, -2, 3], [0, 5, -7]]
    text = dumps_int_matrix(m)
    assert text.splitlines()[0] == "2 3"
    assert loads_int_matrix(text) == m
    with pytest.raises(ValueError):
        loads_int_matrix("2 2\n1 2 3")


def test_principal_log_quarter_rotation():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])      # eigenvalues +-i
    B = cs.principal_log(A)
    assert np.max(np.abs(B.imag)) == 0.0 if np.iscomplexobj(B) else True
    assert np.max(np.abs(cs.matrix_exp(B) - A)) <= 1e-12
    assert abs(B[0, 1] - np.pi / 2) <= 1e-12


def test_principal_log_emits_no_warning():
    # scipy deprecated logm's `disp` argument; accuracy is left to verify_log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in ([[2.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]],
                  [[0.0, 1.0], [-1.0, 0.0]], np.eye(3)):
            B = cs.principal_log(np.array(A))
            assert cs.verify_log(np.array(A), B, 1e-10)
