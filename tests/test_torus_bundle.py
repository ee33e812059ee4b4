import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_spectra as cs
from collapse_spectra.lie_complex import svd_nullspace
from collapse_spectra.scenarios import run_scenario_checks
from collapse_spectra.torus_bundle import (eigenspace_split, nil_algebra,
                                           predict_spectrum)


def test_bundle_dataclass():
    bundle = cs.TorusBundleOverT2((3, 6))
    assert not bundle.trivial and len(bundle.a) == 2
    assert cs.TorusBundleOverT2((0, 0)).trivial


def test_nil_algebra_brackets():
    L = nil_algebra([1.0, 0.0])
    expected = np.zeros((4, 4, 4))
    expected[2, 3, 0] = 1.0
    expected[3, 2, 0] = -1.0
    assert np.array_equal(L.c, expected)
    assert not np.any(nil_algebra([0.0, 0.0]).c)


def test_predict_spectrum_examples():
    rep = predict_spectrum(2, 1, 1.0)
    assert np.allclose(rep.eigenvalues, [0, 0, 0, 1])
    rep = predict_spectrum(2, 2, 1.0)
    assert np.allclose(rep.eigenvalues, [0, 0, 0, 0, 1, 1])
    rep = predict_spectrum(2, 1, 0.0)
    assert not np.any(rep.eigenvalues)
    rep = predict_spectrum(2, 1, 2.0)
    assert float(rep.eigenvalues[-1]) == 4.0


def test_verify_spectrum_all_degrees():
    for n, b in ((1, [1.0]), (2, [1.0, 0.0]), (3, [0.0, 0.0, 2.0])):
        for p in range(0, n + 3):
            assert cs.verify_spectrum(nil_algebra(b), p) <= 1e-10


def test_spectrum_depends_only_on_norm():
    s1 = cs.spectrum(nil_algebra([1.0, 0.0]), 1).eigenvalues
    s2 = cs.spectrum(nil_algebra([0.6, 0.8]), 1).eigenvalues
    assert np.max(np.abs(s1 - s2)) <= 1e-12


def test_eigenspace_split_counts():
    # the tiny and the large b check that the rank decisions do not
    # depend on the scale of b
    for n, b in ((2, [1.0, 0.0]), (3, [0.5, 0.5, 1.0]), (2, [1e-3, 2e-3]),
                 (2, [40.0, 3.0])):
        for p in range(1, n + 2):
            split = eigenspace_split(nil_algebra(b), p)
            expect_co = math.comb(n - 1, p - 1) if p - 1 <= n - 1 else 0
            expect_cl = math.comb(n - 1, p - 2) if 0 <= p - 2 <= n - 1 else 0
            assert split.coclosed == expect_co
            assert split.closed == expect_cl
            assert split.total == math.comb(n, p - 1)


def test_eigenspace_split_small_eta_excludes_kernel():
    # eta^2 = 1e-8: the whole nil Laplacian scales with |b|^2, so a window
    # absolute in eta^2 would take the kernel in as well
    L = nil_algebra([1e-4, 0.0])
    got = [eigenspace_split(L, p) for p in (1, 2, 3)]
    assert [s.total for s in got] == [1, 2, 1]
    assert [(s.coclosed, s.closed) for s in got] == [(1, 0), (1, 1), (0, 1)]


def _eigenvector_split(n, p, b):
    """Reference counts for eigenspace_split by eigenvectors: select the
    eta^2-eigenvectors of Delta_p, then count the ones d_p and delta_p
    annihilate by SVD rank."""
    eta_sq = sum(x * x for x in b)
    L = nil_algebra(b)
    vals, vecs = np.linalg.eigh(cs.laplacian(L, p))
    E = vecs[:, np.abs(vals - eta_sq) <= 1e-8 * eta_sq]
    if E.shape[1] == 0:
        return 0, 0, 0
    eta = math.sqrt(eta_sq)
    closed = svd_nullspace(cs.exterior_derivative(L, p) @ E / eta).shape[1]
    coclosed = (svd_nullspace(cs.exterior_derivative(L, p - 1).T @ E / eta)
                .shape[1] if p >= 1 else E.shape[1])
    return E.shape[1], coclosed, closed


def test_eigenspace_split_matches_eigenvector_method():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        b = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4)
        b[rng.random(n) < 0.3] = 0.0
        if not b.any():
            b[0] = 1.0
        b = b.tolist()
        for p in range(0, n + 3):
            split = eigenspace_split(nil_algebra(b), p)
            assert (split.total, split.coclosed, split.closed) \
                == _eigenvector_split(n, p, b), (n, p, b)


def test_connection_change_leaves_tensor_fixed():
    # Y_i -> Y_i + sum xi_k V_k is unitriangular; its computed inverse
    # is exact
    b = [0.7, -0.3]
    L = nil_algebra(b)
    n = 2
    P = np.eye(n + 2)
    xi1 = np.array([0.4, -1.2])
    xi2 = np.array([-0.9, 0.25])
    P[:n, n] = xi1
    P[:n, n + 1] = xi2
    L2 = cs.change_frame(L, P)
    assert np.array_equal(L.c, L2.c)


def test_collapse_direction_homothety():
    traj = cs.collapse_direction([1.0, 1.0], [1, 1], [0.5, 0.25])
    assert traj.lam == (2 * 0.25, 2 * 0.0625)
    assert traj.limit_class == "vanishes" and traj.limit == 0.0


def test_collapse_direction_dense():
    traj = cs.collapse_direction([0.5, 1.5], [1, 0], [0.5, 0.25])
    assert traj.limit == 1.5 ** 2
    assert traj.limit_class == "positive"
    assert traj.lam[0] == (0.5 * 0.5) ** 2 + 1.5 ** 2


def test_collapse_direction_constant():
    traj = cs.collapse_direction([1.0, 2.0], [0, 0], [0.5, 0.25])
    assert traj.lam[0] == traj.lam[1] == 5.0


def test_collapse_direction_validation():
    with pytest.raises(ValueError):
        cs.collapse_direction([1.0], [-1.0], [0.5])
    with pytest.raises(ValueError):
        cs.collapse_direction([1.0], [1.0], [1.5])


def test_collapse_direction_lambda_overflow_names_b0():
    with pytest.raises(ValueError, match=r"^b0 = \[1e\+200\]: eps = 1.0"):
        cs.collapse_direction([1e200], [1], [1.0, 0.5])
    # each term is finite, their sum is not
    with pytest.raises(ValueError, match=r"^b0 = "):
        cs.collapse_direction([1e154, 1e154], [0, 0], [0.5])


def test_curvature_bound():
    # |K| <= 3/4 eta^2 over frame pairs, attained at (Y_1, Y_2)
    table = cs.frame_curvature_table(nil_algebra([1.0, 0.0]))
    allowance = 1e-12 * max(1.0, 0.75)
    assert table.max_abs <= 0.75 + allowance
    assert abs(abs(table.k(2, 3)) - 0.75) <= allowance
    assert table.max_abs == pytest.approx(0.75)
    assert cs.frame_curvature_table(nil_algebra([0.0, 0.0])).max_abs == 0.0
    assert cs.frame_curvature_table(nil_algebra([2.0, 0.0])).max_abs \
        == pytest.approx(3.0)


def test_trajectory_csv():
    traj = cs.collapse_direction([1.0, 1.0], [1, 1], [0.5, 0.25])
    lines = traj.to_csv().splitlines()
    assert lines[0] == "eps,lambda,limit_class"
    assert lines[1].endswith("vanishes")


def test_verify_spectrum_unit_bracket():
    assert cs.verify_spectrum(nil_algebra((0.6, 0.8)), 1) <= 1e-12


@given(st.integers(1, 3), st.lists(st.floats(-3, 3, allow_nan=False),
                                   min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_property_unique_eigenvalue(n, coeffs):
    L = nil_algebra(coeffs[:n])
    for p in range(1, n + 2):
        assert cs.verify_spectrum(L, p) <= 1e-10


@pytest.mark.parametrize("n", [1, 3])
def test_torus_bundle_builds_each_d_once(n, monkeypatch):
    # one nil algebra of dimension n + 2 per evaluation: the spectra of
    # degrees 1 .. n + 1 read G_0 .. G_{n+1}, but the algebra is
    # unimodular, so only G_p with p <= (n + 1) / 2 is solved (once) and
    # the rest are mirrored; the eigenspace split reads the same values
    lc = cs.lie_complex
    builds = []
    real_d = lc.stacked_derivative

    def counting_d(c, p):
        builds.append(p)
        return real_d(c, p)

    monkeypatch.setattr(lc, "stacked_derivative", counting_d)
    b = " ".join(["1"] + ["0.5"] * (n - 1))
    result = run_scenario_checks("torus-bundle", {"n": n, "b": b})
    assert result.passed
    assert sorted(builds) == list(range((n + 1) // 2 + 1))
