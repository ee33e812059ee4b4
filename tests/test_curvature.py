import math

import numpy as np
import pytest

import collapse_spectra as cs
from collapse_spectra.curvature import (frame_curvature_table,
                                        solvable_curvature_closed_form)
from collapse_spectra.mapping_torus import solvable_algebra
from collapse_spectra.torus_bundle import nil_algebra


def test_ad_star_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        L = solvable_algebra(rng.uniform(-2, 2, (n, n)))
        u = rng.standard_normal(L.n)
        star = cs.ad_star(L, u)
        # <ad*_u v, w> = <v, [u, w]> on all frame pairs
        ad_u = L.ad_vector(u)
        assert np.max(np.abs(star - ad_u.T)) == 0.0


def test_ad_star_solvable_example():
    C = np.array([[0.0, 1.0], [0.0, 0.0]])
    L = solvable_algebra(C)
    # ad*_{V_2} V_1 = -c_{12} Y
    star = cs.ad_star(L, 1)
    assert star[2, 0] == -1.0


def test_ad_star_nil_bundle_example():
    L = nil_algebra([2.0, 0.0])
    # ad*_{Y_1} V_1 = eta Y_2 and ad*_{Y_2} V_1 = -eta Y_1
    s1 = cs.ad_star(L, 2)
    s2 = cs.ad_star(L, 3)
    assert s1[3, 0] == 2.0
    assert s2[2, 0] == -2.0


def test_sectional_curvature_abelian_zero():
    L = cs.StructureConstants.abelian(3)
    assert cs.sectional_curvature(L, [1, 0, 0], [0, 1, 0]) == 0.0


def test_sectional_curvature_nil_horizontal():
    L = nil_algebra([1.0, 0.0])
    e = np.eye(4)
    assert cs.sectional_curvature(L, e[2], e[3]) == pytest.approx(-0.75,
                                                                  abs=1e-14)


def test_sectional_curvature_rotation_flat():
    two_pi = 2.0 * math.pi
    L = solvable_algebra(np.array([[0.0, two_pi], [-two_pi, 0.0]]))
    table = frame_curvature_table(L)
    assert table.max_abs <= 1e-12


def test_sectional_curvature_symmetry():
    rng = np.random.default_rng(6)
    L = solvable_algebra(rng.uniform(-2, 2, (3, 3)))
    for _ in range(20):
        m = rng.standard_normal((L.n, 2))
        q, _ = np.linalg.qr(m)
        k1 = cs.sectional_curvature(L, q[:, 0], q[:, 1])
        k2 = cs.sectional_curvature(L, q[:, 1], q[:, 0])
        assert abs(k1 - k2) <= 1e-12


def test_sectional_curvature_requires_orthonormal():
    L = cs.StructureConstants.abelian(3)
    with pytest.raises(cs.NotOrthonormal):
        cs.sectional_curvature(L, [1, 0, 0], [1, 0, 0])
    with pytest.raises(cs.NotOrthonormal):
        cs.sectional_curvature(L, [2, 0, 0], [0, 1, 0])


def test_solvable_closed_form_example():
    table = solvable_curvature_closed_form(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert table.k(2, 0) == pytest.approx(0.25)
    assert table.k(2, 1) == pytest.approx(-0.75)
    assert table.k(0, 1) == pytest.approx(0.25)
    assert not solvable_curvature_closed_form(np.zeros((3, 3))).max_abs


def test_solvable_closed_form_matches_general():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        C = rng.uniform(-2, 2, (n, n))
        closed = solvable_curvature_closed_form(C)
        general = frame_curvature_table(solvable_algebra(C))
        for pair, val in closed.pairs.items():
            assert abs(val - general.pairs[pair]) <= 1e-10


def test_nil_closed_form_matches_general():
    for eta in (0.0, 1.0, 2.0):
        closed = cs.nil_bundle_curvature_closed_form(eta, 2)
        general = frame_curvature_table(nil_algebra([eta, 0.0]))
        for pair, val in closed.pairs.items():
            assert abs(val - general.pairs[pair]) <= 1e-12
    table = cs.nil_bundle_curvature_closed_form(1.0, 2)
    assert table.k(2, 3) == -0.75 and table.k(0, 2) == 0.25


def test_nil_scaling_law():
    for lam in (1.0, 2.0, 3.0):
        table = frame_curvature_table(nil_algebra([lam, 0.0]))
        assert table.k(2, 3) == pytest.approx(-0.75 * lam ** 2, rel=1e-12)


def test_kappa_invariant():
    assert cs.kappa_invariant(np.zeros((2, 2))) == 0.0
    assert cs.kappa_invariant(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0
    rng = np.random.default_rng(23)
    C = rng.uniform(-2, 2, (4, 4))
    kappa = cs.kappa_invariant(C)
    for _ in range(20):
        P = rng.uniform(-1, 1, (4, 4)) + 2.0 * np.eye(4)
        assert abs(cs.kappa_invariant(np.linalg.solve(P, C @ P)) - kappa) \
            <= 1e-9 * max(1.0, abs(kappa))


def test_trace_bounds():
    rep = cs.trace_bounds_check(np.zeros((2, 2)), 0.0)
    assert rep.ok and rep.trace == 0.0
    rep = cs.trace_bounds_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.75)
    assert rep.ok and rep.trace == 1.0 and rep.kappa == 0.0
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        C = rng.uniform(-2, 2, (n, n))
        a = frame_curvature_table(solvable_algebra(C)).max_abs
        assert cs.trace_bounds_check(C, a).ok


def test_oneill_defect_examples():
    # nil bundle over the flat T^2: K_N = 0, horizontal pair (Y1, Y2)
    assert cs.oneill_defect(nil_algebra([1.0, 0.0]), [2, 3]) <= 1e-12
    assert cs.oneill_defect(cs.StructureConstants.abelian(4), [2, 3]) == 0.0
    # ordinary frame of the 3-dim nil algebra over T^2 (tau = 0 scaling)
    assert cs.oneill_defect(cs.StructureConstants.heisenberg3(), [0, 1]) \
        <= 1e-12


def test_oneill_defect_on_scaled_bundles():
    rng = np.random.default_rng(31)
    for _ in range(10):
        eta = float(rng.uniform(0.2, 2.0))
        L = nil_algebra([eta, 0.0])
        assert cs.oneill_defect(L, [2, 3]) <= 1e-10


def test_oneill_form_bound():
    rep = cs.oneill_form_bound_check(cs.StructureConstants.abelian(4),
                                     [2, 3], 0.0)
    assert rep.ok
    rep = cs.oneill_form_bound_check(nil_algebra([1.0, 0.0]), [2, 3], 0.75)
    assert rep.ok and rep.pointwise_margin == pytest.approx(1.0)
    rng = np.random.default_rng(37)
    for _ in range(20):
        b = rng.uniform(-1.5, 1.5, 2)
        L = nil_algebra(b)
        a = frame_curvature_table(L).max_abs
        assert cs.oneill_form_bound_check(L, [2, 3], a).ok


def test_curvature_table_csv():
    table = solvable_curvature_closed_form(np.array([[0.0, 1.0], [0.0, 0.0]]))
    text = table.to_csv()
    assert text.splitlines()[0] == "pair_i,pair_j,K"
    assert len(text.splitlines()) == 4


def test_sampled_plane_max():
    L = nil_algebra([1.0, 0.0])
    table = frame_curvature_table(L, samples=200, seed=5)
    assert table.sampled_max is not None
    # frame pairs already realize the extreme value on this family
    assert table.sampled_max <= 0.75 + 1e-12
    assert table.max_abs == pytest.approx(0.75)
    # deterministic for a fixed seed
    again = frame_curvature_table(L, samples=200, seed=5)
    assert table.sampled_max == again.sampled_max
