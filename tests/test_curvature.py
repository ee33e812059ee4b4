import math

import numpy as np
import pytest

import collapse_spectra as cs
from collapse_spectra.curvature import (frame_curvature_table,
                                        solvable_curvature_closed_form,
                                        solvable_pair_curvatures)
from collapse_spectra.mapping_torus import solvable_algebra
from collapse_spectra.torus_bundle import nil_algebra
from oracles import (nil_bundle_curvature_closed_form,
                     solvable_curvatures_by_pair)


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
    with pytest.raises(cs.CollapseSpectraError,
                       match="u and v must be orthogonal"):
        cs.sectional_curvature(L, [1, 0, 0], [1, 0, 0])
    with pytest.raises(cs.CollapseSpectraError,
                       match="u and v must be unit vectors"):
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


def test_solvable_pair_curvatures_match_scalar_closed_form_bitwise():
    # the Y-pair sums run along a contiguous axis, as for one column, so
    # n >= 8 (numpy's pairwise blocks) keeps its bits, and (c_ij + c_ji)^2
    # goes through pow, as the scalar x ** 2 does
    rng = np.random.default_rng(18)
    for n in range(1, 13):
        C = rng.standard_normal((40, n, n)) * 10.0 ** rng.uniform(-3, 3)
        stack = solvable_pair_curvatures(C)
        for t in range(len(C)):
            want = solvable_curvatures_by_pair(C[t])
            assert stack[t].tolist() == want, (n, t)
            table = solvable_curvature_closed_form(C[t])
            assert list(table.pairs.values()) == want


def test_nil_closed_form_matches_general():
    for eta in (0.0, 1.0, 2.0):
        closed = nil_bundle_curvature_closed_form(eta, 2)
        general = frame_curvature_table(nil_algebra([eta, 0.0]))
        for pair, val in closed.pairs.items():
            assert abs(val - general.pairs[pair]) <= 1e-12
    table = nil_bundle_curvature_closed_form(1.0, 2)
    assert table.k(2, 3) == -0.75 and table.k(0, 2) == 0.25


def test_nil_scaling_law():
    for lam in (1.0, 2.0, 3.0):
        table = frame_curvature_table(nil_algebra([lam, 0.0]))
        assert table.k(2, 3) == pytest.approx(-0.75 * lam ** 2, rel=1e-12)


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


def test_curvature_table_csv():
    table = solvable_curvature_closed_form(np.array([[0.0, 1.0], [0.0, 0.0]]))
    text = table.to_csv()
    assert text.splitlines()[0] == "pair_i,pair_j,K"
    assert len(text.splitlines()) == 4


def _sampled_plane_max(L, samples, seed):
    """max |K| over seeded random orthonormal 2-planes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        q, _ = np.linalg.qr(rng.standard_normal((L.n, 2)))
        worst = max(worst, abs(cs.sectional_curvature(L, q[:, 0], q[:, 1])))
    return worst


def test_sampled_plane_max():
    L = nil_algebra([1.0, 0.0])
    sampled = _sampled_plane_max(L, 200, 5)
    # frame pairs already realize the extreme value on this family
    assert sampled <= 0.75 + 1e-12
    assert frame_curvature_table(L).max_abs == pytest.approx(0.75)
    # deterministic for a fixed seed
    assert sampled == _sampled_plane_max(L, 200, 5)
