import math

import numpy as np
import pytest

import collapse_spectra as cs
from collapse_spectra import cli, lie_complex
from collapse_spectra.curvature import (frame_curvature_table,
                                        frame_curvatures,
                                        solvable_curvature_closed_form,
                                        solvable_pair_curvatures)
from collapse_spectra.mapping_torus import solvable_algebra
from collapse_spectra.torus_bundle import nil_algebra
from oracles import (nil_bundle_curvature_closed_form, sectional_curvature,
                     solvable_curvatures_by_pair)


def _assert_oracle_bitwise(c):
    K = frame_curvatures(c)
    e = np.eye(len(c))
    for i in range(len(c)):
        for j in range(len(c)):
            if i != j:
                assert K[i, j] == sectional_curvature(c, e[i], e[j]), (i, j)


def test_sectional_curvature_abelian_zero():
    assert not frame_curvatures(cs.StructureConstants.abelian(3).c).any()


def test_sectional_curvature_nil_horizontal():
    K = frame_curvatures(nil_algebra([1.0, 0.0]).c)
    assert K[2, 3] == pytest.approx(-0.75, abs=1e-14)


def test_sectional_curvature_rotation_flat():
    two_pi = 2.0 * math.pi
    L = solvable_algebra(np.array([[0.0, two_pi], [-two_pi, 0.0]]))
    table = frame_curvature_table(L)
    assert table.max_abs <= 1e-12


def test_sectional_curvature_symmetry():
    rng = np.random.default_rng(6)
    L = solvable_algebra(rng.uniform(-2, 2, (3, 3)))
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((L.n, L.n)))
        K = frame_curvatures(cs.change_frame(L, q).c)
        assert np.abs(K - K.T).max() <= 1e-12
        # the plane of (q_0, q_1) is the frame pair (0, 1) of frame q
        assert abs(K[0, 1] - sectional_curvature(L.c, q[:, 0], q[:, 1])) \
            <= 1e-12


def test_frame_curvatures_match_the_oracle_bitwise_on_dense_frames():
    # every frame pair of 300 seeded dense frames, n = 2 to 12
    rng = np.random.default_rng(32)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        B = rng.uniform(-2.0, 2.0, (n - 1, n - 1))
        P = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
        _assert_oracle_bitwise(cs.change_frame(solvable_algebra(B), P).c)


def test_frame_curvatures_match_the_oracle_on_verify_all_algebras(
        tmp_path, monkeypatch):
    built = []
    post_init = lie_complex.StructureConstants.__post_init__

    def record(self):
        post_init(self)
        built.append(self.c)

    monkeypatch.setattr(lie_complex.StructureConstants, "__post_init__",
                        record)
    assert cli.main(["verify-all", "--out", str(tmp_path)]) == 0
    assert len(built) >= 30
    for c in {c.tobytes() + repr(c.shape).encode(): c for c in built}.values():
        _assert_oracle_bitwise(c)


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
    """max |K| over seeded random orthonormal 2-planes, each the frame
    pair (0, 1) of L rewritten in a random orthonormal frame."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        q, _ = np.linalg.qr(rng.standard_normal((L.n, L.n)))
        K = frame_curvatures(cs.change_frame(L, q).c)
        worst = max(worst, abs(K[0, 1]))
    return worst


def test_sampled_plane_max():
    L = nil_algebra([1.0, 0.0])
    sampled = _sampled_plane_max(L, 200, 5)
    # frame pairs already realize the extreme value on this family
    assert sampled <= 0.75 + 1e-12
    assert frame_curvature_table(L).max_abs == pytest.approx(0.75)
    # deterministic for a fixed seed
    assert sampled == _sampled_plane_max(L, 200, 5)
