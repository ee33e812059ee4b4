import itertools
import math

import numpy as np
import pytest
from scipy.spatial import Voronoi, cKDTree

import collapse_spectra as cs
from collapse_spectra.flat_torus import (FOUR_PI_SQ, FlatTorus,
                                         _enumerate_dual)

TEST_GRAMS = [
    np.eye(1),
    np.eye(2),
    np.diag([4.0, 0.25]),
    np.array([[1.0, 0.3], [0.3, 1.09]]),
    np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.7]]),
]


def test_flat_torus_validation():
    with pytest.raises(Exception):
        FlatTorus(np.array([[1.0, 2.0], [2.0, 1.0]]))   # not SPD
    with pytest.raises(ValueError):
        FlatTorus(np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_flat_torus_rejects_non_finite_gram(entry):
    # a NaN Gram passed the symmetry and Cholesky checks
    with pytest.raises(ValueError, match="gram must be finite"):
        FlatTorus(np.array([[1.0, 0.0], [0.0, entry]]))
    with pytest.raises(ValueError, match="gram must be finite"):
        FlatTorus.circle(entry)


def _box_enumerate(q, qmax):
    """Reference enumeration: every gamma of the isotropic box of radius
    sqrt(qmax / lambda_min(q)), one quadratic form per point."""
    lam_min = float(np.linalg.eigvalsh(q)[0])
    R = max(1, int(math.ceil(math.sqrt(max(qmax, 0.0) / lam_min))))
    out = []
    for gamma in itertools.product(range(-R, R + 1), repeat=q.shape[0]):
        g = np.array(gamma, dtype=float)
        val = float(g @ q @ g)
        if val <= qmax * (1.0 + 1e-12):
            out.append((gamma, val))
    return out


def test_enumerate_dual_matches_box_reference():
    # same vectors, same order, same bits, in any basis; qmax = q(e_1)
    # and q(1, ..., 1) put lattice values on the boundary
    u = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    grams = TEST_GRAMS + [u.T @ TEST_GRAMS[-1] @ u]
    forms = [FlatTorus(g).dual_quadratic() for g in grams] + grams
    for q in forms:
        ones = np.ones(q.shape[0])
        for qmax in (float(q[0, 0]), float(ones @ q @ ones),
                     float(np.trace(q)), 7.5, 40.0):
            assert _enumerate_dual(q, qmax) == _box_enumerate(q, qmax), \
                (q, qmax)


def test_lambda01_identity():
    assert cs.lambda01(FlatTorus.identity(2)) == pytest.approx(FOUR_PI_SQ,
                                                               rel=1e-15)


def test_lambda01_rectangular():
    L, l = 2.0, 0.5
    val = cs.lambda01(FlatTorus(np.diag([L * L, l * l])))
    assert val == pytest.approx(FOUR_PI_SQ / max(L, l) ** 2, rel=1e-12)


def test_lambda01_circle():
    for l in (0.1, 1.0, 3.0):
        val = cs.lambda01(FlatTorus.circle(l))
        assert val == pytest.approx((2.0 * math.pi / l) ** 2, rel=1e-12)


def test_lambda01_wide_box_brute_force():
    # the certified box against every vector of a fixed wide box
    for gram in TEST_GRAMS:
        torus = FlatTorus(gram)
        q = torus.dual_quadratic()
        box = np.array([g for g in itertools.product(range(-10, 11),
                                                     repeat=torus.k)
                        if any(g)], dtype=float)
        brute = float(np.einsum("ij,jk,ik->i", box, q, box).min())
        assert cs.lambda01(torus) == pytest.approx(FOUR_PI_SQ * brute,
                                                   rel=1e-14)


def test_p_form_spectrum_modes():
    torus = FlatTorus.identity(2)
    modes = cs.p_form_spectrum(torus, 0, FOUR_PI_SQ * 1.01)
    at_first = [m for m in modes.modes
                if abs(m.eigenvalue - FOUR_PI_SQ) < 1e-9]
    assert len(at_first) == 4
    assert {m.gamma for m in at_first} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    harmonic = [m for m in modes.modes if m.eigenvalue == 0.0]
    assert len(harmonic) == 1 and harmonic[0].multiplicity == 1


def test_p_form_harmonic_dimension():
    modes = cs.p_form_spectrum(FlatTorus.identity(2), 1, 1.0)
    assert modes.modes[0].gamma == (0, 0)
    assert modes.modes[0].multiplicity == 2     # b_1(T^2)


def test_p_form_hodge_duality():
    torus = FlatTorus(np.array([[1.0, 0.3], [0.3, 1.09]]))
    for p in range(3):
        s1 = cs.p_form_spectrum(torus, p, 200.0).eigenvalues()
        s2 = cs.p_form_spectrum(torus, 2 - p, 200.0).eigenvalues()
        assert np.array_equal(np.sort(s1), np.sort(s2))


def test_unimodular_invariance():
    rng = np.random.default_rng(67)
    for gram in (np.eye(2), np.diag([4.0, 0.25]),
                 np.array([[1.0, 0.3], [0.3, 1.09]])):
        torus = FlatTorus(gram)
        s1 = np.sort(cs.p_form_spectrum(torus, 0, 250.0).eigenvalues())
        d1 = cs.diameter(torus)
        for _ in range(5):
            u = np.eye(2, dtype=int)
            for _ in range(4):
                i, j = rng.permutation(2)[:2]
                u[i] += int(rng.integers(-2, 3)) * u[j]
            g2 = u.T @ gram @ u
            s2 = np.sort(cs.p_form_spectrum(FlatTorus(g2), 0,
                                            250.0).eigenvalues())
            assert len(s1) == len(s2)
            assert np.max(np.abs(s1 - s2)) <= 1e-12 * max(1.0, s1[-1])
            assert abs(cs.diameter(FlatTorus(g2)) - d1) <= 1e-12 * d1


def _grid_diameter(gram, resolution):
    """Reference grid search over the fundamental cube.

    Returns (value, half_diag): the covering radius lies in
    [value, value + half_diag].  The nearest lattice point y of a cube
    point x has |y| <= 2 |x|, which bounds the shift set.
    """
    k = gram.shape[0]
    chol = np.linalg.cholesky(gram)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
    r_max = math.sqrt(np.einsum("ij,jk,ik->i", corners, gram, corners).max())
    S = int(math.ceil(2.0 * r_max / math.sqrt(np.linalg.eigvalsh(gram)[0])))
    shifts = np.array(list(itertools.product(range(-S, S + 1), repeat=k)),
                      dtype=float)
    axis = np.linspace(0.0, 1.0, resolution + 1)
    pts = np.array(list(itertools.product(axis, repeat=k)))
    dist, _ = cKDTree(shifts @ chol).query(pts @ chol)
    step = np.full(k, 1.0 / resolution)
    return float(dist.max()), 0.5 * math.sqrt(float(step @ gram @ step))


def _random_grams(seed, k, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w = rng.uniform(-1.0, 1.0, (k, k))
        yield w @ w.T + 0.3 * np.eye(k)


def _voronoi_radius(gram):
    """Largest vertex norm of the Voronoi cell of 0, built by Qhull from
    the lattice points with gamma^T G gamma <= tr G, row by row in
    gamma_2 so that sheared lattices stay cheap."""
    (g00, g01), (_, g11) = gram
    bound = g00 + g11
    rows = math.ceil(math.sqrt(bound * g00 / (g00 * g11 - g01 * g01)))
    gammas = []
    for j in range(-rows, rows + 1):
        centre = -g01 * j / g00
        half = math.sqrt(max(0.0, bound - (g11 - g01 * g01 / g00) * j * j)
                         / g00)
        for i in range(math.floor(centre - half) - 1,
                       math.ceil(centre + half) + 2):
            if g00 * i * i + 2 * g01 * i * j + g11 * j * j \
                    <= bound * (1 + 1e-12):
                gammas.append((i, j))
    vor = Voronoi(np.array(gammas, dtype=float) @ np.linalg.cholesky(gram))
    cell = vor.regions[vor.point_region[gammas.index((0, 0))]]
    return float(np.max(np.linalg.norm(vor.vertices[cell], axis=1)))


def test_diameter_square():
    assert cs.diameter(FlatTorus.identity(2)) == pytest.approx(
        math.sqrt(2) / 2, rel=1e-15)


def test_diameter_circle():
    assert cs.diameter(FlatTorus.circle(2.0)) == 1.0


def test_diameter_identity_closed_form():
    # the deepest hole of Z^k is (1/2, ..., 1/2)
    for k in (1, 2):
        assert cs.diameter(FlatTorus.identity(k)) == pytest.approx(
            math.sqrt(k) / 2, rel=1e-12)


@pytest.mark.parametrize("k", [3, 4])
def test_diameter_rejects_dimension_three_and_up(k):
    with pytest.raises(ValueError, match=f"k = {k}"):
        cs.diameter(FlatTorus.identity(k))


def test_diameter_within_grid_bracket():
    grams = [g for g in TEST_GRAMS if g.shape[0] == 2]
    grams += list(_random_grams(83, 2, 12))
    for gram in grams:
        value, half_diag = _grid_diameter(gram, 60)
        exact = cs.diameter(FlatTorus(gram))
        assert value - 1e-12 <= exact <= value + half_diag + 1e-12, gram


def test_diameter_two_dimensional_closed_form():
    grams = [g for g in TEST_GRAMS if g.shape[0] == 2]
    grams += [cs.gt_gram(t).gram for t in (0.3, 0.9, 2.5, 5.0, 8.0, 30.0,
                                           100.0)]
    grams += list(_random_grams(97, 2, 20))
    rng = np.random.default_rng(101)
    for _ in range(300):
        w = rng.uniform(-1.0, 1.0, (2, 2))
        grams.append(w @ w.T + 1e-3 * np.eye(2))
    for gram in grams:
        assert cs.diameter(FlatTorus(gram)) == pytest.approx(
            _voronoi_radius(gram), rel=1e-12), gram


def test_diameter_two_dimensional_ties_and_default_bits():
    # the hexagonal lattice ties in the reduction; its deepest hole is
    # the centroid of the equilateral triangle
    hexagonal = FlatTorus(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert cs.diameter(hexagonal) == pytest.approx(1 / math.sqrt(3),
                                                   rel=1e-15)
    # the diam cells of the default gt-family run; t = 0.5 ties
    for t, diam in ((0.0, 0.7071067811865476), (0.3, 0.6372009102316161),
                    (0.5, 0.625)):
        assert cs.diameter(cs.gt_gram(t)) == diam, t


def test_gt_gram():
    assert np.array_equal(cs.gt_gram(0.0).gram, np.eye(2))
    u = np.array([[1, -1], [0, 1]])
    # unit shear: exact at integer t, one ulp of arithmetic otherwise
    assert np.array_equal(u.T @ cs.gt_gram(1.0).gram @ u, cs.gt_gram(0.0).gram)
    for t in (0.3, 0.7):
        gap = u.T @ cs.gt_gram(t + 1.0).gram @ u - cs.gt_gram(t).gram
        assert np.max(np.abs(gap)) <= 1e-15


def test_gt_spectra_periodic():
    for t in (0.0, 0.3):
        s1 = np.sort(cs.p_form_spectrum(cs.gt_gram(t), 0, 300.0).eigenvalues())
        s2 = np.sort(cs.p_form_spectrum(cs.gt_gram(t + 1.0), 0,
                                        300.0).eigenvalues())
        assert np.max(np.abs(s1 - s2)) <= 1e-12


def test_gt_diameters_periodic():
    for t in (0.0, 0.3, 0.5, 0.9, 1.7, 30.0, 100.0):
        d0 = cs.diameter(cs.gt_gram(t))
        d1 = cs.diameter(cs.gt_gram(t + 1.0))
        assert abs(d0 - d1) <= 1e-12 * d0


def test_gt_large_shear_matches_reduced(time_limit):
    # gt(t) is isometric to gt(t mod 1); at t = 100 the search box holds
    # millions of points
    cutoff = 300.0
    for t in (30.0, 100.0):
        with time_limit(5.0, f"gt({t})"):
            big, small = cs.gt_gram(t), cs.gt_gram(t % 1.0)
            d_big, d_small = cs.diameter(big), cs.diameter(small)
            assert abs(d_big - d_small) <= 1e-12 * d_small
            l_big, l_small = cs.lambda01(big), cs.lambda01(small)
            assert abs(l_big - l_small) <= 1e-11 * l_small
            s_big = np.sort(cs.p_form_spectrum(big, 0, cutoff).eigenvalues())
            s_small = np.sort(cs.p_form_spectrum(small, 0,
                                                 cutoff).eigenvalues())
            assert len(s_big) == len(s_small)
            assert np.max(np.abs(s_big - s_small)) <= 1e-11 * cutoff


def test_threshold_product_circle_fiber():
    rep = cs.threshold_check_product(FlatTorus.circle(1.0),
                                     FlatTorus.circle(0.1), 1)
    assert rep.ok
    assert rep.threshold == pytest.approx(400.0 * math.pi ** 2, rel=1e-12)
    assert rep.min_noninvariant == rep.threshold
    assert not rep.violations


def test_threshold_product_square_fiber():
    rep = cs.threshold_check_product(FlatTorus.circle(1.0),
                                     FlatTorus.identity(2), 1)
    assert rep.ok and rep.threshold == pytest.approx(FOUR_PI_SQ, rel=1e-15)


def test_threshold_csv_flags():
    rep = cs.threshold_check_product(FlatTorus.circle(1.0),
                                     FlatTorus.identity(2), 1)
    lines = rep.csv.splitlines()
    assert lines[0] == "gamma_1,gamma_2,gamma_3,eigenvalue,multiplicity,invariant_flag"
    assert any(line.endswith(",0") for line in lines[1:])
    assert any(line.endswith(",1") for line in lines[1:])


def test_odd_multiplicity_products():
    rep = cs.odd_multiplicity_check(FlatTorus.circle(1.0),
                                    FlatTorus.identity(2), 1,
                                    2.5 * FOUR_PI_SQ)
    assert not rep.violations
    rng = np.random.default_rng(71)
    for _ in range(10):
        base = FlatTorus(np.diag(rng.uniform(0.5, 2.0, 1) ** 2))
        fiber = FlatTorus(np.diag(rng.uniform(0.5, 2.0, 2) ** 2))
        rep = cs.odd_multiplicity_check(base, fiber, 0, 150.0)
        assert not rep.violations


def test_product_degree_out_of_range():
    with pytest.raises(ValueError, match="degree 4 not in"):
        cs.threshold_check_product(FlatTorus.circle(1.0),
                                   FlatTorus.identity(2), 4)
    with pytest.raises(ValueError, match="degree 4 not in"):
        cs.odd_multiplicity_check(FlatTorus.circle(1.0),
                                  FlatTorus.identity(2), 4, 50.0)


def _diameter_bound_margin(torus):
    """lambda01 - (pi / diam)^2 and the rounding allowance, 1e-12
    relative to the bound, under which the inequality still holds."""
    bound = math.pi ** 2 / cs.diameter(torus) ** 2
    return cs.lambda01(torus) - bound, 1e-12 * max(1.0, bound)


def test_diameter_eigenvalue_bound():
    margin, allowance = _diameter_bound_margin(FlatTorus.identity(2))
    assert margin >= -allowance and margin > 0
    # circle: exact equality of lambda01 and (pi / (l/2))^2
    margin, allowance = _diameter_bound_margin(FlatTorus.circle(1.0))
    assert margin >= -allowance
    assert abs(margin) <= 1e-12 * cs.lambda01(FlatTorus.circle(1.0))
    margin, allowance = _diameter_bound_margin(cs.gt_gram(0.5))
    assert margin >= -allowance
    assert cs.diameter(cs.gt_gram(0.5)) == pytest.approx(0.625, rel=1e-12)


def test_lambda01_skewed_brute_force():
    # strongly skewed gram: compare the certified box against a huge box
    gram = np.array([[1.0, 1.9], [1.9, 4.0]])
    torus = FlatTorus(gram)
    q = torus.dual_quadratic()
    brute = min(
        float(np.array(g) @ q @ np.array(g))
        for g in ((i, j) for i in range(-25, 26) for j in range(-25, 26))
        if g != (0, 0))
    assert cs.lambda01(torus) == pytest.approx(FOUR_PI_SQ * brute, rel=1e-14)


def test_diameter_certified_shifts_skewed():
    # a grid search over a much bigger shift set brackets the exact value
    gram = cs.gt_gram(0.9).gram
    chol = np.linalg.cholesky(gram)
    shifts = np.array(list(itertools.product(range(-8, 9), repeat=2)),
                      dtype=float) @ chol
    axis = np.linspace(0.0, 1.0, 61)
    pts = np.array(list(itertools.product(axis, axis))) @ chol
    dists = np.sqrt(((pts[:, None, :] - shifts[None, :, :]) ** 2).sum(-1))
    brute = float(dists.min(axis=1).max())
    half_diag = 0.5 * math.sqrt(float(np.full(2, 1 / 60) @ gram
                                      @ np.full(2, 1 / 60)))
    exact = cs.diameter(FlatTorus(gram))
    assert brute - 1e-12 <= exact <= brute + half_diag + 1e-12


def test_mode_spectrum_csv():
    torus = FlatTorus.identity(2)
    modes = cs.p_form_spectrum(torus, 1, FOUR_PI_SQ * 1.01)
    text = modes.to_csv()
    lines = text.splitlines()
    assert lines[0] == "gamma_1,gamma_2,eigenvalue,multiplicity,invariant_flag"
    assert lines[1].startswith("0,0,0.0,2,1")
    assert "np.float64" not in text
