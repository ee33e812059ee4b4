import itertools
import math
import re

import numpy as np
import pytest

import collapse_spectra as cs
from collapse_spectra.euler_bound import gram_det
from collapse_spectra.flat_torus import FlatTorus
from collapse_spectra.intlat import rational_rank

#: the error of an Euler map with a kernel
KERNEL = "Euler map has a kernel; use noninjective_reduce"


def test_ee_star_examples():
    assert not np.any(cs.ee_star([[0, 0]], np.eye(2)))
    assert cs.ee_star([[2]], [[1.0]]) == pytest.approx(np.array([[4.0]]))
    rng = np.random.default_rng(73)
    E = rng.integers(-3, 4, (3, 3)).tolist()
    assert np.allclose(cs.ee_star(E, np.eye(3)),
                       np.array(E).T @ np.array(E), atol=1e-12)


def test_det_factorization_vol_t_convention():
    # dual Gram diag(1/4, 1/4): fiber volume det^(-1/2) = 4
    rep = cs.det_factorization(((1, 0), (0, 3)), np.diag([0.25, 0.25]))
    assert rep.vol_t == pytest.approx(4.0)


def _chain_holds(rep):
    """The three inequalities of the bound chain, each up to 1e-10."""
    return (rep.lam_min >= rep.mid_bound - 1e-10
            and rep.mid_bound >= rep.det_bound - 1e-10
            and rep.lam_min >= rep.det_bound - 1e-10)


def test_bound_chain_scalar_equality():
    rep = cs.bound_chain([[5]], [[1.0]])
    assert rep.lam_min == pytest.approx(rep.det_bound)
    assert _chain_holds(rep)


def test_bound_chain_diagonal():
    rep = cs.bound_chain([[1, 0], [0, 3]], np.eye(2))
    assert rep.lam_min == pytest.approx(1.0)
    assert rep.det_bound == pytest.approx(1.0)
    assert _chain_holds(rep)


def test_bound_chain_random():
    rng = np.random.default_rng(79)
    done = 0
    while done < 50:
        k = int(rng.integers(1, 5))
        m = int(rng.integers(k, k + 3))
        E = rng.integers(-4, 5, (m, k))
        if rational_rank([[int(x) for x in r] for r in E]) < k:
            continue
        done += 1
        w = rng.standard_normal((k, k))
        gram = w @ w.T + 0.5 * np.eye(k)
        rep = cs.bound_chain(E.tolist(), gram)
        assert rep.lam_min >= rep.mid_bound - 1e-10
        assert rep.mid_bound >= rep.det_bound - 1e-10


def test_bound_chain_rejects_kernel():
    with pytest.raises(cs.CollapseSpectraError, match=KERNEL):
        cs.bound_chain([[1, 2], [2, 4]], np.eye(2))
    with pytest.raises(cs.CollapseSpectraError, match=KERNEL):
        cs.det_factorization([[1, 2], [2, 4]], np.eye(2))
    # seeded rank-deficient maps: a random integral map of rank r < k
    # composed into k columns; both functions apply one rule to them
    rng = np.random.default_rng(89)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(k, k + 3))
        r = int(rng.integers(1, k))
        E = rng.integers(-3, 4, (m, r)) @ rng.integers(-3, 4, (r, k))
        assert rational_rank(E.tolist()) < k
        assert gram_det(E.tolist()) == 0
        for func in (cs.bound_chain, cs.det_factorization):
            with pytest.raises(cs.CollapseSpectraError, match=KERNEL):
                func(E.tolist(), np.eye(k))


def test_det_factorization():
    rep = cs.det_factorization([[1]], [[1.0]])
    assert (rep.det_prime, rep.vol_t, rep.det_e) == (1.0, 1.0, 1.0)
    # dual Gram diag(4, 4): fiber volume 1/4
    rep = cs.det_factorization([[1, 0], [0, 3]], np.diag([4.0, 4.0]))
    assert rep.vol_t == pytest.approx(0.25)
    assert rep.det_e == pytest.approx(rep.det_prime * rep.vol_t)
    assert rep.ok
    rng = np.random.default_rng(83)
    for _ in range(10):
        E = rng.integers(-3, 4, (3, 2))
        if rational_rank([[int(x) for x in r] for r in E]) < 2:
            continue
        w = rng.standard_normal((2, 2))
        gram = w @ w.T + 0.5 * np.eye(2)
        assert cs.det_factorization(E.tolist(), gram).ok


#: trial -> PCG64 state (state, has_uint32, uinteger) of the seed-0
#: stream of euler-bound before that trial's draws, at trials = 10000 and
#: kmax = 8: determinants through LU left residuals up to 1.0e-9 there
_HARD_TRIALS = {
    61: (87425197902800759615917055882422878516, 1, 2724370033),
    451: (246518190663250647447552064263580337505, 0, 1593447797),
    1371: (105840543120855256157940822878516208533, 1, 4271858788),
    1888: (8278064979449543654660165876885947398, 1, 3214408531),
    3544: (281749882016435747281986084109997340147, 1, 3613681594),
    4018: (294298647762282034193911285274987248884, 1, 3623487835),
    5175: (75119709420975404121111812571265805076, 1, 3942512621),
    8900: (116255087966694521289639690058906195903, 1, 3898705573),
}


@pytest.mark.parametrize("trial", sorted(_HARD_TRIALS))
def test_det_factorization_hard_trials(trial):
    state, has_uint32, uinteger = _HARD_TRIALS[trial]
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": has_uint32,
        "uinteger": uinteger, "state": {
            "state": state, "inc": rng.bit_generator.state["state"]["inc"]}}
    # the draws of one trial, as in the euler-bound scenario
    k = int(rng.integers(1, 9))
    E = rng.integers(-4, 5, size=(int(rng.integers(k, k + 3)), k))
    w = rng.standard_normal((k, k))
    rep = cs.det_factorization(E.tolist(), w @ w.T + 0.5 * np.eye(k))
    assert k >= 6 and rep.residual <= 1e-10 and rep.ok


def test_noninjective_zero_map():
    rep = cs.noninjective_reduce([[0, 0]], np.eye(2))
    assert rep.restricted is None


def test_noninjective_block_oracle():
    # E = (0 | E') with E' full rank: restricted chain equals the chain of E'
    core = [[2, 1], [1, 1], [0, 3]]
    E = [[0] + row for row in core]
    rep = cs.noninjective_reduce(E, np.eye(3))
    oracle = cs.bound_chain(core, np.eye(2))
    assert rep.restricted is not None
    assert rep.restricted.lam_min == pytest.approx(oracle.lam_min, abs=1e-9)
    assert rep.restricted.det_bound == pytest.approx(oracle.det_bound,
                                                     abs=1e-9)
    assert rep.kernel_basis == ((1, 0, 0),)


def test_noninjective_obstruction_vector():
    rep = cs.noninjective_reduce([[3, 6]], np.eye(2))
    assert rep.kernel_basis == ((-2, 1),)
    assert rep.reduced_integral == ((3,),)
    assert rep.quotient_volume == pytest.approx(1.0 / math.sqrt(5.0))
    assert rep.restricted.lam_min == pytest.approx(45.0)


def test_noninjective_signed_permutation_mixes():
    rng = np.random.default_rng(89)
    for _ in range(10):
        r = int(rng.integers(1, 3))
        l = int(rng.integers(1, 3))
        while True:
            core = rng.integers(-3, 4, (r + 1, r))
            if rational_rank([[int(x) for x in row] for row in core]) == r:
                break
        E_raw = np.concatenate([np.zeros((r + 1, l), dtype=int), core],
                               axis=1)
        perm = rng.permutation(l + r)
        signs = rng.choice([-1, 1], size=l + r)
        W = np.zeros((l + r, l + r), dtype=int)
        for col, (p, s) in enumerate(zip(perm, signs)):
            W[p, col] = s
        rep = cs.noninjective_reduce((E_raw @ W).tolist(), np.eye(l + r))
        oracle = cs.bound_chain(core.tolist(), np.eye(r))
        assert rep.restricted.lam_min == pytest.approx(oracle.lam_min,
                                                       abs=1e-9)


def test_rho_flat():
    assert cs.rho_flat(FlatTorus.identity(2)).rho == 1.0
    assert cs.rho_flat(FlatTorus.identity(3)).rho == 1.0
    for s in (0.5, 2.0):
        torus = FlatTorus(np.diag([s * s, 1.0 / (s * s)]))
        assert cs.rho_flat(torus).rho == pytest.approx(1.0, rel=1e-12)


def _rho_brute(gram):
    """(rho^2, lexicographically first attaining c) over c in [-4, 4]^dim.

    The squared L^2 norm of the 2-form with antisymmetric coefficient
    matrix A is vol * tr(A^T G^-1 A G^-1) / 2, polarised into a form on
    the coefficients of dx_i ^ dx_j, i < j.
    """
    m = gram.shape[0]
    ginv = np.linalg.inv(gram)
    pairs = list(itertools.combinations(range(m), 2))
    basis = []
    for i, j in pairs:
        a = np.zeros((m, m))
        a[i, j], a[j, i] = 1.0, -1.0
        basis.append(a)
    vol = math.sqrt(np.linalg.det(gram))
    form = np.array([[0.5 * vol * np.trace(a.T @ ginv @ b @ ginv)
                      for b in basis] for a in basis])
    dim = len(pairs)
    coeffs = np.indices((9,) * dim).reshape(dim, -1).T - 4
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]          # lexicographic order
    vals = np.einsum("ij,jk,ik->i", coeffs, form, coeffs)
    best = vals.min()
    first = coeffs[np.flatnonzero(vals <= best * (1.0 + 1e-9))[0]]
    return best, tuple(int(x) for x in first)


def test_rho_flat_brute_force():
    rng = np.random.default_rng(29)
    w = rng.uniform(-0.3, 0.3, (4, 4))
    skew4 = np.eye(4) + w @ w.T
    for gram in (np.eye(2), np.eye(3), np.diag([2.0, 1.0, 0.5]), skew4):
        rep = cs.rho_flat(FlatTorus(gram))
        best, first = _rho_brute(gram)
        assert rep.rho == pytest.approx(math.sqrt(best), rel=1e-12), gram
        assert rep.attaining == first, gram


def test_vol_bound_circle_constant_ratio():
    bundle = cs.TorusBundleOverT2((1,))
    rep = cs.vol_bound_experiment(bundle, [1.0], [1.0, 0.5, 0.25, 0.125])
    ratios = [r.ratio for r in rep.rows]
    assert max(ratios) - min(ratios) <= 1e-12
    assert rep.margin >= 0.0 and rep.min_ratio > 0.0


def test_vol_bound_homothety_grows():
    bundle = cs.TorusBundleOverT2((1, 0))
    rep = cs.vol_bound_experiment(bundle, [1.0, 1.0], [1.0, 0.5, 0.25])
    assert rep.margin >= 0.0 and rep.min_ratio > 0.0
    assert rep.rows[-1].ratio > rep.rows[0].ratio


def test_vol_bound_dense_direction():
    bundle = cs.TorusBundleOverT2((1, 2))
    rep = cs.vol_bound_experiment(bundle, [1.0, 0.0], [1.0, 0.5, 0.25])
    assert rep.margin >= 0.0 and rep.min_ratio > 0.0
    assert rep.rows[-1].lam >= 4.0       # limit sum_{i>1} b_i^2 = 4


def test_vol_bound_trivial_bundle_raises():
    # lambda vanishes identically: no ratio to bound, so no verdict
    with pytest.raises(cs.CollapseSpectraError,
                       match="zero obstruction vector: lambda vanishes"):
        cs.vol_bound_experiment(cs.TorusBundleOverT2((0,)), [1.0],
                                [1.0, 0.5])


@pytest.mark.parametrize("alpha", [[600.0], [530.0], [-500.0] * 3])
def test_vol_bound_divisor_outside_normal_floats_names_alpha_and_eps(alpha):
    # at eps = 0.5, vol^2 = 0.5^(2 sum alpha) underflows to 0 (600), is
    # subnormal (530) or overflows (-1500): none is a usable divisor
    bundle = cs.TorusBundleOverT2((1,) + (0,) * (len(alpha) - 1))
    with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r}: "
                                                   "eps = 0.5")):
        cs.vol_bound_experiment(bundle, alpha, [1.0, 0.5])


def test_vol_bound_lambda_overflow_names_alpha():
    # at eps = 0.5 the term (eps^-600 b)^2 = 2^1200 is past the floats
    with pytest.raises(ValueError, match=re.escape("alpha = [-600.0]: "
                                                   "eps = 0.5")):
        cs.vol_bound_experiment(cs.TorusBundleOverT2((1,)), [-600.0],
                                [1.0, 0.5])


def test_vol_bound_margin_sign_follows_verdict():
    bundle = cs.TorusBundleOverT2((1, 0))
    rep = cs.vol_bound_experiment(bundle, [1.0, 1.0], [1.0, 0.5, 0.25])
    floor = rep.rows[0].ratio * (1.0 - 1e-9)
    assert rep.margin >= 0.0 and rep.min_ratio >= floor
    # alpha = (1, -2): lambda = eps^2 and vol^2 = eps^-2, so the ratio
    # eps^4 falls below its value at eps = 1
    rep = cs.vol_bound_experiment(bundle, [1.0, -2.0], [1.0, 0.5])
    floor = rep.rows[0].ratio * (1.0 - 1e-9)
    assert rep.margin < 0.0 and rep.min_ratio < floor
