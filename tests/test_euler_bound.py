import itertools
import math
import re

import numpy as np
import pytest

import collapse_spectra as cs
from collapse_spectra.artifacts import csv_text
from collapse_spectra.euler_bound import _orthonormal_matrix, gram_det
from collapse_spectra.flat_torus import FlatTorus
from collapse_spectra.intlat import rational_rank
from collapse_spectra.scenarios import run_scenario_checks
from oracles import euler_rows_by_map

#: the error of an Euler map with a kernel
KERNEL = "Euler map has a kernel; use noninjective_reduce"


def test_orthonormal_matrix_examples():
    # E_on = E L^-T with L L^T = gramG, so E_on^T E_on is e*e and
    # E_on E_on^T = E gramG^-1 E^T
    E_on, _ = _orthonormal_matrix([[0, 0]], np.eye(2))
    assert not np.any(E_on.T @ E_on)
    E_on, L = _orthonormal_matrix([[2]], [[0.25]])
    assert E_on == pytest.approx(np.array([[4.0]]))
    assert L == pytest.approx(np.array([[0.5]]))
    rng = np.random.default_rng(73)
    E = rng.integers(-3, 4, (3, 3))
    E_on, _ = _orthonormal_matrix(E.tolist(), np.eye(3))
    assert np.allclose(E_on.T @ E_on, E.T @ E, atol=1e-12)
    w = rng.standard_normal((2, 3, 3))
    grams = w @ w.swapaxes(-1, -2) + 0.5 * np.eye(3)
    E_on, L = _orthonormal_matrix([E, 2 * E], grams)
    assert np.allclose(L @ L.swapaxes(-1, -2), grams, atol=1e-12)
    for t, scale in enumerate((1, 2)):
        assert np.allclose(E_on[t] @ E_on[t].T,
                           scale ** 2 * E @ np.linalg.inv(grams[t]) @ E.T,
                           atol=1e-9)


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
    with pytest.raises(ValueError, match=KERNEL):
        cs.bound_chain([[1, 2], [2, 4]], np.eye(2))
    with pytest.raises(ValueError, match=KERNEL):
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
            with pytest.raises(ValueError, match=KERNEL):
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


#: fixed dual Grams of the pinned examples below
_G2 = [[2.0, 0.5], [0.5, 1.5]]
_G3 = [[1.5, 0.25, -0.5], [0.25, 2.0, 0.125], [-0.5, 0.125, 0.75]]
_G4 = [[2.0, 0.5, 0.0, -0.25], [0.5, 1.0, 0.25, 0.0],
       [0.0, 0.25, 3.0, 0.5], [-0.25, 0.0, 0.5, 1.25]]

#: (E, gramG) -> float.hex of bound_chain's (lam_min, mid_bound,
#: det_bound) and of det_factorization's (det_prime, vol_t, det_e,
#: residual): a stack of one keeps every bit of these
_PINNED_CHAINS = [
    (([[5], [-3]], [[0.7]]),
     ("0x1.8492492492492p+5", "0x1.8492492492491p+5", "0x1.8492492492491p+5"),
     ("0x1.752e50db3a3a2p+2", "0x1.31fa808c55b43p+0", "0x1.be0958f3e126fp+2",
      "0x1.25dbfe5e6a2bdp-53")),
    (([[2, 1], [1, 1], [0, 3]], _G2),
     ("0x1.22b38ca6bf25dp+1", "0x1.22b38ca6bf25ep+1", "0x1.22b38ca6bf25ep+1"),
     ("0x1.b211b1c70d023p+2", "0x1.34bf63d156825p-1", "0x1.05c0e72b75052p+2",
      "0x1.f4bef1e3d4bc4p-53")),
    (([[1, -2, 0, 3], [4, 1, -1, 0], [0, 2, 3, -4], [-1, 0, 1, 2],
       [2, 2, -3, 1]], _G4),
     ("0x1.8b8503d828a50p+0", "0x1.3e0459ab0b50dp-4", "0x1.3e0459ab0b50ep-4"),
     ("0x1.66a89accadad7p+7", "0x1.a897bf8042d6cp-2", "0x1.296ded10e5e92p+6",
      "0x1.b8aec7892cf80p-53")),
]


@pytest.mark.parametrize("args,chain,factorization", _PINNED_CHAINS)
def test_bound_chain_and_factorization_bits_pinned(args, chain, factorization):
    bc = cs.bound_chain(*args)
    assert tuple(x.hex() for x in (bc.lam_min, bc.mid_bound,
                                   bc.det_bound)) == chain
    df = cs.det_factorization(*args)
    assert tuple(x.hex() for x in (df.det_prime, df.vol_t, df.det_e,
                                   df.residual)) == factorization
    assert df.ok


#: (E, gramG) -> kernel basis, reduced map, float.hex of the quotient
#: volume and of the restricted chain (lam_min, mid_bound, det_bound)
_PINNED_REDUCTIONS = [
    (([[3, 6]], np.eye(2)), ((-2, 1),), ((3,),), "0x1.c9f25c5bfeddap-2",
     ("0x1.6800000000004p+5", "0x1.6800000000005p+5", "0x1.6800000000006p+5")),
    (([[0, 2, 1], [0, 1, 1], [0, 0, 3]], _G3), ((1, 0, 0),),
     ((1, 0), (1, -1), (3, -6)), "0x1.a20bd700c2c3fp-1",
     ("0x1.1b6ad18124662p+1", "0x1.1b6ad18124662p+1", "0x1.1b6ad18124663p+1")),
    (([[1, 2, -1], [2, 4, -2]], _G3), ((-2, 1, 0), (1, 0, 1)), ((1,), (2,)),
     "0x1.9e498909f645ap-2",
     ("0x1.287e2e1ab1235p+4", "0x1.287e2e1ab1236p+4", "0x1.287e2e1ab1237p+4")),
]


@pytest.mark.parametrize("args,kernel,reduced,volume,chain",
                         _PINNED_REDUCTIONS)
def test_noninjective_reduce_bits_pinned(args, kernel, reduced, volume, chain):
    rep = cs.noninjective_reduce(*args)
    assert (rep.kernel_basis, rep.reduced_integral) == (kernel, reduced)
    assert rep.quotient_volume.hex() == volume
    r = rep.restricted
    assert tuple(x.hex() for x in (r.lam_min, r.mid_bound,
                                   r.det_bound)) == chain


def test_euler_bound_stack_matches_per_map_loop():
    # the scenario solves its maps in stacks of one shape (k, m); its rows,
    # in draw order, and its check values equal those of bound_chain and
    # det_factorization map by map, bit for bit (trials = 1 makes a
    # stack of one)
    header = ["trial", "k", "m", "lam_min", "mid_bound", "det_bound",
              "fact_residual", "ok"]
    for seed in range(15):
        for kmax in (1, 2, 5, 8):
            for trials in (1, 200):
                res = run_scenario_checks(
                    "euler-bound", {"trials": trials, "kmax": kmax}, seed)
                rows, slack, max_residual = euler_rows_by_map(trials, kmax,
                                                              seed)
                config = (seed, kmax, trials)
                assert res.artifacts["chain.csv"] == csv_text(header, rows), \
                    config
                values = {c.name: c.value for c in res.checks}
                assert values["bound-chain"].hex() == slack.hex(), config
                assert (values["det-factorization"].hex()
                        == max_residual.hex()), config


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
    with pytest.raises(ValueError,
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
