import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_spectra as cs
from collapse_spectra.lie_complex import (FormBasis, check_lie_tensors,
                                          clamp_spectra, gram_eigenvalues,
                                          kernel_cutoff,
                                          stacked_gram_eigenvalues)
from collapse_spectra.mapping_torus import solvable_algebra
from oracles import jacobi_defect


def test_jacobi_abelian_zero():
    assert jacobi_defect(cs.StructureConstants.abelian(4).c) == 0.0


def test_jacobi_heisenberg_zero():
    assert jacobi_defect(cs.StructureConstants.heisenberg3().c) == 0.0


def test_jacobi_broken_table_detected():
    # raw tensor: keep [e1,e2] = e3 antisymmetric but add a one-sided
    # spurious entry [e1,e3] = 0.1 e2 without its antisymmetric partner
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[0, 2, 1] = 0.1
    assert jacobi_defect(c) > 0.05


def test_validating_constructor_rejects_broken_table():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[0, 2, 1] = 0.1
    with pytest.raises(ValueError):
        cs.StructureConstants.from_tensor(c)


def test_change_frame_identity():
    L = cs.StructureConstants.heisenberg3()
    L2 = cs.change_frame(L, np.eye(3))
    assert np.array_equal(L.c, L2.c)


def test_change_frame_vertical_scaling():
    # scaling diag(eps^-2, eps^-1) on the vertical block sends
    # C = [[0,1],[0,0]] to [[0, eps],[0,0]]
    eps = 0.1
    L = solvable_algebra(np.array([[0.0, 1.0], [0.0, 0.0]]))
    P = np.diag([eps ** -2, eps ** -1, 1.0])
    L2 = cs.change_frame(L, P)
    # [Y, V_2] = eps V_1 is the only surviving bracket
    expected = np.zeros((3, 3, 3))
    expected[2, 1, 0] = eps
    expected[1, 2, 0] = -eps
    assert np.allclose(L2.c, expected, atol=1e-15)


def test_change_frame_two_block_scaling():
    # the +-lambda two-block logarithm with the off-diagonal brought to eps
    lam = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    C = np.array([[lam, math.exp(-lam), 0, 0],
                  [0, lam, 0, 0],
                  [0, 0, -lam, math.exp(lam)],
                  [0, 0, 0, -lam]])
    eps = 0.05
    alpha = 1.0
    scale = [eps ** alpha, eps ** (alpha + 1) * math.exp(lam),
             eps ** alpha, eps ** (alpha + 1) * math.exp(-lam)]
    L = solvable_algebra(C)
    L2 = cs.change_frame(L, np.diag(scale + [1.0]))
    # read the vertical block back off the bracket [Y, V_i]
    C_eps = np.array([[-L2.c[i, 4, j] for i in range(4)] for j in range(4)])
    expected = np.array([[lam, eps, 0, 0], [0, lam, 0, 0],
                         [0, 0, -lam, eps], [0, 0, 0, -lam]])
    assert np.max(np.abs(C_eps - expected)) <= 1e-12


def test_change_frame_singular_rejected():
    L = cs.StructureConstants.heisenberg3()
    with pytest.raises(cs.CollapseSpectraError,
                       match=r"\|det P\| = 0.0 below"):
        cs.change_frame(L, np.zeros((3, 3)))


def test_exterior_derivative_heisenberg_column():
    eps, tau = 0.1, 1.0
    L = cs.StructureConstants.heisenberg3(eps ** tau)
    d1 = cs.exterior_derivative(L, 1)
    basis2 = FormBasis(3, 2)
    col = d1[:, 2]
    assert col[basis2.rank[(0, 1)]] == -eps ** tau
    assert np.count_nonzero(d1) == 1


def test_exterior_derivative_abelian_zero():
    L = cs.StructureConstants.abelian(4)
    for p in range(5):
        assert not np.any(cs.exterior_derivative(L, p))


def test_exterior_derivative_degree_errors():
    L = cs.StructureConstants.heisenberg3()
    with pytest.raises(cs.CollapseSpectraError,
                       match=re.escape("degree 4 not in [0, 3]")):
        cs.exterior_derivative(L, 4)
    with pytest.raises(cs.CollapseSpectraError,
                       match=re.escape("degree -1 not in [0, 3]")):
        cs.exterior_derivative(L, -1)


def test_codifferential_heisenberg():
    eps, tau = 0.2, 1.0
    L = cs.StructureConstants.heisenberg3(eps ** tau)
    delta2 = cs.exterior_derivative(L, 1).T
    basis2 = FormBasis(3, 2)
    assert delta2[2, basis2.rank[(0, 1)]] == -eps ** tau


def _random_valid_algebra(rng):
    kind = rng.integers(0, 3)
    n = int(rng.integers(2, 5))
    if kind == 0:
        return solvable_algebra(rng.uniform(-2, 2, (n, n)))
    if kind == 1:
        b = rng.uniform(-2, 2, n)
        return cs.nil_algebra(b)
    return cs.StructureConstants.abelian(n + 1)


def test_d_squared_zero_under_frame_changes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        L = _random_valid_algebra(rng)
        P = rng.uniform(-1, 1, (L.n, L.n)) + 2.0 * np.eye(L.n)
        L2 = cs.change_frame(L, P)
        for p in range(L2.n):
            dd = cs.exterior_derivative(L2, p + 1) @ cs.exterior_derivative(L2, p)
            if dd.size:
                assert np.max(np.abs(dd)) <= 1e-12


def test_laplacian_heisenberg_eigenvalues():
    for eps, tau in ((0.5, 1.0), (0.1, 1.0), (0.1, 0.0)):
        L = cs.StructureConstants.heisenberg3(eps ** tau)
        vals = np.linalg.eigvalsh(cs.laplacian(L, 1))
        assert np.allclose(np.sort(vals), [0.0, 0.0, eps ** (2 * tau)],
                           atol=1e-15)


def test_laplacian_abelian_zero():
    L = cs.StructureConstants.abelian(4)
    for p in range(5):
        assert not np.any(cs.laplacian(L, p))


def test_laplacian_solvable_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        C = rng.uniform(-3, 3, (n, n))
        lap = cs.laplacian(solvable_algebra(C), 1)
        expected = np.zeros((n + 1, n + 1))
        expected[:n, :n] = C @ C.T
        assert np.max(np.abs(lap - expected)) <= 1e-12


def test_spectrum_examples():
    rep = cs.spectrum(cs.nil_algebra([1.0, 0.0]), 1)
    assert rep.kernel_dim == 3
    assert np.allclose(rep.eigenvalues, [0, 0, 0, 1], atol=1e-12)

    rep = cs.spectrum(cs.StructureConstants.abelian(3), 2)
    assert rep.kernel_dim == 3 and len(rep.eigenvalues) == 3

    rep = cs.spectrum(solvable_algebra(np.array([[0.0, 1.0], [0.0, 0.0]])), 1)
    assert rep.kernel_dim == 2
    assert np.allclose(rep.eigenvalues, [0, 0, 1], atol=1e-12)


def test_spectrum_multiplicity_groups_sum():
    L = cs.nil_algebra([1.0, 0.0])
    for p in range(L.n + 1):
        rep = cs.spectrum(L, p)
        assert len(rep.eigenvalues) == math.comb(L.n, p)
        assert np.all(rep.eigenvalues >= 0.0)


def test_unimodularity_defect():
    assert cs.unimodularity_defect(cs.StructureConstants.abelian(3)) == 0.0
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert cs.unimodularity_defect(solvable_algebra(B)) == 0.0
    L = cs.StructureConstants.from_brackets(2, {(0, 1, 1): 1.0})
    assert cs.unimodularity_defect(L) == 1.0


def _assert_matches_assembled(L):
    """Check spectrum(L, p) at every p against eigvalsh of the assembled
    Laplacian, which no Gram block or mirror enters; returns the
    assembled spectra."""
    assembled = []
    for p in range(L.n + 1):
        want, kernel = clamp_spectra(np.linalg.eigvalsh(cs.laplacian(L, p)))
        got = cs.spectrum(L, p)
        scale = max(1.0, float(want[-1]))
        assert np.max(np.abs(got.eigenvalues - want)) <= 1e-12 * scale, p
        assert got.kernel_dim == kernel, p
        assembled.append(want)
    return assembled


def test_poincare_duality_unimodular():
    # spectrum(p) and spectrum(n - p) read mirrored Gram blocks on a
    # unimodular algebra, so duality of its own output holds by
    # construction; the assembled Laplacians are the oracle, in the
    # original frame and in a skewed one
    rng = np.random.default_rng(5)
    for _ in range(10):
        C = rng.uniform(-2, 2, (3, 3))
        C -= np.trace(C) / 3.0 * np.eye(3)
        L = solvable_algebra(C)
        assert cs.unimodularity_defect(L) <= 1e-12
        n = L.n
        P = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
        for M in (L, cs.change_frame(L, P)):
            assembled = _assert_matches_assembled(M)
            for p in range(n + 1):
                assert np.max(np.abs(assembled[p] - assembled[n - p])) <= 1e-9


def test_non_unimodular_spectrum_matches_assembled_laplacian():
    # tr ad_Y = tr B = 1: d_{n-1} is nonzero and G_p differs from
    # G_{n-1-p}, so every G_p must be solved directly
    rng = np.random.default_rng(6)
    for m in (2, 3, 4):
        B = rng.uniform(-2, 2, (m, m))
        B += (1.0 - np.trace(B)) / m * np.eye(m)
        L = solvable_algebra(B)
        assert cs.unimodularity_defect(L) >= 0.5
        n = L.n
        P = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
        for M in (L, cs.change_frame(L, P)):
            _assert_matches_assembled(M)


def _ce_spectra_algebras(seed):
    """The nil, solvable and dense algebras at n = 10 and 12 that the
    ce-spectra benchmark workload draws for ``seed``, in its draw order."""
    rng = np.random.default_rng([seed, 1])
    for n in (10, 12):
        b = rng.uniform(0.5, 2.0, size=n - 2) * rng.choice([-1.0, 1.0],
                                                           size=n - 2)
        B = rng.standard_normal((n - 1, n - 1))
        B -= np.trace(B) / (n - 1) * np.eye(n - 1)
        solvable = solvable_algebra(B)
        while True:
            P = rng.uniform(-1.0, 1.0, size=(n, n))
            if np.linalg.cond(P) < 50.0:
                break
        yield from (cs.nil_algebra(b), solvable, cs.change_frame(solvable, P))


@pytest.mark.parametrize("seed", [21, 37])
def test_hodge_mirror_matches_direct_gram(seed):
    for L in _ce_spectra_algebras(seed):
        n = L.n
        for p in range((n + 1) // 2, n):
            got = gram_eigenvalues(L, p)
            assert got is gram_eigenvalues(L, n - 1 - p), (n, p)
            want = stacked_gram_eigenvalues(L.c[None], p)[0]
            size = max(got.shape[1], len(want))
            got, want = (np.sort(np.concatenate((v, np.zeros(size - len(v)))))
                         for v in (got[0], want))
            top = float(want.max(initial=0.0))
            assert np.max(np.abs(got - want), initial=0.0) \
                <= 1e-12 * max(1.0, top), (n, p)
            cutoff = kernel_cutoff(top)
            assert np.sum(got <= cutoff) == np.sum(want <= cutoff), (n, p)


def test_frame_change_preserves_jacobi():
    # asserted for moderately conditioned frames; double precision cannot
    # hold 1e-9 for condition numbers up to 1e6
    rng = np.random.default_rng(13)
    for _ in range(20):
        L = _random_valid_algebra(rng)
        n = L.n
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = q1 @ np.diag(np.logspace(0, 3, n)) @ q2
        L2 = cs.change_frame(L, P)
        rel = jacobi_defect(L2.c) / max(1.0, float(np.max(np.abs(L2.c))))
        assert rel <= 1e-9


@given(st.integers(min_value=2, max_value=4), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_property_dd_zero_random_solvable(n, seed):
    rng = np.random.default_rng(seed)
    L = solvable_algebra(rng.uniform(-2, 2, (n, n)))
    for p in range(L.n):
        dd = cs.exterior_derivative(L, p + 1) @ cs.exterior_derivative(L, p)
        if dd.size:
            assert np.max(np.abs(dd)) <= 1e-12


def test_check_lie_tensors_flags_any_item_of_a_stack():
    good = cs.StructureConstants.heisenberg3().c
    check_lie_tensors(np.stack([good, good]))
    one_sided = good.copy()
    one_sided[0, 2, 1] = 0.1
    with pytest.raises(ValueError, match="antisymmetric"):
        check_lie_tensors(np.stack([good, one_sided, good]))
    raw = np.random.default_rng(3).standard_normal((3, 3, 3))
    no_jacobi = raw - np.transpose(raw, (1, 0, 2))
    assert jacobi_defect(no_jacobi) > 1e-3
    with pytest.raises(ValueError, match="Jacobi"):
        check_lie_tensors(np.stack([good, good, no_jacobi]))


def test_one_rank_rule_and_no_eigenvectors():
    # svd_nullspace holds the only numeric rank rule, and every count the
    # package reads off a spectrum needs eigenvalues only
    for path in Path(cs.__file__).parent.glob("*.py"):
        text = path.read_text()
        if path.name != "lie_complex.py":
            assert "RANK_TOL" not in text, path.name
        assert not re.search(r"\beigh\b", text), path.name
