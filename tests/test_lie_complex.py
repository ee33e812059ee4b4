import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_spectra as cs
from collapse_spectra.lie_complex import (_d_pattern, _fold_pattern,
                                          _hodge_star, check_lie_tensors,
                                          clamp_spectra, form_dim,
                                          gram_eigenvalues, kernel_cutoff,
                                          stacked_gram_eigenvalues,
                                          subset_rank, unimodular)
from collapse_spectra.mapping_torus import solvable_algebra
from oracles import (direct_gram_eigenvalues, folded_gram_eigenvalues,
                     jacobi_defect, solvable_spectra)


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


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 3)])
def test_constructor_rejects_a_tensor_that_is_not_cubic(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"structure tensor must be (n,n,n), got {shape}")):
        cs.StructureConstants(np.zeros(shape))


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
    with pytest.raises(ValueError,
                       match=r"\|det P\| = 0.0 below"):
        cs.change_frame(L, np.zeros((3, 3)))


def test_exterior_derivative_heisenberg_column():
    eps, tau = 0.1, 1.0
    L = cs.StructureConstants.heisenberg3(eps ** tau)
    d1 = cs.exterior_derivative(L, 1)
    col = d1[:, 2]
    assert col[subset_rank(3, 2)[0b011]] == -eps ** tau
    assert np.count_nonzero(d1) == 1


def test_exterior_derivative_abelian_zero():
    L = cs.StructureConstants.abelian(4)
    for p in range(5):
        assert not np.any(cs.exterior_derivative(L, p))


def test_exterior_derivative_degree_errors():
    L = cs.StructureConstants.heisenberg3()
    with pytest.raises(ValueError,
                       match=re.escape("degree 4 not in [0, 3]")):
        cs.exterior_derivative(L, 4)
    with pytest.raises(ValueError,
                       match=re.escape("degree -1 not in [0, 3]")):
        cs.exterior_derivative(L, -1)


def test_codifferential_heisenberg():
    eps, tau = 0.2, 1.0
    L = cs.StructureConstants.heisenberg3(eps ** tau)
    delta2 = cs.exterior_derivative(L, 1).T
    assert delta2[2, subset_rank(3, 2)[0b011]] == -eps ** tau


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


def test_spectrum_matches_compound_closed_form_at_every_degree():
    # spec Delta_p of the solvable model is sigma^2(C^[p]) u
    # sigma^2(C^[p-1]): a second algorithm for deflation, hodge_union and
    # clamp_spectra at every degree, and for the Hodge mirror on the
    # trace-free C with n + 1 = 4, 8, 12; tr C = 2^-30 must not mirror
    rng = np.random.default_rng(9)
    cases = []
    for t in range(15):
        n = 2 + t % 5
        C = rng.uniform(-2.0, 2.0, (n, n))
        if t % 3 == 0:          # integer diagonal, often singular
            C = np.diag(rng.integers(-2, 3, n).astype(float))
        cases.append(C)
    for n, trace in ((3, 0.0), (7, 0.0), (11, 0.0), (4, 2.0 ** -30)):
        C = rng.standard_normal((n, n))
        diag = rng.integers(-8, 9, n) / 4.0
        diag[-1] = trace - diag[:-1].sum()  # exact: tr C = trace
        np.fill_diagonal(C, diag)
        cases.append(C)
    for C in cases:
        L = solvable_algebra(C)
        assert unimodular(L.c[None])[0] == (np.trace(C) == 0)
        for p, want in enumerate(solvable_spectra(C)):
            got = cs.spectrum(L, p).eigenvalues
            assert len(got) == len(want) == math.comb(len(C) + 1, p)
            assert np.max(np.abs(got - want)) <= 1e-12 * want[-1], \
                (len(C), p)


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
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    algebras = [cs.StructureConstants.abelian(3).c, solvable_algebra(B).c,
                cs.StructureConstants.from_brackets(2, {(0, 1, 1): 1.0}).c]
    for c, want in zip(algebras, (0.0, 0.0, 1.0)):
        assert cs.unimodularity_defect(c[None]).tolist() == [want]
    # one defect per member of a stack, the same as each member alone
    stack = np.stack([algebras[1], 3.0 * algebras[1]])
    stack[1, 2, 0, 0] = -0.25
    assert cs.unimodularity_defect(stack).tolist() == [0.0, 0.25]
    assert cs.unimodularity_defect(np.zeros((2, 0, 0, 0))).tolist() == [0, 0]


def test_subset_rank_is_the_lexicographic_position():
    for n in range(8):
        for p in range(n + 1):
            rank = subset_rank(n, p)
            assert rank.shape == (1 << n,) and not rank.flags.writeable
            assert rank is subset_rank(n, p)
            for r, K in enumerate(itertools.combinations(range(n), p)):
                assert rank[sum(1 << i for i in K)] == r, (n, p, K)


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
        assert cs.unimodularity_defect(L.c[None])[0] <= 1e-12
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
        assert cs.unimodularity_defect(L.c[None])[0] >= 0.5
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
            want = direct_gram_eigenvalues(L.c[None], p)[0]
            size = max(got.shape[1], len(want))
            got, want = (np.sort(np.concatenate((v, np.zeros(size - len(v)))))
                         for v in (got[0], want))
            top = float(want.max(initial=0.0))
            assert np.max(np.abs(got - want), initial=0.0) \
                <= 1e-12 * max(1.0, top), (n, p)
            cutoff = kernel_cutoff(top)
            assert np.sum(got <= cutoff) == np.sum(want <= cutoff), (n, p)


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_hodge_star_table_is_a_signed_pairing(n):
    # the sign of e_J ^ e_{J^c} = s_J vol is the parity of the shuffle
    # (J, J^c), counted here by brute force over all pairs of positions;
    # J is the leading half of the basis, which the fold reads as a view
    m = n // 2
    combos = list(itertools.combinations(range(n), m))
    J, Jc, sign = _hodge_star(n)
    assert list(J) == list(range(len(combos) // 2))
    assert sorted([*J, *Jc]) == list(range(len(combos)))
    for r, rc, s in zip(J, Jc, sign):
        seq = combos[r] + combos[rc]
        assert combos[r][0] == 0 and sorted(seq) == list(range(n))
        inversions = sum(seq[a] > seq[b] for a in range(n)
                         for b in range(a + 1, n))
        assert s == (-1) ** inversions, combos[r]


def _dense_algebra(rng, n, trace):
    """The solvable algebra of a random B with tr B = ``trace`` in a
    random frame, so that all n^3 structure constants are nonzero; it is
    unimodular exactly when ``trace`` is 0."""
    B = rng.standard_normal((n - 1, n - 1))
    B += (trace - np.trace(B)) / (n - 1) * np.eye(n - 1)
    P = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
    return cs.change_frame(solvable_algebra(B), P)


def _star_matrix(n):
    """The Hodge star on Lambda^{n/2} as a dense signed permutation."""
    J, Jc, sign = _hodge_star(n)
    S = np.zeros((form_dim(n, n // 2),) * 2)
    S[Jc, J] = sign
    S[J, Jc] = sign
    return S


def test_hodge_star_commutes_with_the_middle_laplacian_iff_unimodular():
    S = _star_matrix(8)
    assert np.array_equal(S, S.T) and np.array_equal(S @ S, np.eye(len(S)))
    rng = np.random.default_rng(28)
    for trace, commutes in ((0.0, True), (1.0, False)):
        L = _dense_algebra(rng, 8, trace)
        lap = cs.laplacian(L, 4)
        gap = np.linalg.norm(S @ lap @ S - lap)
        assert (gap <= 1e-12 * np.linalg.norm(lap)) == commutes, trace


@pytest.mark.parametrize("n", [4, 8])
def test_folded_middle_gram_matches_direct_gram(n):
    # gram_eigenvalues folds d_{n/2-1} by the star when n % 4 == 0, so it
    # solves C(n, n/2) / 2 rows; the direct solve never folds
    p = n // 2 - 1
    rng = np.random.default_rng(n)
    for _ in range(20):
        L = _dense_algebra(rng, n, 0.0)
        got = gram_eigenvalues(L, p)[0]
        assert len(got) == form_dim(n, p + 1) // 2
        want = direct_gram_eigenvalues(L.c[None], p)[0]
        got = np.sort(np.concatenate((np.zeros(len(want) - len(got)), got)))
        top = float(want[-1])
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, top)
        cutoff = kernel_cutoff(top)
        assert np.sum(got <= cutoff) == np.sum(want <= cutoff)


def test_folded_solve_holds_only_its_fold():
    # the dense n = 12 fold E of G_5 is assembled from tables of its own,
    # so no d_5 is built: the traced peak is E and the two table-length
    # temporaries of the assembly, the taken weights and bincount's intp
    # copy of the positions
    L = _dense_algebra(np.random.default_rng(12), 12, 0.0)
    terms = len(_fold_pattern(12)[0])  # built outside the trace
    tracemalloc.start()
    try:
        vals = gram_eigenvalues(L, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (1, 462)
    assert peak <= 8 * (462 * 792 + 2 * terms) + 256 * 1024, peak


@pytest.mark.parametrize("p, side", [(4, 495), (5, 462)])
def test_gram_solve_holds_only_the_gram_matrix(p, side, monkeypatch):
    # d_p, or the fold E of the dense n = 12 G_5, and its block are
    # dropped once the Gram matrix is formed, before eigvalsh runs
    L = _dense_algebra(np.random.default_rng(12), 12, 0.0)
    _d_pattern(12, p)  # the cached tables are built outside the trace
    _fold_pattern(12)
    real_eig, held = np.linalg.eigvalsh, []
    monkeypatch.setattr(cs.lie_complex.np.linalg, "eigvalsh", lambda a: (
        held.append(tracemalloc.get_traced_memory()[0]) or real_eig(a)))
    tracemalloc.start()
    try:
        vals = gram_eigenvalues(L, p)
    finally:
        tracemalloc.stop()
    assert vals.shape == (1, side) and len(held) == 1
    assert held[0] <= 8 * side * side + 256 * 1024, held


def _hex(vals):
    return [float(x).hex() for x in np.ravel(vals)]


def test_folded_tables_have_the_bits_of_the_fold_of_d():
    # E from its own tables sums each entry as d[J] + s_J d[J^c] formed
    # from the assembled d does, so the folded solve has the bits of that
    # reference; the nil and solvable models do not fold and keep the
    # bits of the direct solve
    rng = np.random.default_rng(40)
    for n in (4, 8, 12):
        L = _dense_algebra(rng, n, 0.0)
        got = gram_eigenvalues(L, n // 2 - 1)
        assert got.shape == (1, form_dim(n, n // 2) // 2), n
        assert _hex(got) == _hex(folded_gram_eigenvalues(L.c[None])), n
    stack = np.stack([_dense_algebra(rng, 8, 0.0).c for _ in range(3)])
    assert unimodular(stack).all()
    assert (_hex(stacked_gram_eigenvalues(stack, 3, {}, True))
            == _hex(folded_gram_eigenvalues(stack)))
    for n in (8, 12):
        B = rng.standard_normal((n - 1, n - 1))
        for L in (cs.nil_algebra(rng.uniform(-2, 2, n - 2)),
                  solvable_algebra(B - np.trace(B) / (n - 1) * np.eye(n - 1))):
            assert L.is_unimodular
            assert (_hex(gram_eigenvalues(L, n // 2 - 1))
                    == _hex(direct_gram_eigenvalues(L.c[None], n // 2 - 1)))


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
    # mapping_torus.svd_nullspace holds the only numeric rank rule, and
    # every count the package reads off a spectrum needs eigenvalues only
    for path in Path(cs.__file__).parent.glob("*.py"):
        text = path.read_text()
        if path.name != "mapping_torus.py":
            assert "RANK_TOL" not in text, path.name
        assert not re.search(r"\beigh\b", text), path.name
