import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import collapse_spectra as cs
from collapse_spectra import mapping_torus
from collapse_spectra.intlat import rational_rank
from collapse_spectra.mapping_torus import (_extend_numeric, small_threshold,
                                            semisimple_defect, solvable_algebra)
from oracles import collapse_rows_by_eps, int_product


def test_solvable_algebra_zero_is_abelian():
    L = solvable_algebra(np.zeros((3, 3)))
    assert not np.any(L.c) and L.n == 4


def test_solvable_algebra_shear_is_heisenberg():
    L = solvable_algebra(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # single bracket [Y, V_2] = V_1
    expected = np.zeros((3, 3, 3))
    expected[2, 1, 0] = 1.0
    expected[1, 2, 0] = -1.0
    assert np.array_equal(L.c, expected)


def test_solvable_algebra_rotation():
    two_pi = 2.0 * math.pi
    L = solvable_algebra(np.array([[0.0, two_pi], [-two_pi, 0.0]]))
    # [Y, V_1] = -2 pi V_2 and [Y, V_2] = 2 pi V_1
    assert L.c[2, 0, 1] == -two_pi and L.c[2, 1, 0] == two_pi


def test_invariants_dd():
    assert cs.invariants_dd(np.zeros((2, 2))) == (2, 2)
    assert cs.invariants_dd(np.array([[0.0, 1.0], [0.0, 0.0]])) == (2, 1)
    lam = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    C = np.array([[lam, math.exp(-lam), 0, 0], [0, lam, 0, 0],
                  [0, 0, -lam, math.exp(lam)], [0, 0, 0, -lam]])
    assert cs.invariants_dd(C) == (0, 0)


def test_invariants_rank_ambiguous():
    B = np.diag([1.0, 1e-9])
    with pytest.raises(cs.InputRejected,
                       match=r"^B: singular value \S+ too close to RANK_TOL"):
        cs.invariants_dd(B)


def _conjugated_jordan_type(rng, n):
    """Integer B = U diag(J, A) U^{-1}: J nilpotent with a random Jordan
    type, A upper triangular with diagonal entries +-1, +-2, U unimodular.
    Returns (B, chain lengths of J, longest first)."""
    d = int(rng.integers(0, n + 1))
    lengths = []
    while sum(lengths) < d:
        lengths.append(int(rng.integers(1, d - sum(lengths) + 1)))
    lengths.sort(reverse=True)
    core = [[0] * n for _ in range(n)]
    start = 0
    for length in lengths:
        for i in range(start, start + length - 1):
            core[i][i + 1] = 1
        start += length
    for i in range(d, n):
        core[i][i] = int(rng.choice([-2, -1, 1, 2]))
        for j in range(i + 1, n):
            core[i][j] = int(rng.integers(-3, 4))
    # each row operation on U is the inverse column operation on U^{-1}
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    U_inv = [row[:] for row in U]
    for _ in range(8):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        sign = int(rng.choice([-1, 1]))
        if i != j:
            U[i] = [x + sign * y for x, y in zip(U[i], U[j])]
            for row in U_inv:
                row[j] -= sign * row[i]
    assert int_product(U, U_inv) == [[int(i == j) for j in range(n)]
                                     for i in range(n)]
    return int_product(int_product(U, core), U_inv), lengths


def test_invariants_dd_exact_oracle():
    rng = np.random.default_rng(67)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        B, lengths = _conjugated_jordan_type(rng, n)
        power = B
        for _ in range(n - 1):
            power = int_product(B, power)
        expected = (n - rational_rank(power), n - rational_rank(B))
        assert expected == (sum(lengths), len(lengths))
        Bf = np.array(B, dtype=float)
        assert cs.invariants_dd(Bf) == expected
        assert cs.jordan_zero_chain(Bf).chain_lengths == tuple(lengths)


def test_invariants_agree_with_chains_on_wide_entries():
    # one entry far above the others: SVD ranks of B and B^n saw
    # (3, 2) or raised, while the chains see a single 3-block
    for big in (1e9, 1e10):
        B = np.array([[0.0, big, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert cs.invariants_dd(B) == (3, 1)
        info = cs.jordan_zero_chain(B)
        assert (info.d, info.d_prime, info.chain_lengths) == (3, 1, (3,))


def test_invariants_invertible_with_small_eigenvalues():
    # B^n shrinks the 1e-3 eigenvalues to 1e-12, below RANK_TOL; the
    # kernel tower stops at ker B = 0
    B = np.diag([1.0, 1e-3, -1.0, -1e-3])
    assert cs.invariants_dd(B) == (0, 0)
    with pytest.raises(cs.InputRejected,
                       match=re.escape("k: need 0 <= k <= d - d' = 0, got 1")):
        cs.collapse_family(B, 1)


def test_laplacian1_fast_examples():
    assert not np.any(cs.laplacian1_fast(np.zeros((2, 2))))
    fast = cs.laplacian1_fast(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(fast, np.diag([1.0, 0.0, 0.0]))


def test_laplacian1_fast_matches_engine():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        C = rng.uniform(-2, 2, (n, n))
        gap = cs.laplacian1_fast(C) - cs.laplacian(solvable_algebra(C), 1)
        assert np.max(np.abs(gap)) <= 1e-12


def test_laplacian1_fast_stack_matches_single_calls():
    rng = np.random.default_rng(52)
    for shape in [(7, 2, 2), (5, 6, 6), (4, 10, 10), (2, 3, 8, 8), (0, 4, 4)]:
        C = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        stack = cs.laplacian1_fast(C)
        assert stack.shape == shape[:-2] + (shape[-1] + 1,) * 2
        for idx in np.ndindex(shape[:-2]):
            assert stack[idx].tobytes() == cs.laplacian1_fast(C[idx]).tobytes()


def test_jordan_zero_chain_simple():
    info = cs.jordan_zero_chain(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert info.chain_lengths == (2,)
    assert info.d == 2 and info.d_prime == 1
    C = np.linalg.solve(info.frame,
                        np.array([[0.0, 1.0], [0.0, 0.0]]) @ info.frame)
    assert np.allclose(C, [[0, 1], [0, 0]], atol=1e-12)


def test_jordan_zero_chain_empty():
    info = cs.jordan_zero_chain(np.diag([1.0, -1.0]))
    assert info.chain_lengths == ()
    assert info.d == 0 and info.d_prime == 0
    assert np.allclose(info.frame.T @ info.frame, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("B", [
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
    np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.3, 1.5]]),
])
def test_jordan_zero_chain_complement_orthonormal(B):
    info = cs.jordan_zero_chain(B)
    n, d = B.shape[0], info.d
    assert d < n and info.heights[d:] == (0,) * (n - d)
    comp = info.frame[:, d:]
    assert np.allclose(comp.T @ comp, np.eye(n - d), atol=1e-12)
    assert np.allclose(info.frame[:, :d].T @ comp, 0.0, atol=1e-12)


def test_extend_numeric_orthogonal_to_base():
    cands = np.eye(3)[:, :2]
    base = np.array([[1.0], [1.0], [0.0]])
    (v,) = _extend_numeric(base, cands)
    assert abs(v @ base[:, 0]) <= 1e-12 and abs(np.linalg.norm(v) - 1) <= 1e-12


def test_extend_numeric_base_outside_span_raises():
    with pytest.raises(cs.InputRejected, match="^B: chain extraction is "
                                               "numerically degenerate$"):
        _extend_numeric(np.eye(3)[:, 2:], np.eye(3)[:, :2])


def test_jordan_zero_chain_recovery_round_trip():
    rng = np.random.default_rng(53)
    block3 = np.diag(np.ones(2), 1)
    mixed = np.zeros((3, 3))
    mixed[0, 1] = 1.0                        # chains (2, 1)
    for B, lengths in ((block3, (3,)), (mixed, (2, 1))):
        for _ in range(5):
            while True:
                P = rng.standard_normal((3, 3))
                if np.linalg.cond(P) < 40:
                    break
            similar = P @ B @ np.linalg.inv(P)
            info = cs.jordan_zero_chain(similar)
            assert info.chain_lengths == lengths


def test_jordan_zero_chain_block_structure():
    # adapted frame makes the E_0 block strictly upper triangular 0/1 and
    # zeroes the rows below it
    B = np.zeros((4, 4))
    B[0, 1] = 1.0
    B[2, 3] = 1.0
    info = cs.jordan_zero_chain(B)
    C = np.linalg.solve(info.frame, B @ info.frame)
    d = info.d
    assert info.chain_lengths == (2, 2) and d == 4
    for j in range(d):
        col = C[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        assert all(i < j for i in nz)
        assert all(abs(col[i] - 1.0) <= 1e-8 for i in nz)


def test_collapse_family_exponents():
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert cs.collapse_family(B, 1).exponents == (2, 1)
    assert cs.collapse_family(B, 0).exponents == (1, 1)
    B3 = np.diag(np.ones(2), 1)
    assert cs.collapse_family(B3, 2).exponents == (3, 2, 1)
    # a lone kernel vector ahead of a chain of length 3: chains are
    # numbered longest first, so the budget k = 2 goes to the long one
    B4 = np.zeros((4, 4))
    B4[1, 2] = B4[2, 3] = 1.0
    assert cs.jordan_zero_chain(B4).chain_lengths == (3, 1)
    assert cs.collapse_family(B4, 2).exponents == (3, 1, 2, 1)
    with pytest.raises(cs.InputRejected,
                       match=re.escape("k: need 0 <= k <= d - d' = 1, got 2")):
        cs.collapse_family(B, 2)


def test_run_collapse_exact_rate():
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    table = cs.run_collapse(B, 1, [0.5, 0.1, 0.01])
    for row in table.rows:
        nonzero = row.report.nonzero
        assert len(nonzero) == 1
        assert abs(float(nonzero[0]) - row.eps ** 2) <= 1e-12 * row.eps ** 2
        assert row.trace <= 1.0 + 1e-15
        assert row.report.kernel_dim == 2
    # the classifier fires once the eigenvalue drops under the cap
    assert [r.small_count for r in table.rows] == [0, 0, 1]


def test_run_collapse_homothety_constant():
    rng = np.random.default_rng(59)
    B = rng.uniform(-1, 1, (3, 3))
    B -= np.trace(B) / 3 * np.eye(3)
    table = cs.run_collapse(B, 0, [1.0, 0.5, 0.1, 0.01])
    base = table.rows[0].report.eigenvalues
    for row in table.rows:
        assert np.array_equal(row.report.eigenvalues, base)
        assert row.small_count == 0


def test_run_collapse_two_blocks():
    B = np.zeros((4, 4))
    B[0, 1] = 1.0
    B[2, 3] = 1.0
    grid = [2.0 ** -j for j in range(3, 11)]
    table = cs.run_collapse(B, 2, grid)
    for row in table.rows:
        expected = 2 if row.eps ** 2 < 1e-3 else 0
        assert row.small_count == expected
    table = cs.run_collapse(B, 1, grid)
    for row in table.rows:
        vals = np.sort(row.report.eigenvalues)[table.family.d_prime + 1:]
        assert vals[0] < 10.0 * row.eps ** 2
        assert vals[1] >= 1e-2


def test_small_threshold():
    assert small_threshold(0.5) == 1e-3
    assert small_threshold(0.001) == 10.0 * 0.001 * 0.001


def test_collapse_csv_shape():
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    text = cs.run_collapse(B, 1, [0.5, 0.25]).to_csv()
    lines = text.splitlines()
    assert lines[0] == "eps,eig_1,eig_2,eig_3,trace,max_k,small_count"
    assert len(lines) == 3


def test_semisimple_defect():
    assert semisimple_defect(np.diag([1.0, -1.0])) <= 1e-12
    assert semisimple_defect(np.zeros((2, 2))) <= 1e-12
    assert semisimple_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) > 1e-3
    assert semisimple_defect(np.diag([1e200, -1e200])) <= 1e-12


def test_semisimple_floor():
    rep = cs.semisimple_floor(np.diag([1.0, -1.0]), trials=200, seed=1)
    assert not rep.vacuous and rep.floor > 0.01 and rep.ok
    rep = cs.semisimple_floor(np.zeros((2, 2)), trials=5, seed=1)
    assert rep.vacuous and rep.ok
    with pytest.raises(ValueError,
                       match="B has a nontrivial nilpotent part"):
        cs.semisimple_floor(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_bundle_validation():
    A = [[1, 1], [0, 1]]
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    bundle = cs.MappingTorusBundle(A, B)
    assert len(bundle.a_matrix) == 2
    assert cs.invariants_dd(bundle.b_matrix) == (2, 1)
    with pytest.raises(ValueError,
                       match=re.escape("A must lie in SL_n(Z)")):
        cs.MappingTorusBundle([[2, 0], [0, 1]], B)
    with pytest.raises(ValueError, match=re.escape("exp(B) does not")):
        cs.MappingTorusBundle(A, np.zeros((2, 2)))
    # exp(6e-9 I) is within 1e-8 of I, but trace(B) = 1.2e-8
    with pytest.raises(ValueError, match=re.escape("trace(B) must vanish")):
        cs.MappingTorusBundle([[1, 0], [0, 1]], 6e-9 * np.eye(2))


def test_kernel_vs_betti():
    # agreement when A has no extra eigenvalue-1 structure
    A = [[2, 1], [1, 1]]
    lam, Q = np.linalg.eigh(np.array(A, dtype=float))
    B = Q @ np.diag(np.log(lam)) @ Q.T
    bundle = cs.MappingTorusBundle(A, B)
    rep = cs.spectrum(bundle.algebra(), 1)
    assert rep.kernel_dim == cs.betti1_mapping_torus(A).b1 == 1

    # strict inequality for the flat rotation example: kernel 1 < b1 = 3
    two_pi = 2.0 * math.pi
    rot = cs.MappingTorusBundle([[1, 0], [0, 1]],
                                np.array([[0.0, two_pi], [-two_pi, 0.0]]))
    rep = cs.spectrum(rot.algebra(), 1)
    assert rep.kernel_dim == 1
    assert cs.betti1_mapping_torus([[1, 0], [0, 1]]).b1 == 3

    # torus case: B = 0, all invariant forms harmonic
    torus = cs.MappingTorusBundle([[1, 0], [0, 1]], np.zeros((2, 2)))
    rep = cs.spectrum(torus.algebra(), 1)
    assert rep.kernel_dim == 3 == cs.betti1_mapping_torus([[1, 0], [0, 1]]).b1


def test_kernel_dim_invariant_over_frames():
    rng = np.random.default_rng(61)
    for name, B in (("shear", np.array([[0.0, 1.0], [0.0, 0.0]])),
                    ("hyperbolic", np.diag([1.0, -1.0]))):
        d, d_prime = cs.invariants_dd(B)
        for _ in range(50):
            while True:
                P = rng.uniform(-1, 1, (2, 2))
                if abs(np.linalg.det(P)) > 0.1 and np.linalg.cond(P) < 50:
                    break
            C = np.linalg.solve(P, B @ P)
            rep = cs.SpectrumReport.from_eigenvalues(
                np.linalg.eigvalsh(cs.laplacian1_fast(C)))
            assert rep.kernel_dim == d_prime + 1
            assert len(rep.nonzero) == 2 - d_prime


def test_run_collapse_mixed_spectrum():
    # Jordan 2-block at zero next to a hyperbolic block: d = 2, d' = 1,
    # so one eigenvalue collapses while the invertible block holds firm
    B = np.zeros((4, 4))
    B[0, 1] = 1.0
    B[2, 2] = 1.0
    B[3, 3] = -1.0
    assert cs.invariants_dd(B) == (2, 1)
    fam = cs.collapse_family(B, 1)
    tr1 = float(np.sum(fam.c_matrix(1.0) ** 2))
    assert fam.trace == tr1
    table = cs.run_collapse(B, 1, [2.0 ** -j for j in range(1, 11)])
    for row in table.rows:
        vals = np.sort(row.report.eigenvalues)[table.family.d_prime + 1:]
        assert abs(float(vals[0]) - row.eps ** 2) <= 1e-9 * row.eps ** 2
        assert float(vals[1]) >= 0.99
        assert row.trace <= tr1 + 1e-9


def test_run_collapse_numeric_chain_path():
    # similarity with float entries forces the SVD chain path
    rng = np.random.default_rng(4)
    J = np.diag(np.ones(2), 1)
    while True:
        P = rng.standard_normal((3, 3))
        if np.linalg.cond(P) < 20:
            break
    B = P @ J @ np.linalg.inv(P)
    assert not np.array_equal(B, np.round(B))
    info = cs.jordan_zero_chain(B)
    assert info.chain_lengths == (3,)
    table = cs.run_collapse(B, 2, [2.0 ** -j for j in range(2, 9)])
    for row in table.rows:
        vals = np.sort(row.report.eigenvalues)[table.family.d_prime + 1:]
        assert np.all(vals < 10.0 * row.eps ** 2)


def test_four_dim_solvable_with_torus_topology():
    # rotation block next to a shear: homeomorphic to a nilmanifold bundle
    # with b1 = 4, yet only 2 invariant harmonic 1-forms
    two_pi = 2.0 * math.pi
    A = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    B = np.zeros((4, 4))
    B[0, 1] = two_pi
    B[1, 0] = -two_pi
    B[2, 3] = 1.0
    bundle = cs.MappingTorusBundle(A, B)
    assert cs.betti1_mapping_torus(A).b1 == 4
    rep = cs.spectrum(bundle.algebra(), 1)
    assert rep.kernel_dim == 2       # d' + 1 with d' = 1


def test_semisimple_floor_cap_rejected():
    with pytest.raises(ValueError):
        cs.semisimple_floor(np.diag([1.0, -1.0]), trials=5, curvature_cap=0.5)


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
def test_semisimple_floor_rejects_non_finite_cap(cap):
    # a NaN cap never stops the halving, so every frame shrank to t < 1e-8
    with pytest.raises(ValueError, match="curvature_cap"):
        cs.semisimple_floor(np.diag([1.0, -1.0]), trials=5, curvature_cap=cap)


@pytest.mark.parametrize("trials", [0, -3, 10_001, 2.5])
def test_semisimple_floor_rejects_trials_out_of_range(trials):
    # zero trials used to report floor = inf with ok = True, and 2.5 a
    # TypeError from range
    for B in (np.diag([1.0, -1.0]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="trials"):
            cs.semisimple_floor(B, trials=trials)


def reference_solvable_algebra(B):
    """solvable_algebra as a bracket loop through from_brackets."""
    n = B.shape[0]
    brackets = {}
    for i in range(n):
        for j in range(n):
            if B[j, i] != 0.0:
                brackets[(i, n, j)] = brackets.get((i, n, j), 0.0) - B[j, i]
    return cs.StructureConstants.from_brackets(n + 1, brackets)


def test_solvable_algebra_bit_identical_to_bracket_loop():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        B = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
        B[0, 0] = -0.0
        want = reference_solvable_algebra(B).c
        assert solvable_algebra(B).c.tobytes() == want.tobytes(), n


def reference_semisimple_floor(B, trials, seed):
    """The floor trial by trial: one frame, one algebra and one spectrum
    per degree at a time.  Returns the floor and the number of halvings."""
    n = B.shape[0]
    cap = 2.0 * float(np.sum(B * B)) + 1.0
    rng = np.random.default_rng(seed)
    floor, halvings = float("inf"), 0
    for _ in range(trials):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        u = rng.uniform(-2.0, 2.0, size=n)
        t = 1.0
        while True:
            P = q1 @ np.diag(np.exp(t * u)) @ q2
            C = np.linalg.solve(P, B @ P)
            if float(np.sum(C * C)) <= cap or t < 1e-8:
                break
            t /= 2.0
            halvings += 1
        L = solvable_algebra(C)
        for p in range(1, n + 1):
            rep = cs.spectrum(L, p)
            if rep.nonzero.size:
                floor = min(floor, float(rep.nonzero[0]))
    return floor, halvings


def _semisimple(rng, n, trace_free=False):
    lam = rng.uniform(-1.5, 1.5, size=n)
    if trace_free:
        lam -= lam.mean()
    s = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
    B = s @ np.diag(lam) @ np.linalg.inv(s)
    return B - np.trace(B) / n * np.eye(n) if trace_free else B


def test_semisimple_floor_bit_identical_to_trial_loop():
    rng = np.random.default_rng(41)
    # diag(1, -1) at seed 1 halves t in many of its 200 trials; 40 trials
    # span a full chunk and a partial one
    cases = [(np.diag([1.0, -1.0]), 200, 1)]
    cases += [(_semisimple(rng, n), 40, seed) for n in (2, 3, 4, 5)
              for seed in (3, 8)]
    # a trace-free B, the case of every mapping torus, gives unimodular
    # algebras, whose spectrum mirrors G_p and, at n + 1 = 4, folds G_1
    rng = np.random.default_rng(5)
    cases += [(_semisimple(rng, n, trace_free=True), 40, seed)
              for n in (3, 4, 5) for seed in range(6)]
    halvings = []
    for B, trials, seed in cases:
        want, halved = reference_semisimple_floor(B, trials, seed)
        halvings.append(halved)
        got = cs.semisimple_floor(B, trials=trials, seed=seed).floor
        assert got.hex() == want.hex(), (B.shape[0], seed)
    assert halvings[0] == 119
    assert sum(h > 0 for h in halvings) >= 2, halvings


def test_semisimple_floor_bit_identical_to_trial_loop_at_n6():
    # the chunked stacks are cut on both sides; each member's Gram block
    # must still reach BLAS as it does alone, which the smaller n above
    # do not show
    rng = np.random.default_rng(41)
    for trace_free in (False, True):
        B = _semisimple(rng, 6, trace_free=trace_free)
        want, _ = reference_semisimple_floor(B, 40, 1)
        got = cs.semisimple_floor(B, trials=40, seed=1).floor
        assert got.hex() == want.hex(), trace_free


def test_run_collapse_rejects_bad_grid():
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        cs.run_collapse(B, 1, [1.5])
    with pytest.raises(cs.InputRejected, match=re.escape(
            "k: need 0 <= k <= d - d' = 1, got -1")):
        cs.collapse_family(B, -1)


@pytest.mark.parametrize("grid", [[0.5, 0.0], [math.nan], [0.5, -0.25],
                                  [1.5], [0.5, math.inf]])
def test_eps_grid_is_checked_before_anything_else(grid, monkeypatch):
    # every entry outside (0, 1], NaN included, is rejected by the grid
    # rule before the family is built, never by the kernel-cutoff rule
    B = np.array([[0.0, 1.0], [0.0, 0.0]])

    def refuse(*args):
        raise AssertionError("built a collapse family for a bad grid")

    monkeypatch.setattr(mapping_torus, "collapse_family", refuse)
    for call in (lambda: cs.run_collapse(B, 1, grid),
                 lambda: cs.collapse_direction([1.0, 2.0], [1, 0], grid),
                 lambda: cs.vol_bound_experiment(
                     cs.TorusBundleOverT2((1,)), [1.0], grid)):
        with pytest.raises(cs.InputRejected) as info:
            call()
        assert info.value.key == "eps_grid"
        assert info.value.message == (f"eps grid must lie in (0, 1] and be "
                                      f"nonempty, got {tuple(grid)!r}")


def _collapse_matrices(rng):
    """Seeded B with n = 2..10: nilpotent Jordan types with an invertible
    diagonal block, as integer matrices under a signed permutation and as
    float matrices under a random frame."""
    for n in range(2, 11):
        for exact in (True, False):
            sizes, left = [], n
            while left:
                sizes.append(int(rng.integers(1, left + 1)))
                left -= sizes[-1]
            J = np.zeros((n, n))
            start = 0
            for size in sizes:
                if size == 1 and rng.random() < 0.5:
                    J[start, start] = float(rng.choice([-2.0, 1.0, 3.0]))
                for i in range(start, start + size - 1):
                    J[i, i + 1] = 1.0
                start += size
            if exact:
                P = np.eye(n)[rng.permutation(n)] \
                    * rng.choice([-1.0, 1.0], size=n)
                yield P @ J @ P.T
            else:
                P = np.linalg.qr(rng.standard_normal((n, n)))[0] \
                    @ np.diag(rng.uniform(0.5, 2.0, size=n))
                yield P @ J @ np.linalg.inv(P)


def test_run_collapse_stack_matches_per_eps_loop():
    rng = np.random.default_rng(23)
    cases = 0
    for B in _collapse_matrices(rng):
        d, d_prime = cs.invariants_dd(B)
        for k in range(d - d_prime + 1):
            grids = [2.0 ** -rng.uniform(0.0, 7.0, size=6), [0.3],
                     [1.0, 0.5, 0.125]]
            for grid in grids:
                table = cs.run_collapse(B, k, grid)
                got = np.array(
                    [[r.eps, *r.report.eigenvalues, r.report.kernel_dim,
                      r.trace, r.max_k, r.small_count] for r in table.rows],
                    dtype=float).reshape(len(table.rows), B.shape[0] + 6)
                want = collapse_rows_by_eps(table.family, grid)
                assert got.tobytes() == want.tobytes(), (B, k, grid)
            cases += 1
    assert cases >= 40, cases


def _floor_script():
    path = (Path(__file__).resolve().parent.parent / "scripts"
            / "semisimple_floor_experiment.py")
    spec = importlib.util.spec_from_file_location("floor_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv,message", [
    (["--trials", "0"], "trials must be an integer in 1..10000, got 0"),
    (["--cap", "nan"], "need a finite number"),
    (["--b", "0 1; 0 0"], "nilpotent part"),
    (["--b", "1 0; 0"], "--b: need a square matrix"),
    # Tr(B^T B) overflows: was an OverflowError traceback at 1e200 and a
    # RuntimeWarning at 1e154
    (["--b", "1e200 0; 0 -1e200"], "--b: B needs Tr(B^T B) to be a finite"),
    (["--b", "1e154 0; 0 -1e154"], "--b: B needs Tr(B^T B) to be a finite"),
    # the default cap 2 Tr(B^T B) + 1 overflows to inf: was a Gram
    # overflow and a floor of 0 (exit 1)
    (["--b", "7e153 0; 0 -7e153"], "--b: default cap 2 Tr(B^T B) + 1 = inf "
                                   "is above float max / (n + 1)^2"),
])
def test_floor_script_reports_rejected_input(argv, message, monkeypatch,
                                             capsys):
    monkeypatch.setattr(sys, "argv", ["semisimple_floor_experiment.py"] + argv)
    assert _floor_script().main() == 2
    out, err = capsys.readouterr()
    # every rejection names the flag it came from
    assert out == "" and err.startswith(f"error: {argv[0]}: ")
    assert message in err


def test_semisimple_floor_scales_up_to_its_cap_bound():
    # the caps scale with B, so the same frames pass them and the floor
    # scales by 1e306, with no overflow on the way
    B = np.diag([1.0, -1.0])
    small = cs.semisimple_floor(B, trials=5, curvature_cap=4.0).floor
    big = cs.semisimple_floor(1e153 * B, trials=5, curvature_cap=4e306).floor
    assert big == pytest.approx(1e306 * small, rel=1e-12)
    limit = np.finfo(float).max / 9
    assert cs.semisimple_floor(B, trials=5, curvature_cap=limit).ok
    with pytest.raises(cs.InputRejected, match=r"^curvature_cap: cap = "):
        cs.semisimple_floor(B, trials=5, curvature_cap=limit * (1 + 1e-15))


def test_floor_script_passes(monkeypatch, capsys):
    # for 1e153 at seed 0 a drawn frame's Tr(C^T C) overflows, which only
    # fails the cap (was a RuntimeWarning); its default cap 4e306 is
    # under float max / 9 = 2e307
    for argv in (["--seed", "1"], ["--b", "1e153 0; 0 -1e153"]):
        monkeypatch.setattr(sys, "argv", ["semisimple_floor_experiment.py",
                                          "--trials", "5", *argv])
        assert _floor_script().main() == 0
        assert "above the 1e-4 sanity line" in capsys.readouterr().out
