"""The table-driven exterior derivative against its loop definition, the
stacked assembly against each algebra on its own, the kernel
dimensions of integer algebras against exact ranks, and spectra from
the Hodge split against the assembled Laplacian."""

import dataclasses
import itertools
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_spectra as cs
from collapse_spectra.intlat import rational_rank
from collapse_spectra.lie_complex import (clamp_spectra, form_dim, hodge_union,
                                          kernel_cutoff, stacked_derivative,
                                          stacked_gram_eigenvalues, unimodular)
from collapse_spectra.mapping_torus import solvable_algebra
from oracles import direct_gram_eigenvalues


def _wedge_insert(base: tuple, extra: tuple):
    """Sign and sorted tuple of base wedge extra, or (0, None) if repeated."""
    merged = base + extra
    if len(set(merged)) != len(merged):
        return 0, None
    arr = list(merged)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(arr)


def reference_exterior_derivative(L, p):
    """d: Lambda^p -> Lambda^{p+1} by the antiderivation rule, one
    contribution at a time in the order column, generator position, pair."""
    n = L.n
    dom, cod = (list(itertools.combinations(range(n), q)) for q in (p, p + 1))
    D = np.zeros((len(cod), len(dom)))
    if p == 0 or p == n:
        return D
    cod = {J: row for row, J in enumerate(cod)}
    for col, I in enumerate(dom):
        for t, gen in enumerate(I):
            rest = I[:t] + I[t + 1:]
            sign_t = -1.0 if t % 2 else 1.0
            for i in range(n):
                for j in range(i + 1, n):
                    coeff = L.c[i, j, gen]
                    if coeff == 0.0:
                        continue
                    s, J = _wedge_insert(rest, (i, j))
                    if J is None:
                        continue
                    D[cod[J], col] += -coeff * sign_t * s
    return D


def _trace_free(rng, m):
    B = rng.standard_normal((m, m))
    return B - np.trace(B) / m * np.eye(m)


def _algebra(kind, n, rng):
    """One n-dimensional algebra of the given kind (n >= 2)."""
    if kind == "nil":
        return cs.nil_algebra(rng.uniform(-2, 2, n - 2))
    if kind == "abelian":
        return cs.StructureConstants.abelian(n)
    L = solvable_algebra(_trace_free(rng, n - 1))
    if kind == "dense":
        P = rng.uniform(-1, 1, (n, n)) + 2.0 * np.eye(n)
        L = cs.change_frame(L, P)
    return L


def _assert_bit_identical(L):
    for p in range(L.n + 1):
        got = cs.exterior_derivative(L, p)
        want = reference_exterior_derivative(L, p)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (L.n, p)


def test_exterior_derivative_bit_identical_to_loop():
    rng = np.random.default_rng(2024)
    kinds = ("nil", "solvable", "dense", "abelian")
    # the dense n = 10 loop dominates the cost, so it runs once
    cases = [(kind, n) for n in range(2, 10) for kind in kinds
             for _ in range(3)]
    cases += [(kind, 10) for kind in kinds]
    assert len(cases) >= 100
    for kind, n in cases:
        _assert_bit_identical(_algebra(kind, n, rng))


@given(st.integers(2, 5), st.sampled_from(("nil", "solvable", "dense")),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_property_exterior_derivative_matches_loop(n, kind, seed):
    _assert_bit_identical(_algebra(kind, n, np.random.default_rng(seed)))


def test_d_pattern_not_built_at_import():
    code = ("import collapse_spectra as cs\n"
            "from collapse_spectra import lie_complex\n"
            "assert lie_complex._d_pattern.cache_info().currsize == 0\n"
            "cs.spectrum(cs.StructureConstants.heisenberg3(), 1)\n"
            "assert lie_complex._d_pattern.cache_info().currsize == 1\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_d_pattern_tables_are_compact_and_frozen():
    flat, idx = cs.lie_complex._d_pattern(12, 6)
    assert flat.dtype == np.int32 and idx.dtype == np.int16
    assert not flat.flags.writeable and not idx.flags.writeable
    # every column, generator position and pair i < j disjoint from the rest
    assert len(flat) == math.comb(12, 6) * 6 * math.comb(7, 2)


def _integer_algebras():
    rng = np.random.default_rng(31)
    yield cs.StructureConstants.heisenberg3()
    for n in (3, 4, 6):
        yield cs.nil_algebra(rng.integers(-3, 4, n))
    for m in (2, 3, 5, 7):
        B = rng.integers(-2, 3, (m, m)).astype(float)
        yield solvable_algebra(B)


def test_kernel_dim_matches_exact_rank():
    # Hodge theory on the finite complex: dim ker Delta_p is
    # C(n, p) - rank d_p - rank d_{p-1}, and integer structure constants
    # give integer d matrices whose rank is exact over Q
    for L in _integer_algebras():
        n = L.n
        assert n <= 8
        ranks = [rational_rank(cs.exterior_derivative(L, p))
                 for p in range(n + 1)]
        for p in range(n + 1):
            expected = math.comb(n, p) - ranks[p] - (ranks[p - 1] if p else 0)
            assert cs.spectrum(L, p).kernel_dim == expected, (n, p)


def reference_laplacian(L, p, derivative=reference_exterior_derivative):
    """d delta + delta d of one algebra from 2-D products of d matrices."""
    dim = form_dim(L.n, p)
    out = np.zeros((dim, dim))
    if p < L.n:
        d_p = derivative(L, p)
        out += d_p.T @ d_p
    if p > 0:
        d_prev = derivative(L, p - 1)
        out += d_prev @ d_prev.T
    return out


def _assert_stack_matches(algebras):
    stack = np.stack([L.c for L in algebras])
    n = algebras[0].n
    for p in range(n + 1):
        d = stacked_derivative(stack, p)
        assert d.shape == (len(algebras), form_dim(n, p + 1), form_dim(n, p))
        for t, L in enumerate(algebras):
            assert np.array_equal(d[t], reference_exterior_derivative(L, p))
            assert np.array_equal(d[t], cs.exterior_derivative(L, p))
            assert np.array_equal(cs.laplacian(L, p),
                                  reference_laplacian(L, p)), (n, p, t)


@given(st.integers(2, 7),
       st.sampled_from((1, 3)).flatmap(lambda count: st.lists(
           st.sampled_from(("nil", "solvable", "dense")),
           min_size=count, max_size=count)),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_property_stacked_assembly_matches_each_algebra(n, kinds, seed):
    rng = np.random.default_rng(seed)
    _assert_stack_matches([_algebra(kind, n, rng) for kind in kinds])


def test_laplacian_dense_n10_from_exterior_derivative():
    L = _algebra("dense", 10, np.random.default_rng(10))
    for p in range(L.n + 1):
        lap = cs.laplacian(L, p)
        want = reference_laplacian(L, p, cs.exterior_derivative)
        assert lap.shape == want.shape
        assert np.array_equal(lap, want), p
        assert np.array_equal(np.linalg.eigvalsh(lap),
                              np.linalg.eigvalsh(want)), p


def test_stacked_assembly_rejects_bad_input():
    c = np.zeros((2, 3, 3, 3))
    with pytest.raises(ValueError,
                       match=re.escape("degree 4 not in [0, 3]")):
        cs.laplacian(cs.StructureConstants(c[0]), 4)
    with pytest.raises(ValueError):
        stacked_derivative(c[0], 1)


@pytest.mark.parametrize("kind", ["dense", "not unimodular"])
def test_spectrum_rejects_degrees_outside_the_complex(kind):
    # G_0 and G_n are returned without assembly, so degrees -1 and n + 1
    # must still reach the degree check, with and without the mirror
    rng = np.random.default_rng(2)
    L = (_algebra("dense", 5, rng) if kind == "dense"
         else solvable_algebra(_trace_free(rng, 4) + np.eye(4)))
    assert L.is_unimodular == (kind == "dense")
    for p in (-1, L.n + 1):
        message = re.escape(f"degree {p} not in [0, {L.n}]")
        with pytest.raises(ValueError, match=message):
            cs.spectrum(L, p)
        for all_uni in (True, False):
            with pytest.raises(ValueError, match=message):
                stacked_gram_eigenvalues(L.c[None], p, {}, all_uni)
    assert not L._gram_eigs


def test_clamp_spectra_stack_matches_reports():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 3.0, (4, 6))
    vals[0, :2] = [0.0, 1e-12]
    vals[1, :3] = [-5e-10, 2e-10, 0.0]
    vals[2] *= 1e4
    vals[2, 0] = 5e-6
    vals.sort(axis=1)                 # clamp_spectra takes ascending rows
    clamped, kernel = clamp_spectra(vals)
    for t in range(len(vals)):
        rep = cs.SpectrumReport.from_eigenvalues(vals[t])
        assert np.array_equal(clamped[t], rep.eigenvalues)
        assert kernel[t] == rep.kernel_dim
    assert list(kernel) == [2, 3, 1, 0]
    assert kernel_cutoff(float(np.max(vals[2]))) == 1e-9 * float(np.max(vals[2]))
    assert kernel_cutoff(0.5) == 1e-9
    vals[3, 0] = -1e-3
    with pytest.raises(ValueError, match="below -EIG_TOL"):
        clamp_spectra(vals)
    empty = clamp_spectra(np.zeros((3, 0)))
    assert empty[0].shape == (3, 0) and list(empty[1]) == [0, 0, 0]


def test_spectra_clamp_negative_rounding_to_zero():
    # dense frames of trace-free solvable algebras leave some raw kernel
    # eigenvalues just below zero, of G_p and of the assembled Laplacian.
    # hodge_union keeps the negative Gram ones out of the spectrum (its
    # zero padding ranks above them), so the Laplacian's reach the clamp
    rng = np.random.default_rng(8)
    negative_gram = negative_laplacian = 0
    for _ in range(20):
        L = _algebra("dense", 6, rng)
        for p in range(L.n + 1):
            assert cs.spectrum(L, p).eigenvalues.min() >= 0.0, p
            raw = np.linalg.eigvalsh(cs.laplacian(L, p))
            assert clamp_spectra(raw)[0].min() >= 0.0, p
            negative_laplacian += int(raw.min() < 0.0)
        solves = {id(v): v for v in L._gram_eigs.values()}.values()
        negative_gram += sum(bool((v < 0).any()) for v in solves)
    assert negative_gram > 0 and negative_laplacian > 0


@given(st.integers(2, 8), st.sampled_from(("nil", "solvable", "dense")),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_property_hodge_split_matches_laplacian(n, kind, seed):
    L = _algebra(kind, n, np.random.default_rng(seed))
    for p in range(n + 1):
        rep = cs.spectrum(L, p)
        want, kernel = clamp_spectra(np.linalg.eigvalsh(cs.laplacian(L, p)))
        scale = max(1.0, float(want[-1]))
        assert rep.eigenvalues.shape == want.shape
        assert np.max(np.abs(rep.eigenvalues - want)) <= 1e-12 * scale, (n, p)
        assert rep.kernel_dim == kernel, (n, p)


def test_spectrum_memo_is_invisible():
    L = _algebra("dense", 7, np.random.default_rng(12))
    swept = cs.StructureConstants(L.c)
    for p in range(L.n + 1):
        fresh = cs.spectrum(cs.StructureConstants(L.c), p)
        got = cs.spectrum(swept, p)
        assert got.eigenvalues.tobytes() == fresh.eigenvalues.tobytes(), p
        assert got.kernel_dim == fresh.kernel_dim, p
    assert swept._gram_eigs and not L._gram_eigs
    assert repr(swept) == repr(L)
    (memo,) = [f for f in dataclasses.fields(L) if f.name == "_gram_eigs"]
    assert not (memo.init or memo.repr or memo.compare)
    assert not dataclasses.replace(swept, c=L.c)._gram_eigs
    # a one-dimensional tensor compares as a truth value, so == is direct
    one = cs.StructureConstants.abelian(1)
    cs.spectrum(one, 1)
    assert one._gram_eigs and one == cs.StructureConstants.abelian(1)


def _deflated_side(L, p):
    """Side of G_p: the smaller of the nonzero row and column counts of d_p."""
    d = cs.exterior_derivative(L, p)
    return int(min(d.any(axis=1).sum(), d.any(axis=0).sum()))


def test_sweep_builds_each_d_and_solves_each_gram_once(monkeypatch):
    # counts, not timings: two d builds per degree, a C(n, p)-sized solve
    # of the assembled Laplacian, a G_p that keeps the zero rows and
    # columns of d_p, a unimodular G_p solved again instead of mirrored
    # from G_{n-1-p}, a dense G_3 not folded by the Hodge star, an empty
    # G_0 or G_n assembled or solved, or the unimodular rule decided more
    # than once per algebra fails here deterministically
    lc = cs.lie_complex
    builds, solves, decisions = [], [], []
    real_d, real_eig = lc._assemble, lc.np.linalg.eigvalsh
    real_uni = lc.unimodular

    def counting_d(c, p, cut, fold):
        builds.append(p)
        return real_d(c, p, cut, fold)

    def counting_uni(c):
        decisions.append(len(c))
        return real_uni(c)

    def counting_eig(a):
        solves.append(a.shape)
        return real_eig(a)

    rng = np.random.default_rng(8)
    # bounds on the side of G_p at n = 8: the full one for a dense frame;
    # d is nonzero only into forms with the coform of Y (solvable) or of
    # both Y_1 and Y_2 (nil)
    for kind, bound in (
            ("dense", lambda p: min(form_dim(8, p), form_dim(8, p + 1))),
            ("solvable", lambda p: form_dim(7, p)),
            ("nil", lambda p: form_dim(6, p - 1)),
            ("not unimodular", lambda p: form_dim(7, p))):
        if kind == "not unimodular":
            L = solvable_algebra(_trace_free(rng, 7) + np.eye(7))
        else:
            L = _algebra(kind, 8, rng)
        sides = [_deflated_side(L, p) for p in range(L.n + 1)]
        # G_0 and G_8 are empty and neither built nor solved; a unimodular
        # algebra builds d_p for 1 <= p <= (n - 1) / 2 only, the other G_p
        # are those of G_{n-1-p}, and the rule is decided once
        built = list(range(1, 8)) if kind == "not unimodular" else [1, 2, 3]
        builds.clear()
        solves.clear()
        decisions.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lc, "_assemble", counting_d)
            patch.setattr(lc.np.linalg, "eigvalsh", counting_eig)
            patch.setattr(lc, "unimodular", counting_uni)
            for p in range(L.n + 1):
                cs.spectrum(L, p)
            for p in reversed(range(L.n + 1)):
                cs.spectrum(L, p)
        # the dense G_3 is solved folded, on C(8, 4) / 2 = 35 rows; the
        # solvable block ties at 35 and the nil block has 15, so neither
        # folds, and the non-unimodular algebra fails the rule
        solved = [35 if (kind, p) == ("dense", 3) else sides[p] for p in built]
        assert builds == built, kind
        assert solves == [(1, m, m) for m in solved], kind
        assert decisions == [1], kind
        assert all(m <= bound(p) for p, m in enumerate(sides)), (kind, sides)
        if kind == "dense":
            assert sides == [0, 8, 28, 56, 56, 28, 8, 1, 0]


def test_mixed_stack_deflates_on_the_union_of_nonzero_patterns():
    # the sparse member first: masks taken from it alone would cut the
    # rows and columns the dense member needs; each member is checked
    # against its own direct solve, which takes neither mirror nor fold
    n = 7
    rng = np.random.default_rng(21)
    algebras = [_algebra(kind, n, rng)
                for kind in ("nil", "solvable", "dense", "abelian")]
    stack = np.stack([L.c for L in algebras])
    uni = bool(unimodular(stack).all())
    grams = {}
    gram_prev = np.zeros((len(algebras), 0))
    for p in range(n + 1):
        gram_p = stacked_gram_eigenvalues(stack, p, grams, uni)
        vals, kernel = clamp_spectra(
            hodge_union(gram_p, gram_prev, form_dim(n, p)))
        gram_prev = gram_p
        for t, L in enumerate(algebras):
            want, want_kernel = clamp_spectra(hodge_union(
                direct_gram_eigenvalues(L.c[None], p),
                direct_gram_eigenvalues(L.c[None], p - 1) if p
                else np.zeros((1, 0)), form_dim(n, p)))
            scale = max(1.0, float(want[0, -1]))
            assert np.max(np.abs(vals[t] - want[0])) <= 1e-12 * scale, (p, t)
            assert kernel[t] == want_kernel[0], (p, t)
        abelian = algebras[-1]
        assert stacked_gram_eigenvalues(abelian.c[None], p, {},
                                        True).shape == (1, 0)
        assert cs.spectrum(abelian, p).kernel_dim == math.comb(n, p)


def test_gram_block_drops_rows_and_columns_that_cancel():
    # trace 2, so no mirror: three rows and three columns of d_2 receive
    # nonzero contributions, and one row and one column of them sum to an
    # exact zero, which the block must drop as a full d_2 would
    L = solvable_algebra(np.diag([1.0, -1.0, 2.0]))
    block = cs.lie_complex._assemble(L.c[None], 2, True, False)
    d = cs.exterior_derivative(L, 2)
    assert block.shape == (1, 3, 3)
    assert ((d != 0).any(axis=1).sum(), (d != 0).any(axis=0).sum()) == (2, 2)
    gram = cs.lie_complex.gram_eigenvalues(L, 2)
    assert gram.shape == (1, 2)
    assert gram.tobytes() == direct_gram_eigenvalues(L.c[None], 2).tobytes()
    stack = np.stack([L.c, _algebra("dense", 4, np.random.default_rng(4)).c])
    assert not unimodular(stack).all()
    assert (stacked_gram_eigenvalues(stack, 2, {}, False).tobytes()
            == direct_gram_eigenvalues(stack, 2).tobytes())


def test_fold_scatters_a_block_that_misses_rows(monkeypatch):
    # two solvable models with the coform of Y at opposite ends: the union
    # block of d_3 lacks the 15 rows of 4-forms with neither, yet has more
    # than C(8, 4) / 2 = 35 rows and columns, so G_3 is folded, from the
    # fold tables cut to the rows and columns their live terms touch
    lc = cs.lie_complex
    rng = np.random.default_rng(6)
    flip = cs.change_frame(solvable_algebra(_trace_free(rng, 7)),
                           np.eye(8)[::-1])
    stack = np.stack([solvable_algebra(_trace_free(rng, 7)).c, flip.c])
    block = lc._assemble(stack, 3, True, False)
    assert block.shape == (2, 55, 50) and unimodular(stack).all()
    solves = []
    real_eig = lc.np.linalg.eigvalsh
    monkeypatch.setattr(lc.np.linalg, "eigvalsh",
                        lambda a: solves.append(a.shape) or real_eig(a))
    folded = stacked_gram_eigenvalues(stack, 3, {}, True)
    assert solves == [(2, 35, 35)]
    # the fold keeps the nonzero spectrum of G_3, whose rank is at most 35
    direct = direct_gram_eigenvalues(stack, 3)
    scale = float(direct.max())
    assert np.max(np.abs(direct[:, -35:] - folded)) <= 1e-12 * scale
    assert np.max(np.abs(direct[:, :-35])) <= 1e-12 * scale


def test_stacked_gram_bits_match_each_member_alone():
    # a stack cut on both sides still hands BLAS each member's block as a
    # matrix of its own, so G_p of every member has the bits of a solve of
    # that member alone on the same rows and columns; the solvable member
    # is not unimodular, so no degree is mirrored
    rng = np.random.default_rng(5)
    n = 7
    algebras = [solvable_algebra(rng.standard_normal((n - 1, n - 1))),
                _algebra("nil", n, rng),
                solvable_algebra(np.diag(rng.integers(-2, 3, n - 1)) * 1.0)]
    stack = np.stack([L.c for L in algebras])
    for p in range(n + 1):
        assert (stacked_gram_eigenvalues(stack, p, {}, False).tobytes()
                == direct_gram_eigenvalues(stack, p).tobytes()), p


def test_stack_mirrors_only_when_every_member_is_unimodular(monkeypatch):
    # one member outside the rule sends the whole stack to the direct
    # solve at every degree; a unimodular stack builds d_p only for
    # 1 <= p <= (n - 1) / 2.  The caller decides the rule once per stack,
    # so the sweep itself never calls unimodular
    lc = cs.lie_complex
    builds, decisions = [], []
    real_d, real_uni = lc._assemble, lc.unimodular
    monkeypatch.setattr(lc, "_assemble", lambda c, p, cut, fold:
                        builds.append(p) or real_d(c, p, cut, fold))
    monkeypatch.setattr(lc, "unimodular", lambda c:
                        decisions.append(len(c)) or real_uni(c))
    rng = np.random.default_rng(3)
    uni = solvable_algebra(_trace_free(rng, 5))
    other = solvable_algebra(_trace_free(rng, 5) + np.eye(5))
    for members, flags, built in (([uni, uni], [True, True], [1, 2]),
                                  ([uni, other], [True, False],
                                   list(range(1, 6)))):
        stack = np.stack([L.c for L in members])
        assert real_uni(stack).tolist() == flags
        builds.clear()
        grams = {}
        for p in range(7):
            stacked_gram_eigenvalues(stack, p, grams, all(flags))
        assert builds == built, flags
        assert [v.shape for p, v in grams.items() if p in (0, 6)] \
            == [(2, 0), (2, 0)], flags
    assert decisions == []
