"""The table-driven exterior derivative against its loop definition, the
stacked assembly against each algebra on its own, the kernel
dimensions of integer algebras against exact ranks, and spectra from
the Hodge split against the assembled Laplacian."""

import dataclasses
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
from collapse_spectra.lie_complex import (FormBasis, clamp_spectra, form_dim,
                                          hodge_union, kernel_cutoff,
                                          stacked_derivative,
                                          stacked_gram_eigenvalues)
from collapse_spectra.mapping_torus import solvable_algebra


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
    dom = FormBasis(n, p)
    D = np.zeros((form_dim(n, p + 1), len(dom.rank)))
    if p == 0 or p == n:
        return D
    cod = FormBasis(n, p + 1)
    for I, col in dom.rank.items():
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
                    D[cod.rank[J], col] += -coeff * sign_t * s
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
    with pytest.raises(cs.CollapseSpectraError,
                       match=re.escape("degree 4 not in [0, 3]")):
        cs.laplacian(cs.StructureConstants(c[0]), 4)
    with pytest.raises(ValueError):
        stacked_derivative(c[0], 1)


def test_clamp_spectra_stack_matches_reports():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 3.0, (4, 6))
    vals[0, :2] = [0.0, 1e-12]
    vals[1, :3] = [-5e-10, 2e-10, 0.0]
    vals[2] *= 1e4
    vals[2, 0] = 5e-6
    clamped, kernel = clamp_spectra(vals)
    for t in range(len(vals)):
        rep = cs.SpectrumReport.from_eigenvalues(vals[t])
        assert np.array_equal(clamped[t], rep.eigenvalues)
        assert kernel[t] == rep.kernel_dim
    assert list(kernel) == [2, 3, 1, 0]
    assert kernel_cutoff(float(np.max(vals[2]))) == 1e-9 * float(np.max(vals[2]))
    assert kernel_cutoff(0.5) == 1e-9
    vals[3, 4] = -1e-3
    with pytest.raises(ValueError, match="below -EIG_TOL"):
        clamp_spectra(vals)
    empty = clamp_spectra(np.zeros((3, 0)))
    assert empty[0].shape == (3, 0) and list(empty[1]) == [0, 0, 0]


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
    # columns of d_p, or a unimodular G_p solved again instead of
    # mirrored from G_{n-1-p} fails here deterministically
    lc = cs.lie_complex
    builds, solves = [], []
    real_d, real_eig = lc.stacked_derivative, lc.np.linalg.eigvalsh

    def counting_d(c, p):
        builds.append(p)
        return real_d(c, p)

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
        # a unimodular algebra builds d_p for p <= (n - 1) / 2 and p = n
        # only; the other G_p are those of G_{n-1-p}
        built = list(range(9)) if kind == "not unimodular" else [0, 1, 2, 3, 8]
        builds.clear()
        solves.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lc, "stacked_derivative", counting_d)
            patch.setattr(lc.np.linalg, "eigvalsh", counting_eig)
            for p in range(L.n + 1):
                cs.spectrum(L, p)
            for p in reversed(range(L.n + 1)):
                cs.spectrum(L, p)
        assert builds == built, kind
        assert solves == [(1, sides[p], sides[p]) for p in built], kind
        assert all(m <= bound(p) for p, m in enumerate(sides)), (kind, sides)
        if kind == "dense":
            assert sides == [0, 8, 28, 56, 56, 28, 8, 1, 0]


def test_mixed_stack_deflates_on_the_union_of_nonzero_patterns():
    # the sparse member first: masks taken from it alone would cut the
    # rows and columns the dense member needs
    n = 7
    rng = np.random.default_rng(21)
    algebras = [_algebra(kind, n, rng)
                for kind in ("nil", "solvable", "dense", "abelian")]
    stack = np.stack([L.c for L in algebras])
    gram_prev = np.zeros((len(algebras), 0))
    for p in range(n + 1):
        gram_p = stacked_gram_eigenvalues(stack, p)
        vals, kernel = clamp_spectra(
            hodge_union(gram_p, gram_prev, form_dim(n, p)))
        gram_prev = gram_p
        for t, L in enumerate(algebras):
            want = cs.spectrum(cs.StructureConstants(L.c), p)
            scale = max(1.0, float(want.eigenvalues[-1]))
            assert (np.max(np.abs(vals[t] - want.eigenvalues))
                    <= 1e-12 * scale), (p, t)
            assert kernel[t] == want.kernel_dim, (p, t)
        abelian = algebras[-1]
        assert stacked_gram_eigenvalues(abelian.c[None], p).shape == (1, 0)
        assert cs.spectrum(abelian, p).kernel_dim == math.comb(n, p)
