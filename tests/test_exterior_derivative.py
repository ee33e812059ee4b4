"""The table-driven exterior derivative against its loop definition, and
the kernel dimensions of integer algebras against exact ranks."""

import math
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_spectra as cs
from collapse_spectra.intlat import rational_rank
from collapse_spectra.lie_complex import FormBasis, form_dim
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
    D = np.zeros((form_dim(n, p + 1), len(dom)))
    if p == 0 or p == n:
        return D
    cod = FormBasis(n, p + 1)
    for col, I in enumerate(dom.tuples):
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
