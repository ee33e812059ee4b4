"""Invariant-form complex of a finite-dimensional Lie algebra.

A Lie algebra is given by its structure constants in a frame that is
declared orthonormal.  The exterior derivative on invariant forms is
determined by ``d xi^k (e_i, e_j) = -c[i][j][k]`` (the dual of the
bracket, extended as an antiderivation), the codifferential is its
transpose, and the form Laplacian is ``d delta + delta d``.  Metrics are
never stored separately: changing the metric means rewriting the
structure constants in a new frame via :func:`change_frame`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeOutOfRange, RankAmbiguous, SingularFrame

#: Relative Jacobi tolerance accepted by validating constructors.
JACOBI_TOL = 1e-9
#: Symmetry tolerance for assembled Laplacians.
SYM_TOL = 1e-10
#: Eigenvalues above -EIG_TOL (times scale) are clamped to zero.
EIG_TOL = 1e-9
#: Relative tolerance for grouping eigenvalues into multiplicity classes.
GROUP_RTOL = 1e-8
#: Frame changes with |det P| below this are rejected.
SINGULAR_TOL = 1e-12
#: Singular values above RANK_TOL count toward a numerical rank.
RANK_TOL = 1e-9


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants c[i,j,k] meaning [e_i, e_j] = sum_k c[i,j,k] e_k.

    The frame (e_1, ..., e_n) is declared orthonormal.  Instances are
    immutable; the tensor is stored with both (i,j) and (j,i) entries so
    antisymmetry is a storage property, not a convention the caller must
    remember.
    """

    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure tensor must be (n,n,n), got {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @classmethod
    def from_tensor(cls, c, validate: bool = True) -> "StructureConstants":
        """Wrap a raw (n,n,n) tensor.

        With ``validate=True`` the tensor must be antisymmetric in (i,j)
        and satisfy the Jacobi identity up to the relative tolerance
        ``JACOBI_TOL``.  ``validate=False`` accepts anything, which is
        useful for probing the defect of a broken bracket table.
        """
        L = cls(np.asarray(c, dtype=float))
        if validate:
            anti = np.max(np.abs(L.c + np.transpose(L.c, (1, 0, 2))))
            scale = max(1.0, float(np.max(np.abs(L.c))))
            if anti > JACOBI_TOL * scale:
                raise ValueError(f"tensor not antisymmetric in (i,j): defect {anti}")
            defect = jacobi_defect(L)
            if defect > JACOBI_TOL * scale:
                raise ValueError(f"Jacobi defect {defect} exceeds tolerance")
        return L

    @classmethod
    def from_brackets(cls, n: int, brackets: dict) -> "StructureConstants":
        """Build from a map {(i, j, k): value} with 0-based indices, i < j.

        Antisymmetric counterparts are filled in automatically.
        """
        c = np.zeros((n, n, n))
        for (i, j, k), v in brackets.items():
            if not (0 <= i < j < n and 0 <= k < n):
                raise ValueError(f"bad bracket index ({i},{j},{k}) for n={n}")
            c[i, j, k] += float(v)
            c[j, i, k] -= float(v)
        return cls.from_tensor(c)

    @classmethod
    def abelian(cls, n: int) -> "StructureConstants":
        return cls(np.zeros((n, n, n)))

    @classmethod
    def heisenberg3(cls, eta: float = 1.0) -> "StructureConstants":
        """[e_1, e_2] = eta e_3, all other brackets zero."""
        return cls.from_brackets(3, {(0, 1, 2): eta})

    def ad(self, i: int) -> np.ndarray:
        """Matrix of ad_{e_i}: column j holds the components of [e_i, e_j]."""
        return self.c[i].T.copy()

    def ad_vector(self, u) -> np.ndarray:
        """Matrix of ad_u for a coefficient vector u."""
        u = np.asarray(u, dtype=float)
        return np.einsum("i,ijk->kj", u, self.c)

    def direct_sum(self, other: "StructureConstants") -> "StructureConstants":
        """Block direct sum of two algebras (used for product manifolds)."""
        n1, n2 = self.n, other.n
        c = np.zeros((n1 + n2,) * 3)
        c[:n1, :n1, :n1] = self.c
        c[n1:, n1:, n1:] = other.c
        return StructureConstants(c)


def jacobi_defect(L: StructureConstants) -> float:
    """Max-norm of the Jacobi cyclic-sum tensor; zero iff L is a Lie algebra.

    Works on raw tensors too (no antisymmetry assumed), so it can be used
    to measure how badly a perturbed table fails.
    """
    c = L.c
    # [[e_i,e_j],e_k]^m = sum_l c[i,j,l] c[l,k,m]
    t1 = np.einsum("ijl,lkm->ijkm", c, c)
    cyc = t1 + np.transpose(t1, (1, 2, 0, 3)) + np.transpose(t1, (2, 0, 1, 3))
    return float(np.max(np.abs(cyc))) if c.size else 0.0


def unimodularity_defect(L: StructureConstants) -> float:
    """max_i |trace(ad_{e_i})|; zero for unimodular algebras."""
    # trace(ad_i) = sum_j c[i,j,j]
    traces = np.einsum("ijj->i", L.c)
    return float(np.max(np.abs(traces))) if L.n else 0.0


def change_frame(L: StructureConstants, P, p_inv=None) -> StructureConstants:
    """Rewrite the brackets in the frame f_j = sum_i P[i,j] e_i.

    The new frame is declared orthonormal, which is how metrics enter
    every computation in this package.  ``p_inv`` may be supplied when an
    exact inverse is known (e.g. unitriangular connection changes).
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (L.n, L.n):
        raise ValueError(f"frame matrix must be {L.n}x{L.n}")
    det = np.linalg.det(P)
    if abs(det) < SINGULAR_TOL:
        raise SingularFrame(f"|det P| = {abs(det)} below {SINGULAR_TOL}")
    Pi = np.asarray(p_inv, dtype=float) if p_inv is not None else np.linalg.inv(P)
    c_new = np.einsum("ia,jb,ijk,mk->abm", P, P, L.c, Pi, optimize=True)
    return StructureConstants(c_new)


@dataclass(frozen=True)
class FormBasis:
    """Lexicographically ordered basis of degree-p invariant forms.

    Basis elements are strictly increasing index tuples (i_1 < ... < i_p);
    the ordering is deterministic across runs.
    """

    n: int
    degree: int
    tuples: tuple = field(default=None)
    rank: dict = field(default=None, repr=False)

    def __post_init__(self):
        if not (0 <= self.degree <= self.n):
            raise DegreeOutOfRange(f"degree {self.degree} not in [0, {self.n}]")
        tuples = tuple(itertools.combinations(range(self.n), self.degree))
        object.__setattr__(self, "tuples", tuples)
        object.__setattr__(self, "rank", {t: r for r, t in enumerate(tuples)})

    def __len__(self) -> int:
        return len(self.tuples)


def form_dim(n: int, p: int) -> int:
    return math.comb(n, p) if 0 <= p <= n else 0


@functools.lru_cache(maxsize=None)
def _d_pattern(n: int, p: int):
    """Index tables of d: Lambda^p -> Lambda^{p+1}, fixed by (n, p) alone.

    Returns ``(flat, idx)``: contribution m adds ``w[idx[m]]`` to entry
    ``flat[m] = row * C(n, p) + col`` of d_p, where ``w`` is
    ``concat(-c.ravel(), c.ravel())``, so the sign sits in the index.
    The contributions to any one entry share its column and come in the
    order of the loop definition of d (generator position t, then pair
    i < j), which fixes the order of every entry's floating-point sum.
    Requires 1 <= p < n; int32 and int16 hold every position and index
    up to n = 18, beyond which d_p itself would not fit in memory.
    """
    dom = np.array(list(itertools.combinations(range(n), p)), dtype=np.int64)
    dom_mask = np.sum(np.int64(1) << dom, axis=1)
    cod_mask = np.sum(np.int64(1) << np.array(
        list(itertools.combinations(range(n), p + 1)), dtype=np.int64), axis=1)
    rank = np.zeros(1 << n, dtype=np.int32)
    rank[cod_mask] = np.arange(len(cod_mask), dtype=np.int32)
    # parity of the popcount of every n-bit mask
    parity = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        parity = np.concatenate((parity, parity ^ 1))
    pi, pj = np.triu_indices(n, 1)
    pair_mask = (np.int64(1) << pi) | (np.int64(1) << pj)
    flats, idxs = [], []
    for t in range(p):
        gen = dom[:, t]
        rest = dom_mask & ~(np.int64(1) << gen)
        col, pair = np.nonzero((rest[:, None] & pair_mask[None, :]) == 0)
        r, i, j = rest[col], pi[pair], pj[pair]
        # sorting rest + (i, j) takes one transposition per element of
        # rest above i and one per element above j
        odd = parity[r >> (i + 1)] ^ parity[r >> (j + 1)] ^ (t % 2)
        # d xi^k carries -c, so an even total sign picks the -c half of w
        idx = (i * n + j) * n + gen[col] + odd * n ** 3
        idxs.append(idx.astype(np.int16))
        flats.append(rank[r | pair_mask[pair]] * np.int32(len(dom))
                     + col.astype(np.int32))
    flat, idx = np.concatenate(flats), np.concatenate(idxs)
    flat.setflags(write=False)
    idx.setflags(write=False)
    return flat, idx


def exterior_derivative(L: StructureConstants, p: int) -> np.ndarray:
    """Matrix of d: Lambda^p -> Lambda^{p+1} in the lexicographic bases.

    On degree-1 generators, d xi^k = -sum_{i<j} c[i,j,k] xi^i ^ xi^j;
    higher degrees follow by the antiderivation rule.  The matrix is
    assembled from index tables cached per (n, p) with one
    ``np.bincount``, which adds the contributions to each entry in the
    order of the loop over generator positions and then pairs i < j, so
    the result is bit-identical to that loop definition.  The tables take
    about 2.8 MB for all p at n = 12 and 18 MB at n = 14, less for each n
    than its largest Laplacian.
    """
    if not (0 <= p <= L.n):
        raise DegreeOutOfRange(f"degree {p} not in [0, {L.n}]")
    n = L.n
    dom_dim, cod_dim = form_dim(n, p), form_dim(n, p + 1)
    if p == 0 or p == n:
        return np.zeros((cod_dim, dom_dim))
    flat, idx = _d_pattern(n, p)
    c = L.c.ravel()
    w = np.concatenate((-c, c))[idx]
    return np.bincount(flat, weights=w,
                       minlength=cod_dim * dom_dim).reshape(cod_dim, dom_dim)


def codifferential(L: StructureConstants, p: int) -> np.ndarray:
    """Matrix of delta: Lambda^p -> Lambda^{p-1}; the transpose of d_{p-1}
    because the wedge bases of an orthonormal frame are orthonormal."""
    if not (1 <= p <= L.n):
        raise DegreeOutOfRange(f"degree {p} not in [1, {L.n}]")
    return exterior_derivative(L, p - 1).T.copy()


def laplacian(L: StructureConstants, p: int) -> np.ndarray:
    """Form Laplacian d delta + delta d on degree p, symmetric PSD."""
    if not (0 <= p <= L.n):
        raise DegreeOutOfRange(f"degree {p} not in [0, {L.n}]")
    dim = form_dim(L.n, p)
    out = np.zeros((dim, dim))
    if p < L.n:
        d_p = exterior_derivative(L, p)
        out += d_p.T @ d_p
        # freed before d_{p-1} is built, so at most one d matrix is alive
        del d_p
    if p > 0:
        d_prev = exterior_derivative(L, p - 1)
        out += d_prev @ d_prev.T
    return out


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a form Laplacian, sorted ascending and clamped >= 0.

    ``groups`` lists (value, multiplicity) under the relative grouping
    tolerance; ``kernel_dim`` counts eigenvalues at zero.
    """

    eigenvalues: np.ndarray
    groups: tuple
    kernel_dim: int

    @property
    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[self.kernel_dim:]

    @classmethod
    def from_eigenvalues(cls, vals) -> "SpectrumReport":
        vals = np.sort(np.asarray(vals, dtype=float))
        scale = max(1.0, float(vals[-1])) if vals.size else 1.0
        if vals.size and vals[0] < -EIG_TOL * scale:
            raise ValueError(f"eigenvalue {vals[0]} below -EIG_TOL*scale")
        vals = np.clip(vals, 0.0, None)
        vals.setflags(write=False)
        kernel_tol = EIG_TOL * scale
        kernel_dim = int(np.sum(vals <= kernel_tol))
        groups = []
        for v in vals:
            if groups and v - groups[-1][0] <= GROUP_RTOL * max(abs(v), kernel_tol):
                val, mult = groups[-1]
                groups[-1] = ((val * mult + v) / (mult + 1), mult + 1)
            else:
                groups.append((float(v), 1))
        return cls(vals, tuple(groups), kernel_dim)


def spectrum(L: StructureConstants, p: int) -> SpectrumReport:
    """Eigenvalues of the degree-p Laplacian as a SpectrumReport."""
    return SpectrumReport.from_eigenvalues(np.linalg.eigvalsh(laplacian(L, p)))


def svd_nullspace(m) -> np.ndarray:
    """Orthonormal kernel basis (columns) of m from its SVD.

    Singular values above RANK_TOL count toward the rank; one within a
    factor of 10 of RANK_TOL raises RankAmbiguous instead of guessing, so
    callers scale m to make its nonzero singular values O(1).
    """
    _, sv, vt = np.linalg.svd(np.asarray(m, dtype=float))
    for s in sv:
        if RANK_TOL / 10.0 < s < RANK_TOL * 10.0:
            raise RankAmbiguous(
                f"singular value {s} too close to RANK_TOL {RANK_TOL}")
    return vt[int(np.sum(sv > RANK_TOL)):].T


# ---------------------------------------------------------------------------
# plain-text serialization
# ---------------------------------------------------------------------------

def dumps_structure(L: StructureConstants) -> str:
    """Serialize as 'n = <int>' plus 'c i j k = <float>' lines (1-based, i<j)."""
    lines = [f"n = {L.n}"]
    for i in range(L.n):
        for j in range(i + 1, L.n):
            for k in range(L.n):
                v = float(L.c[i, j, k])
                if v != 0.0:
                    lines.append(f"c {i + 1} {j + 1} {k + 1} = {v!r}")
    return "\n".join(lines) + "\n"


def loads_structure(text: str) -> StructureConstants:
    """Parse the plain-text record; antisymmetry holds by construction."""
    n = None
    brackets = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.split()
        if key[0] == "n":
            n = int(value)
        elif key[0] == "c":
            i, j, k = (int(x) - 1 for x in key[1:4])
            if not i < j:
                raise ValueError(f"entries must have i < j, got {raw!r}")
            brackets[(i, j, k)] = brackets.get((i, j, k), 0.0) + float(value)
        else:
            raise ValueError(f"unrecognized line {raw!r}")
    if n is None:
        raise ValueError("missing 'n = <int>' header")
    return StructureConstants.from_brackets(n, brackets)
