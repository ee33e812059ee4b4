"""Invariant-form complex of a finite-dimensional Lie algebra.

A Lie algebra is given by its structure constants in a frame that is
declared orthonormal.  The exterior derivative on invariant forms is
determined by ``d xi^k (e_i, e_j) = -c[i][j][k]`` (the dual of the
bracket, extended as an antiderivation), the codifferential delta_p is
the transpose of d_{p-1} (the wedge bases of an orthonormal frame are
orthonormal), and the form Laplacian is ``d delta + delta d``.  Metrics
are never stored separately: changing the metric means rewriting the
structure constants in a new frame via :func:`change_frame`.

Spectra come from the Hodge split, not from the assembled Laplacian.
Since d^2 = 0, d_p^T d_p and d_{p-1} d_{p-1}^T have orthogonal ranges,
and M^T M and M M^T share their nonzero spectrum, so the spectrum of
Delta_p is the largest C(n, p) of the eigenvalues of G_p and G_{p-1}
padded with zeros.  G_p is the Gram matrix of d_p restricted to its
nonzero rows and columns, taken on the smaller side of that block: a
zero row or column of d_p adds only exact zeros, and the padding in
:func:`hodge_union` puts them back.  For nilpotent and solvable algebras
most rows and columns are zero (in the solvable model d is nonzero only
from forms without the coform y of Y to forms with y); a dense frame
keeps the full size min(C(n, p), C(n, p+1)) in the middle degrees.
:func:`spectrum` keeps the eigenvalues of each G_p on its
``StructureConstants``, so a sweep over all degrees builds each d_p once
and solves each G_p once.

On a unimodular algebra (trace form theta = tr ad = 0) the Hodge star,
a signed permutation of the wedge basis, carries d_{n-1-p} d_{n-1-p}^T
onto d_p^T d_p, so G_p and G_{n-1-p} share their nonzero spectrum, and
:func:`gram_eigenvalues` takes G_p for (n-1)/2 < p < n from G_{n-1-p}
without building d_p.  An algebra counts as unimodular when
:func:`unimodularity_defect` is at most ``UNIMODULAR_ULPS * n * eps *
max|c|``, the rounding of a trace of n terms.  In general the star
carries d_{n-1-p} to d_p^T plus an interior product with theta, whose
norm is at most |theta| <= sqrt(n) max_i |theta_i|, so by Weyl's
inequality the mirrored eigenvalues differ from those of G_p by at most
2 |d_p| |theta| + |theta|^2.  Under the rule that is of order
n^(3/2) eps max|c| |d_p|, the rounding level of forming and solving G_p
directly.  Algebras outside the rule solve every G_p.  One rule
separates the kernel: an eigenvalue at most :func:`kernel_cutoff` of its
spectrum's largest eigenvalue counts as zero.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CollapseSpectraError, RankAmbiguous

#: Relative Jacobi tolerance accepted by validating constructors.
JACOBI_TOL = 1e-9
#: Symmetry tolerance for assembled Laplacians.
SYM_TOL = 1e-10
#: Relative kernel cutoff of a spectrum; read only through kernel_cutoff.
EIG_TOL = 1e-9
#: Frame changes with |det P| below this are rejected.
SINGULAR_TOL = 1e-12
#: Singular values above RANK_TOL count toward a numerical rank.
RANK_TOL = 1e-9
#: An algebra with unimodularity_defect at most UNIMODULAR_ULPS * n * eps
#: * max|c| is unimodular to rounding, and its G_p are mirrored.
UNIMODULAR_ULPS = 4


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants c[i,j,k] meaning [e_i, e_j] = sum_k c[i,j,k] e_k.

    The frame (e_1, ..., e_n) is declared orthonormal.  Instances are
    immutable; the tensor is stored with both (i,j) and (j,i) entries so
    antisymmetry is a storage property, not a convention the caller must
    remember.
    """

    c: np.ndarray = field(repr=False)
    #: degree p -> eigenvalues of G_p, filled by :func:`spectrum`; ``c``
    #: is read-only, so an entry never goes stale
    _gram_eigs: dict = field(init=False, repr=False, compare=False,
                             default_factory=dict)

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
    def from_tensor(cls, c) -> "StructureConstants":
        """Wrap a raw (n,n,n) tensor that must be antisymmetric in (i,j)
        and satisfy the Jacobi identity up to the relative tolerance
        ``JACOBI_TOL``.  The plain constructor accepts anything, which is
        how a broken bracket table is probed.
        """
        L = cls(np.asarray(c, dtype=float))
        check_lie_tensors(L.c[None])
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


def _jacobi_defects(c) -> np.ndarray:
    """Max-norm of the Jacobi cyclic-sum tensor of each tensor in a stack
    (T, n, n, n); no antisymmetry assumed."""
    count, n = c.shape[:2]
    if not n:
        return np.zeros(count)
    # [[e_i,e_j],e_k]^m = sum_l c[i,j,l] c[l,k,m]
    t1 = (c.reshape(count, n * n, n)
          @ c.reshape(count, n, n * n)).reshape((count,) + (n,) * 4)
    # in place: a stack holds no more than two tensors of n^4 entries each
    cyc = t1 + t1.transpose(0, 2, 3, 1, 4)
    cyc += t1.transpose(0, 3, 1, 2, 4)
    del t1
    return np.abs(cyc, out=cyc).reshape(count, -1).max(axis=1)


def check_lie_tensors(c) -> None:
    """Raise ValueError unless every tensor of the stack ``c`` (T, n, n, n)
    is antisymmetric in (i, j) and satisfies the Jacobi identity, both up
    to ``JACOBI_TOL`` relative to max(1, max |c|) of that tensor."""
    if not c.size:
        return
    count = len(c)
    tol = JACOBI_TOL * np.maximum(1.0, np.abs(c).reshape(count, -1).max(axis=1))
    anti = np.abs(c + c.swapaxes(1, 2)).reshape(count, -1).max(axis=1)
    if (anti > tol).any():
        raise ValueError("tensor not antisymmetric in (i,j): defect "
                         f"{anti[np.argmax(anti > tol)]}")
    defect = _jacobi_defects(c)
    if (defect > tol).any():
        raise ValueError(
            f"Jacobi defect {defect[np.argmax(defect > tol)]} exceeds tolerance")


def unimodularity_defect(L: StructureConstants) -> float:
    """max_i |trace(ad_{e_i})|; zero for unimodular algebras."""
    # trace(ad_i) = sum_j c[i,j,j]
    traces = np.einsum("ijj->i", L.c)
    return float(np.max(np.abs(traces))) if L.n else 0.0


def change_frame(L: StructureConstants, P) -> StructureConstants:
    """Rewrite the brackets in the frame f_j = sum_i P[i,j] e_i.

    The new frame is declared orthonormal, which is how metrics enter
    every computation in this package.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (L.n, L.n):
        raise ValueError(f"frame matrix must be {L.n}x{L.n}")
    det = np.linalg.det(P)
    if abs(det) < SINGULAR_TOL:
        raise CollapseSpectraError(
            f"|det P| = {abs(det)} below {SINGULAR_TOL}")
    c_new = np.einsum("ia,jb,ijk,mk->abm", P, P, L.c, np.linalg.inv(P),
                      optimize=True)
    return StructureConstants(c_new)


@dataclass(frozen=True)
class FormBasis:
    """Lexicographically ordered basis of degree-p invariant forms.

    Basis elements are strictly increasing index tuples (i_1 < ... < i_p);
    the ordering is deterministic across runs.
    """

    n: int
    degree: int
    #: basis tuple -> its position in the basis
    rank: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 <= self.degree <= self.n):
            raise CollapseSpectraError(
                f"degree {self.degree} not in [0, {self.n}]")
        tuples = itertools.combinations(range(self.n), self.degree)
        object.__setattr__(self, "rank", {t: r for r, t in enumerate(tuples)})


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


def stacked_derivative(c, p: int) -> np.ndarray:
    """d_p of every tensor in the stack ``c`` (T, n, n, n), as an array
    (T, C(n, p+1), C(n, p)).

    One ``np.bincount`` over the index tables cached per (n, p), with the
    positions of item t offset by t C(n, p+1) C(n, p).  bincount adds in
    input order, so each entry sums its contributions in the order of the
    loop over generator positions and then pairs i < j, and every slice
    is bit-identical to that loop definition of d.  The tables take about
    2.8 MB for all p at n = 12 and 18 MB at n = 14, less for each n than
    its largest Laplacian.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 4 or len(set(c.shape[1:])) != 1:
        raise ValueError(f"structure tensor stack must be (T,n,n,n), got {c.shape}")
    count, n = c.shape[:2]
    if not 0 <= p <= n:
        raise CollapseSpectraError(f"degree {p} not in [0, {n}]")
    dom_dim, cod_dim = form_dim(n, p), form_dim(n, p + 1)
    if p == 0 or p == n:
        return np.zeros((count, cod_dim, dom_dim))
    flat, idx = _d_pattern(n, p)
    size = cod_dim * dom_dim
    w = c.reshape(count, -1)
    w = np.concatenate((-w, w), axis=1).take(idx, axis=1)
    if count > 1:
        # one offset copy of the tables; a single algebra reads them as cached
        flat = flat + np.arange(0, count * size, size)[:, None]
    return np.bincount(flat.ravel(), weights=w.ravel(),
                       minlength=count * size).reshape(count, cod_dim, dom_dim)


def stacked_gram_eigenvalues(c, p: int) -> np.ndarray:
    """Ascending nonzero-block eigenvalues of the Gram matrix of d_p for
    every tensor in the stack ``c`` (T, n, n, n), as an array (T, r).

    d_p is first cut to the rows and columns that are nonzero in some
    member of the stack; its Gram matrix is then taken on the smaller
    side of what is left, so r <= min(C(n, p), C(n, p+1)).  The dropped
    eigenvalues are exact zeros, which :func:`hodge_union` restores.  A
    d_p with no zero row or column is not copied.
    """
    d_p = stacked_derivative(c, p)
    # from the values, not from _d_pattern: a pattern entry can cancel to
    # an exact zero, and keeping it would change the block and its bits
    nonzero = d_p != 0
    rows, cols = nonzero.any(axis=(0, 2)), nonzero.any(axis=(0, 1))
    if not rows.all():
        d_p = d_p[:, rows]
    if not cols.all():
        d_p = d_p[:, :, cols]
    d_t = d_p.transpose(0, 2, 1)
    gram = d_t @ d_p if d_p.shape[2] <= d_p.shape[1] else d_p @ d_t
    return np.linalg.eigvalsh(gram)


def hodge_union(gram_p, gram_prev, dim: int) -> np.ndarray:
    """Eigenvalues of Delta_p on a space of dimension ``dim`` = C(n, p),
    ascending, from the stacked Gram eigenvalues of d_p and d_{p-1}.

    The nonzero spectrum of Delta_p is the union of the nonzero spectra
    of the two Gram matrices, so it is the largest ``dim`` values of both
    padded with zeros to 2 dim; no rank decision is made.  The padding
    also restores the exact zeros that :func:`stacked_gram_eigenvalues`
    drops with the zero rows and columns of d_p.
    """
    count = len(gram_p)
    pad = np.zeros((count, 2 * dim - gram_p.shape[1] - gram_prev.shape[1]))
    union = np.concatenate((gram_p, gram_prev, pad), axis=1)
    return np.sort(union, axis=1)[:, dim:]


def exterior_derivative(L: StructureConstants, p: int) -> np.ndarray:
    """Matrix of d: Lambda^p -> Lambda^{p+1} in the lexicographic bases.

    On degree-1 generators, d xi^k = -sum_{i<j} c[i,j,k] xi^i ^ xi^j;
    higher degrees follow by the antiderivation rule.  This is the
    one-algebra case of :func:`stacked_derivative`.
    """
    return stacked_derivative(L.c[None], p)[0]


def laplacian(L: StructureConstants, p: int) -> np.ndarray:
    """Form Laplacian d delta + delta d on degree p, symmetric PSD:
    d_p^T d_p + d_{p-1} d_{p-1}^T from :func:`exterior_derivative`."""
    d_p = exterior_derivative(L, p)
    lap = d_p.T @ d_p
    if p:
        d_prev = exterior_derivative(L, p - 1)
        lap += d_prev @ d_prev.T
    return lap


def kernel_cutoff(top):
    """EIG_TOL * max(1, top), elementwise: the largest eigenvalue counted as
    kernel in a spectrum whose largest eigenvalue is ``top``."""
    return EIG_TOL * np.maximum(1.0, top)


def above_kernel_cutoff(small: float, top: float) -> bool:
    """Whether a predicted eigenvalue ``small`` stays at least twice the
    kernel cutoff of a spectrum whose largest eigenvalue is ``top``."""
    return bool(small >= 2.0 * kernel_cutoff(top))


def clamp_spectra(vals):
    """Sort eigenvalues along the last axis, clamp them at zero and count
    the kernel, for one spectrum or a stack of them.

    With cutoff = :func:`kernel_cutoff` of the largest eigenvalue of each
    spectrum, an eigenvalue below -cutoff raises ValueError, and one at
    most cutoff counts toward the kernel.  Returns ``(vals, kernel_dim)``,
    the last over the leading axes.
    """
    vals = np.sort(np.asarray(vals, dtype=float), axis=-1)
    cutoff = kernel_cutoff(vals.max(axis=-1, initial=0.0, keepdims=True))
    low = vals[..., :1] < -cutoff
    if low.any():
        raise ValueError(
            f"eigenvalue {vals[..., :1][low][0]} below -EIG_TOL*scale")
    vals = vals.clip(0.0, None)
    return vals, (vals <= cutoff).sum(-1)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a form Laplacian, sorted ascending and clamped >= 0;
    ``kernel_dim`` counts eigenvalues at zero."""

    eigenvalues: np.ndarray
    kernel_dim: int

    @property
    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[self.kernel_dim:]

    @classmethod
    def from_eigenvalues(cls, vals) -> "SpectrumReport":
        vals, kernel_dim = clamp_spectra(vals)
        vals.setflags(write=False)
        return cls(vals, int(kernel_dim))


def gram_eigenvalues(L: StructureConstants, p: int) -> np.ndarray:
    """Eigenvalues of G_p of L as a stack of one (1, r), solved once per L.

    Only the nonzero block of d_p is solved (see
    :func:`stacked_gram_eigenvalues`), so the exact zeros of its dropped
    rows and columns are missing here; :func:`hodge_union` restores them.
    For (n-1)/2 < p < n on an algebra with :func:`unimodularity_defect`
    at most ``UNIMODULAR_ULPS * n * eps * max|c|``, the eigenvalues of
    G_{n-1-p} are returned and d_p is not built: the Hodge star gives
    both the same nonzero spectrum, and by Weyl's inequality a trace form
    theta moves each eigenvalue by at most 2 |d_p| |theta| + |theta|^2,
    the rounding level of the direct solve under that rule.  Both blocks
    have at most min(C(n, p), C(n, p+1)) values, so :func:`hodge_union`
    pads either alike.
    """
    vals = L._gram_eigs.get(p)
    if vals is None:
        mirror, eps = L.n - 1 - p, np.finfo(float).eps
        if 0 <= mirror < p and unimodularity_defect(L) <= (
                UNIMODULAR_ULPS * L.n * eps * np.abs(L.c).max()):
            vals = gram_eigenvalues(L, mirror)
        else:
            vals = stacked_gram_eigenvalues(L.c[None], p)
            vals.setflags(write=False)
        L._gram_eigs[p] = vals
    return vals


def spectrum(L: StructureConstants, p: int) -> SpectrumReport:
    """Eigenvalues of the degree-p Laplacian as a SpectrumReport, from the
    Gram eigenvalues of d_p and d_{p-1} (see :func:`hodge_union`)."""
    gram_p = gram_eigenvalues(L, p)
    gram_prev = gram_eigenvalues(L, p - 1) if p else np.zeros((1, 0))
    return SpectrumReport.from_eigenvalues(
        hodge_union(gram_p, gram_prev, form_dim(L.n, p))[0])


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
