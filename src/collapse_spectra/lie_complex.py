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
d_p is assembled straight into the rows and columns that contributions
with a nonzero structure constant touch, and those whose entries cancel
to exact zeros are cut by value after, so the block has the shape and
bits of the full d_p cut by value.
One function, :func:`stacked_gram_eigenvalues`, builds and solves G_p,
for a stack of algebras at once, and keeps the eigenvalues in a dict
that belongs to the stack; G_0 and G_n are empty and never built.
:func:`spectrum` passes one algebra and the dict kept on its
``StructureConstants``, so a sweep over all degrees builds each d_p once
and solves each G_p once; ``semisimple_floor`` passes each chunk of its
trials, split by the rule below, with a dict of its own.

On a unimodular algebra (trace form theta = tr ad = 0) the Hodge star,
a signed permutation of the wedge basis, carries d_{n-1-p} d_{n-1-p}^T
onto d_p^T d_p, so G_p and G_{n-1-p} share their nonzero spectrum, and
G_p for (n-1)/2 < p < n is taken from G_{n-1-p} without building d_p.
An algebra counts as :func:`unimodular` when every |trace(ad_{e_i})| is
at most ``UNIMODULAR_ULPS * n * eps * max|c|``, the rounding of a trace
of n terms.  In general the star carries d_{n-1-p} to d_p^T plus an
interior product with theta, whose norm is at most |theta| <= sqrt(n)
max_i |theta_i|, so by Weyl's inequality the mirrored eigenvalues differ
from those of G_p by at most 2 |d_p| |theta| + |theta|^2.  Under the
rule that is of order n^(3/2) eps max|c| |d_p|, the rounding level of
forming and solving G_p directly.  A stack takes the mirror only when
every member passes the rule, decided once per stack; otherwise it
solves every G_p.  A unimodular sweep builds d_p for 1 <= p <= (n-1)/2.

The mirror leaves G_{m-1} of the middle degrees at full size when
n = 2m.  On Lambda^m the star is S e_J = s_J e_{J^c}, and S^2 = (-1)^(m^2),
so for even m, that is n = 0 (mod 4), S is a symmetric involution (for
odd m it is skew and has no real halves to fold onto).  Folding the rows
of d_{m-1} by it, E = d_{m-1}[J] + s_J d_{m-1}[J^c] over the C(n, m) / 2
subsets J that contain index 0, gives E^T E = G_{m-1} + d_{m-1}^T S
d_{m-1}.  The second term pairs d alpha with d beta into the top-degree
exact form d(alpha ^ d beta), which is zero on a unimodular algebra; in
general its norm is at most |theta| |d_{m-1}|, the same Weyl-type bound
as the mirror's.  So under the same rule the Gram matrix of E, whose
side is at most C(n, m) / 2, is solved in place of that of d_{m-1}, but
only when C(n, m) / 2 is strictly below both counts of rows and columns
of d_{m-1} that contributions with a nonzero structure constant touch;
at n = 12 a dense frame solves 462 in place of 792.  E is assembled
from d's tables with each row J^c moved to its J and s_J put into the
weight index, so d_{m-1} is never built, and E keeps the bits of
d[J] + s_J d[J^c]: a term of d at (row, column) needs at least m - 2
indices of the column in the row, and J and J^c share the column's
m - 1, so for m >= 4 each entry of E is one entry of d, and at m = 2 a
sum of two single terms.
One rule separates the kernel: an eigenvalue at most
:func:`kernel_cutoff` of its spectrum's largest eigenvalue counts as
zero.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Relative Jacobi tolerance accepted by validating constructors.
JACOBI_TOL = 1e-9
#: Symmetry tolerance for assembled Laplacians.
SYM_TOL = 1e-10
#: Relative kernel cutoff of a spectrum; read only through kernel_cutoff.
EIG_TOL = 1e-9
#: Frame changes with |det P| below this are rejected.
SINGULAR_TOL = 1e-12
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

    @functools.cached_property
    def is_unimodular(self) -> bool:
        """:func:`unimodular` for this algebra, decided once for all p."""
        return bool(unimodular(self.c[None])[0])

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


def unimodularity_defect(c) -> np.ndarray:
    """max_i |trace(ad_{e_i})| of each tensor of the stack ``c``
    (T, n, n, n); zero for unimodular algebras."""
    # trace(ad_i) = sum_j c[i,j,j]
    return np.abs(np.einsum("tijj->ti", c)).max(axis=1, initial=0.0)


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
        raise ValueError(f"|det P| = {abs(det)} below {SINGULAR_TOL}")
    c_new = np.einsum("ia,jb,ijk,mk->abm", P, P, L.c, np.linalg.inv(P),
                      optimize=True)
    return StructureConstants(c_new)


@functools.lru_cache(maxsize=None)
def subset_rank(n: int, p: int) -> np.ndarray:
    """Position of each p-subset of range(n) in the lexicographic basis of
    Lambda^p, indexed by the subset's bitmask; masks of other sizes read 0.
    Read-only int32 of length 2^n, built and cached per (n, p)."""
    subsets = np.array(list(itertools.combinations(range(n), p)),
                       dtype=np.int64)
    masks = np.sum(np.int64(1) << subsets, axis=1)
    rank = np.zeros(1 << n, dtype=np.int32)
    rank[masks] = np.arange(len(masks), dtype=np.int32)
    rank.setflags(write=False)
    return rank


def form_dim(n: int, p: int) -> int:
    return math.comb(n, p) if 0 <= p <= n else 0


@functools.lru_cache(maxsize=None)
def _d_pattern(n: int, p: int):
    """Index tables of d: Lambda^p -> Lambda^{p+1}, fixed by (n, p) alone.

    Returns ``(flat, idx)``: contribution m adds ``w[idx[m]]`` to entry
    ``flat[m] = row * C(n, p) + col`` of d_p, where ``w`` is
    ``concat(-c.ravel(), c.ravel())``, so the sign sits in the index.
    The tables run over the rests R (p - 1 indices), then a generator k
    and a pair i < j from the n - p + 1 sorted indices F outside R, for
    the term of d xi^k at (i, j) in row R + (i, j), column R + k.  F runs
    lexicographically, so R in reverse, and column S meets its rests
    S - S[t] in ascending t, each adding once: every entry sums in the
    order of the loop definition of d (t, then pair), which fixes its
    bits.  With i = F[a], j = F[b] and k = F[e], sorting R + (i, j) has
    the parity of i + j + a + b, and k sits at t = k - e in its column.
    Requires 1 <= p < n; int32 and int16 hold every position and index
    up to n = 18, beyond which d_p itself would not fit in memory.
    """
    free = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(n), n - p + 1)), dtype=np.int64).reshape(-1, n - p + 1)
    rest = ((1 << n) - 1) ^ np.sum(1 << free, axis=1, keepdims=True)
    a, b = np.triu_indices(n - p + 1, 1)
    i, j = free[:, a], free[:, b]
    row = subset_rank(n, p + 1)[rest | (1 << i) | (1 << j)]
    col = subset_rank(n, p)[rest | (1 << free)]
    # d xi^k carries -c, so an even total sign picks the -c half of w
    base = ((i * n + j) * n + ((i + j + a + b) & 1) * n ** 3).astype(np.int16)
    gen = (free + ((free - np.arange(n - p + 1)) & 1) * n ** 3).astype(np.int16)
    flat = row[:, None, :] * np.int32(math.comb(n, p)) + col[:, :, None]
    idx = base[:, None, :] + gen[:, :, None]  # below 4 n^3, so mod 2 n^3
    idx -= (idx >= 2 * n ** 3) * np.int16(2 * n ** 3)  # is one subtraction
    for table in (flat, idx):
        table.setflags(write=False)
    return flat.ravel(), idx.ravel()


@functools.lru_cache(maxsize=None)
def _fold_pattern(n: int):
    """Index tables of the Hodge fold E of d_{m-1}, n = 2m = 0 (mod 4), in
    the form and order of :func:`_d_pattern`'s: row J^c of d moves to the
    row of its J, and s_J = -1 moves idx by n^3 mod 2 n^3, which negates
    the weight (see the module docstring).  Read-only, cached per n."""
    dom = np.int32(form_dim(n, n // 2 - 1))
    J, Jc, sign = _hodge_star(n)
    pos = np.empty(2 * len(J), np.int32)
    pos[J] = pos[Jc] = np.arange(len(J), dtype=np.int32)
    flip = np.zeros(2 * len(J), np.int16)
    flip[Jc] = (sign < 0) * n ** 3
    flat, idx = _d_pattern(n, n // 2 - 1)
    row = flat // dom
    flat = flat + (pos[row] - row) * dom
    idx = idx + flip[row]
    idx -= (idx >= 2 * n ** 3) * np.int16(2 * n ** 3)
    for table in (flat, idx):
        table.setflags(write=False)
    return flat, idx


def _assemble(c, p: int, cut: bool, fold: bool):
    """d_p of every tensor in the stack ``c`` (T, n, n, n), or with
    ``fold`` its Hodge fold E where that is smaller.

    One ``np.bincount`` over the tables of :func:`_d_pattern`, with item
    t's positions offset by t times the size of d.  It adds in input
    order, so every entry is bit-identical to the loop definition of d.
    With ``cut``, a contribution whose weight is zero in every member is
    dropped (a sum starts at +0.0, and adding +-0 never changes it) and d
    is assembled on the rows and columns that the rest touch; with none
    dropped (a dense frame) it is built in full.  A touched row or column
    can still cancel to exact zeros; :func:`_nonzero_block` drops those.
    With ``fold`` at p = n/2 - 1, n = 0 (mod 4), E is built in full from
    :func:`_fold_pattern`'s tables when C(n, n/2) / 2 is strictly below
    both sides of d's block of touched rows and columns.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 4 or len(set(c.shape[1:])) != 1:
        raise ValueError(f"structure tensor stack must be (T,n,n,n), got {c.shape}")
    count, n = c.shape[:2]
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} not in [0, {n}]")
    dom_dim, cod_dim = form_dim(n, p), form_dim(n, p + 1)
    if p == 0 or p == n:
        return np.zeros((count, cod_dim, dom_dim))
    flat, idx = _d_pattern(n, p)
    w = c.reshape(count, -1)
    w = np.concatenate((-w, w), axis=1)
    live = w.any(axis=0)[idx] if cut else None
    if cut and not live.all():
        flat, idx = flat[live], idx[live]
        row, col = np.divmod(flat, dom_dim)
        # 1 marks each touched row and column (intp: a cumsum casts bool
        # first), and multiplied by the running sums numbers them from 1
        rows, cols = np.zeros(cod_dim, np.intp), np.zeros(dom_dim, np.intp)
        rows[row] = cols[col] = 1
        rows, cols = rows * rows.cumsum(), cols * cols.cumsum()
        cod_dim, dom_dim = int(rows.max()), int(cols.max())
        flat = rows[row] * dom_dim + cols[col] - (dom_dim + 1)
    if (fold and n % 4 == 0 and p == n // 2 - 1
            and form_dim(n, p + 1) // 2 < min(cod_dim, dom_dim)):
        # E in full: a dropped term adds only +-0, and _nonzero_block cuts
        # the rows and columns that stay zero
        flat, idx = _fold_pattern(n)
        cod_dim, dom_dim = form_dim(n, p + 1) // 2, form_dim(n, p)
    size = cod_dim * dom_dim
    # take casts an int16 index element by element, several times slower;
    # the intp copy is freed before bincount makes its own of flat
    w = w.take(idx.astype(np.intp), axis=1)
    if count > 1:
        # one offset copy of the tables; a single algebra reads them as cached
        flat = flat + np.arange(count)[:, None] * size
    d = np.bincount(flat.ravel(), weights=w.ravel(), minlength=count * size)
    return d.reshape(count, cod_dim, dom_dim)


def stacked_derivative(c, p: int) -> np.ndarray:
    """d_p of every tensor in the stack ``c`` (T, n, n, n), as an array
    (T, C(n, p+1), C(n, p)): :func:`_assemble` in full.  The index tables,
    built rest-major in one broadcast per (n, p), take about 2.8 MB for all
    p at n = 12 and 18 MB at n = 14, less than the largest Laplacian."""
    return _assemble(c, p, False, False)


def _nonzero_block(d) -> np.ndarray:
    """The stack ``d`` (T, rows, cols) cut to the rows and columns that are
    nonzero in some member; a stack with no zero row or column is not
    copied.  ``take`` keeps each member's block contiguous, so BLAS forms
    its Gram matrix as it would for that member alone."""
    # from the values, not from _d_pattern: a pattern entry can cancel to
    # an exact zero, and keeping it would change the block and its bits
    nonzero = d != 0
    rows, cols = nonzero.any(axis=(0, 2)), nonzero.any(axis=(0, 1))
    if not rows.all():
        d = d.take(np.flatnonzero(rows), axis=1)
    if not cols.all():
        d = d.take(np.flatnonzero(cols), axis=2)
    return d


@functools.lru_cache(maxsize=None)
def _hodge_star(n: int):
    """The Hodge star on Lambda^m, n = 2m, as ``(J, Jc, sign)``.

    ``J`` holds the ranks of the C(n, m) / 2 subsets that contain index 0,
    the leading half of the lexicographic basis (J = range(C(n, m) / 2)),
    ``Jc`` the ranks of their complements, and ``sign`` the shuffle sign
    s_J = (-1)^(sum J - m(m-1)/2) of e_J ^ e_{J^c} = s_J vol for 0-based J,
    so the star is e_J -> s_J e_{J^c}.  For even m, s_{J^c} = s_J and the
    star is a symmetric involution.
    """
    m = n // 2
    rank = subset_rank(n, m)
    half = np.array([(0,) + K for K in
                     itertools.combinations(range(1, n), m - 1)])
    masks = np.sum(np.int64(1) << half, axis=1)
    J, Jc = rank[masks], rank[masks ^ ((1 << n) - 1)]
    sign = (-1.0) ** (half.sum(axis=1) - m * (m - 1) // 2)
    for table in (J, Jc, sign):
        table.setflags(write=False)
    return J, Jc, sign


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
    :func:`laplacian_of` d_p and d_{p-1} from :func:`exterior_derivative`."""
    return laplacian_of(exterior_derivative(L, p),
                        exterior_derivative(L, p - 1) if p else None)


def laplacian_of(d_p, d_prev) -> np.ndarray:
    """d_p^T d_p + d_prev d_prev^T from d_p and d_{p-1} (None for p = 0)."""
    lap = d_p.T @ d_p
    if d_prev is not None:
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
    """Clamp float eigenvalues, ascending along the last axis, at zero and
    count the kernel, for one spectrum or a stack of them.

    With cutoff = :func:`kernel_cutoff` of the largest eigenvalue of each
    spectrum, an eigenvalue below -cutoff raises ValueError, and one at
    most cutoff counts toward the kernel.  Returns ``(vals, kernel_dim)``,
    the first read-only and the last over the leading axes.
    """
    cutoff = kernel_cutoff(vals.max(axis=-1, initial=0.0, keepdims=True))
    low = vals[..., :1] < -cutoff
    if low.any():
        raise ValueError(
            f"eigenvalue {vals[..., :1][low][0]} below -EIG_TOL*scale")
    vals = vals.clip(0.0, None)
    vals.setflags(write=False)
    return vals, (vals <= cutoff).sum(-1)


class SpectrumReport(NamedTuple):
    """Eigenvalues of a form Laplacian, sorted ascending and clamped >= 0;
    ``kernel_dim`` counts eigenvalues at zero."""

    eigenvalues: np.ndarray
    kernel_dim: int

    @property
    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[self.kernel_dim:]

    @classmethod
    def from_eigenvalues(cls, vals) -> "SpectrumReport":
        vals, kernel_dim = clamp_spectra(np.sort(np.asarray(vals, float)))
        return cls(vals, int(kernel_dim))


def unimodular(c) -> np.ndarray:
    """Whether each tensor of the stack ``c`` (T, n, n, n) is unimodular to
    rounding: :func:`unimodularity_defect` at most ``UNIMODULAR_ULPS * n *
    eps * max|c|``, the rule under which G_p is mirrored and folded."""
    count, n = c.shape[:2]
    scale = np.abs(c).reshape(count, -1).max(axis=1, initial=0.0)
    return (unimodularity_defect(c)
            <= UNIMODULAR_ULPS * n * np.finfo(float).eps * scale)


def stacked_gram_eigenvalues(c, p: int, cache: dict,
                             all_unimodular: bool) -> np.ndarray:
    """Ascending eigenvalues of G_p of every tensor in the stack ``c``
    (T, n, n, n), as (T, r), solved once per ``cache``, the dict degree ->
    eigenvalues that the caller keeps with the stack.

    G_0 and G_n are empty, (T, 0), and nothing is built: d_0 = 0 and
    Lambda^{n+1} = 0.  Otherwise G_p is the Gram matrix of d_p cut to the
    rows and columns nonzero in some member, on its smaller side, so
    r <= min(C(n, p), C(n, p+1)).  When ``all_unimodular``, the caller's
    one decision that every member is :func:`unimodular`, G_p for
    (n-1)/2 < p < n is G_{n-1-p}, and for n = 0 (mod 4) G_{n/2-1} is
    folded by the Hodge star when that is smaller (see the module docstring).
    """
    vals = cache.get(p)
    if vals is None:
        n, mirror = c.shape[1], c.shape[1] - 1 - p
        if p == 0 or p == n:
            vals = np.zeros((len(c), 0))
        elif 0 <= mirror < p and all_unimodular:
            vals = stacked_gram_eigenvalues(c, mirror, cache, True)
        else:
            block = _nonzero_block(_assemble(c, p, True, all_unimodular))
            block_t = block.transpose(0, 2, 1)
            gram = (block_t @ block if block.shape[2] <= block.shape[1]
                    else block @ block_t)
            del block, block_t  # only the Gram matrix is held in the solve
            vals = np.linalg.eigvalsh(gram)
        vals.setflags(write=False)
        cache[p] = vals
    return vals


def gram_eigenvalues(L: StructureConstants, p: int) -> np.ndarray:
    """Eigenvalues of G_p of L as a stack of one (1, r), kept on L:
    :func:`stacked_gram_eigenvalues` of ``L.c[None]``."""
    return stacked_gram_eigenvalues(L.c[None], p, L._gram_eigs,
                                    L.is_unimodular)


def spectrum(L: StructureConstants, p: int) -> SpectrumReport:
    """Eigenvalues of the degree-p Laplacian as a SpectrumReport, from the
    Gram eigenvalues of d_p and d_{p-1} (see :func:`hodge_union`)."""
    gram_p = gram_eigenvalues(L, p)
    gram_prev = gram_eigenvalues(L, p - 1) if p else np.zeros((1, 0))
    vals, kernel_dim = clamp_spectra(
        hodge_union(gram_p, gram_prev, form_dim(L.n, p))[0])
    return SpectrumReport(vals, int(kernel_dim))

