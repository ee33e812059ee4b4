"""Torus bundles over the circle: suspension of A in SL_n(Z) with A = exp(B).

The solvable model is R^n x| R with vertical brackets given by B.  The
degree-1 invariant Laplacian is diag(C C^T, 0) where C rewrites B in the
current orthonormal vertical frame, the zero-eigenvalue Jordan structure
of B (the invariants d and d') controls how many small eigenvalues a
collapse can produce, and the scaling recipe below realizes any count
k <= d - d'.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import csv_text
from .curvature import solvable_pair_curvatures
from .errors import InputRejected
from .intlat import det_int, int_matrix, rational_nullspace, rref, verify_log
from .lie_complex import (SpectrumReport, StructureConstants,
                          above_kernel_cutoff, check_lie_tensors,
                          clamp_spectra, form_dim, hodge_union,
                          stacked_gram_eigenvalues, unimodular)
from .torus_bundle import check_eps_grid

#: Singular values above RANK_TOL count toward a numerical rank.
RANK_TOL = 1e-9
#: semisimple_floor reports ok when the sampled floor exceeds FLOOR_TOL
FLOOR_TOL = 1e-4
#: semisimple_floor accepts 1..MAX_FLOOR_TRIALS trials
MAX_FLOOR_TRIALS = 10_000
#: semisimple_floor assembles and eigensolves this many trials together;
#: larger stacks raise peak memory for no further gain
FLOOR_CHUNK = 32
#: eigenvalue lambda at grid point eps counts as small when
#: lambda < min(10 eps^2, SMALL_ABS_CAP); the absolute cap keeps large
#: grid points from classifying order-one eigenvalues as small
SMALL_ABS_CAP = 1e-3


def solvable_tensors(b_stack) -> np.ndarray:
    """Structure tensors (T, n+1, n+1, n+1) of the solvable algebras of a
    stack of B (T, n, n), unvalidated: [Y, V_i] = sum_j B[j,i] V_j with
    Y the last index.  Entries where B vanishes are +0.0."""
    B = np.asarray(b_stack, dtype=float)
    count, n = B.shape[:2]
    c = np.zeros((count, n + 1, n + 1, n + 1))
    # c[i, Y, j] = -B[j, i]; 0.0 - x turns -0.0 into +0.0
    c[:, :n, n, :n] = 0.0 - np.swapaxes(B, 1, 2)
    c[:, n, :n, :n] = 0.0 - c[:, :n, n, :n]
    return c


def solvable_algebra(b_matrix) -> StructureConstants:
    """(n+1)-dim algebra with [Y, V_i] = sum_j B[j,i] V_j, Y = last index."""
    B = np.asarray(b_matrix, dtype=float)
    return StructureConstants.from_tensor(solvable_tensors(B[None])[0])


@dataclass(frozen=True)
class MappingTorusBundle:
    """Suspension data: A in SL_n(Z) together with a verified logarithm B."""

    a_matrix: tuple
    b_matrix: np.ndarray

    def __post_init__(self):
        A = int_matrix(self.a_matrix)
        if det_int(A) != 1:
            raise ValueError("A must lie in SL_n(Z)")
        B = np.asarray(self.b_matrix, dtype=float)
        if not verify_log(np.asarray(A, dtype=float), B):
            raise ValueError("exp(B) does not reproduce A within 1e-8")
        if abs(np.trace(B)) > 1e-8:
            raise ValueError("trace(B) must vanish (det A = 1 forces it)")
        object.__setattr__(self, "a_matrix", tuple(tuple(r) for r in A))
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "b_matrix", B)

    def algebra(self) -> StructureConstants:
        return solvable_algebra(self.b_matrix)


def svd_nullspace(m) -> np.ndarray:
    """Orthonormal kernel basis (columns) of m from its SVD.

    Singular values above RANK_TOL count toward the rank; one within a
    factor of 10 of RANK_TOL rejects B instead of guessing, so callers
    scale m to make its nonzero singular values O(1).
    """
    _, sv, vt = np.linalg.svd(np.asarray(m, dtype=float))
    for s in sv:
        if RANK_TOL / 10.0 < s < RANK_TOL * 10.0:
            raise InputRejected(
                "B", f"singular value {s} too close to RANK_TOL {RANK_TOL}")
    return vt[int(np.sum(sv > RANK_TOL)):].T


def _kernel_tower(B):
    """``(Bx, kernels)``: column bases of ker B^j for j = 0, 1, ... while
    the dimension grows, so the last has dimension d and kernels[1] (if
    any) dimension d'.

    Integer B is handled exactly: ``Bx`` is B as an object array of
    Python ints and the bases hold Fractions, so ``@`` works in both
    arithmetics.  Otherwise ``Bx`` is B and the powers of B / |B|_2 go
    through svd_nullspace, which may reject B.
    """
    n = B.shape[0]
    if np.array_equal(B, np.round(B)):
        Bx = np.frompyfunc(int, 1, 1)(B)
        Bs, power = Bx, np.identity(n, dtype=object)

        def nullspace(m):
            basis = rational_nullspace(m.tolist(), n)
            return np.array(basis, dtype=object).reshape(-1, n).T
    else:
        Bx, Bs, power = B, B / np.linalg.norm(B, 2), np.eye(n)
        nullspace = svd_nullspace
    kernels = [np.zeros((n, 0), dtype=power.dtype)]
    while kernels[-1].shape[1] < n:
        power = Bs @ power
        kernel = nullspace(power)
        if kernel.shape[1] <= kernels[-1].shape[1]:
            break
        kernels.append(kernel)
    return Bx, kernels


def invariants_dd(b_matrix):
    """(d, d'): dimensions of the generalized 0-eigenspace and of ker B,
    read off the same kernel tower as the Jordan chains."""
    dims = [k.shape[1] for k in _kernel_tower(np.asarray(b_matrix, float))[1]]
    return dims[-1], (dims + [0])[1]


def laplacian1_fast(c_matrix) -> np.ndarray:
    """Degree-1 invariant Laplacian diag(C C^T, 0) of the solvable model,
    for one C (n, n) or a stack (..., n, n) -> (..., n+1, n+1); each
    member equals its own call bit for bit."""
    C = np.asarray(c_matrix, dtype=float)
    n = C.shape[-1]
    out = np.zeros(C.shape[:-2] + (n + 1, n + 1))
    out[..., :n, :n] = C @ C.swapaxes(-1, -2)
    return out


# ---------------------------------------------------------------------------
# Jordan chains of the zero characteristic subspace
# ---------------------------------------------------------------------------

class JordanZeroChain(NamedTuple):
    """Frame adapted to the zero characteristic subspace E_0.

    Columns of ``frame``: the E_0 chain vectors ordered kernel-first, then
    by increasing height (taller chain members later), followed by an
    orthonormal complement of E_0.  ``heights[i]`` is the chain height of
    column i (0 for complement columns) and ``chain_ids[i]`` its chain.
    Chains are numbered longest first, in the order of ``chain_lengths``:
    they are found from the tallest height down.
    """

    frame: np.ndarray
    chain_lengths: tuple
    heights: tuple
    chain_ids: tuple
    d: int
    d_prime: int


def _extend_exact(base, cands):
    """Candidates among the pivot columns of [base | cands].  The base
    columns are independent, so they are all pivots, and the candidates
    picked complete them to a basis of the span of both."""
    pivots = rref(np.hstack([base, cands]).tolist())[1]
    return [cands[:, c - base.shape[1]] for c in pivots[base.shape[1]:]]


def _extend_numeric(base, cands):
    """Orthonormal combinations of the orthonormal candidates, one per
    candidate beyond the base count, orthogonal to the span of the base."""
    q = np.linalg.qr(base)[0]
    new = cands @ svd_nullspace(q.T @ cands)
    if new.shape[1] != cands.shape[1] - base.shape[1]:
        raise InputRejected("B", "chain extraction is numerically degenerate")
    return list(new.T)


def jordan_zero_chain(b_matrix) -> JordanZeroChain:
    """Adapted frame for E_0 with explicit Jordan chains.

    The chains come from the kernel tower of B, exactly for integer B;
    anything else uses SVD rank decisions, which may reject B, as does
    an exact chain vector too large for a float.
    From the tallest height down, new chain tops extend the kernel one
    level down together with the members of the taller chains.  Column
    order: kernel vectors first, then increasing height, finally an
    orthonormal complement of E_0.
    """
    B = np.asarray(b_matrix, dtype=float)
    n = B.shape[0]
    Bx, kernels = _kernel_tower(B)
    extend = _extend_exact if Bx.dtype == object else _extend_numeric
    chains = []          # each: list of members, bottom (kernel) first
    for j in range(len(kernels) - 1, 0, -1):
        base = np.column_stack([kernels[j - 1]]
                               + [ch[j - 1] for ch in chains])
        if base.shape[1] == kernels[j].shape[1]:
            continue
        for v in extend(base, kernels[j]):
            members = [v]
            for _ in range(j - 1):
                members.append(Bx @ members[-1])
            chains.append(members[::-1])
    try:
        chains = [[np.asarray(v, dtype=float) for v in ch] for ch in chains]
    except OverflowError as exc:
        raise InputRejected("B", "an exact Jordan chain vector does not fit "
                                 "a float") from exc
    d = sum(len(ch) for ch in chains)
    d_prime = len(chains)
    max_h = max((len(ch) for ch in chains), default=0)
    cols, heights, chain_ids = [], [], []
    for h in range(1, max_h + 1):
        for ci, ch in enumerate(chains):
            if len(ch) >= h:
                cols.append(ch[h - 1])
                heights.append(h)
                chain_ids.append(ci)
    if d < n:
        e0 = np.column_stack(cols) if cols else np.zeros((n, 0))
        cols += list(np.linalg.qr(e0, mode="complete")[0][:, d:].T)
        heights += [0] * (n - d)
        chain_ids += [-1] * (n - d)
    frame = np.column_stack(cols) if cols else np.zeros((n, 0))
    return JordanZeroChain(frame, tuple(len(ch) for ch in chains),
                           tuple(heights), tuple(chain_ids), d, d_prime)


# ---------------------------------------------------------------------------
# collapse families
# ---------------------------------------------------------------------------

class CollapseFamily(NamedTuple):
    """Scaling family V_i^eps = eps^{-exponents[i]} V_i on the adapted frame.

    For a single Jordan chain the exponents are exactly the recipe
    nu_i = eps^{-1} for i >= d' + k and nu_i = eps^{-(1 + d' + k - i)}
    below; with several chains each chain gets a budget k_c (longest
    chains first, sum k) and is scaled the same way internally, which
    annihilates exactly k rows in the limit.  k = 0 is a pure homothety.
    ``c_base`` is C at eps = 1 and ``trace`` its Tr(C^T C) =
    sum(c_base**2), which bounds Tr(C_eps^T C_eps) at every eps <= 1.
    The frame and the chains are those of ``jordan_zero_chain(B)``.
    """

    exponents: tuple
    d_prime: int
    c_base: np.ndarray
    trace: float

    def c_matrix(self, eps) -> np.ndarray:
        """C at one eps (n, n), or at each eps of a grid (T, n, n)."""
        e = np.asarray(self.exponents, dtype=float)
        eps = np.asarray(eps, dtype=float)[..., None, None]
        return self.c_base * np.power(eps, e[:, None] - e[None, :])


def collapse_family(b_matrix, k: int) -> CollapseFamily:
    """The collapse family of B with k small eigenvalues, where B and k
    are decided: InputRejected naming k unless 0 <= k <= d - d', and
    naming B for ambiguous Jordan chains or when a chain vector or the
    eps = 1 trace Tr(C^T C) = sum(c_base**2) does not fit a float.  The
    family keeps that trace as ``trace``."""
    B = np.asarray(b_matrix, dtype=float)
    info = jordan_zero_chain(B)
    capacity = info.d - info.d_prime
    if not (0 <= k <= capacity):
        raise InputRejected("k", f"need 0 <= k <= d - d' = {capacity}, "
                                 f"got {k}")
    # budgets: longest chains first, each up to length - 1
    budgets = []
    remaining = k
    for length in info.chain_lengths:
        budgets.append(min(length - 1, remaining))
        remaining -= budgets[-1]
    exponents = [1 if ci < 0 else 1 + max(0, budgets[ci] + 1 - h)
                 for h, ci in zip(info.heights, info.chain_ids)]
    c_base = np.linalg.solve(info.frame, B @ info.frame)
    with np.errstate(over="ignore"):
        top = float(np.sum(c_base ** 2))
    if not math.isfinite(top):
        raise InputRejected("B", "the collapse family's eps = 1 trace "
                                 "Tr(C^T C) overflows")
    return CollapseFamily(tuple(exponents), info.d_prime, c_base, top)


class CollapseRow(NamedTuple):
    eps: float
    report: SpectrumReport
    trace: float
    max_k: float
    small_count: int


class CollapseTable(NamedTuple):
    b_matrix: np.ndarray
    rows: tuple
    family: CollapseFamily

    def to_csv(self) -> str:
        n_eigs = len(self.rows[0].report.eigenvalues) if self.rows else 0
        return csv_text(
            ["eps"] + [f"eig_{i + 1}" for i in range(n_eigs)]
            + ["trace", "max_k", "small_count"],
            [[row.eps, *row.report.eigenvalues, row.trace, row.max_k,
              row.small_count] for row in self.rows])


def small_threshold(eps):
    """Classification threshold for a small eigenvalue at grid point eps,
    elementwise over an array of grid points."""
    return np.minimum(10.0 * eps * eps, SMALL_ABS_CAP)


def run_collapse(b_matrix, k: int, eps_grid) -> CollapseTable:
    """Sweep the collapse family over eps and report spectra, the trace
    Tr(C_eps^T C_eps), the frame curvature bound, and small counts.

    The grid is checked against (0, 1] first, before the family is
    built.  Then the whole grid is solved as one stack of C_eps: one
    Laplacian assembly, one eigensolve and one clamp, each row bit for
    bit what a per-eps loop gives.  The small count classifies the
    nonzero eigenvalues of C C^T (the kernel, of exact dimension d', is
    excluded by construction).  Returns the one family as ``family``;
    errors of :func:`collapse_family` propagate.  For k >= 1, small
    eigenvalues eps^2 within twice the kernel cutoff are rejected before
    any eigensolve, naming B when eps = 1 already puts them there, so
    that no grid could pass, and eps_grid otherwise.
    """
    grid = np.array(check_eps_grid(eps_grid))
    B = np.asarray(b_matrix, dtype=float)
    fam = collapse_family(B, k)
    # the recipe's k small eigenvalues are eps^2, and the eps = 1 trace
    # Tr(C^T C) bounds the top one at every eps
    eps = float(grid.min())
    if k and not above_kernel_cutoff(eps * eps, fam.trace):
        if not above_kernel_cutoff(1.0, fam.trace):
            raise InputRejected("B", (
                f"the eps = 1 trace Tr(C^T C) = {fam.trace:.6g} puts eps^2 "
                f"under twice its kernel cutoff at all eps"))
        raise InputRejected("eps_grid", (
            f"eps = {eps!r} puts the small eigenvalue eps^2 (k = {k} of "
            f"them) below twice the kernel cutoff of the eps = 1 trace "
            f"Tr(C^T C) = {fam.trace:.6g}"))
    C = fam.c_matrix(grid)
    raw = np.linalg.eigvalsh(laplacian1_fast(C))
    vals, kernel = clamp_spectra(raw)
    # eigvalsh sorts ascending; the d' + 1 kernel eigenvalues come first
    counts = np.sum(raw[:, fam.d_prime + 1:]
                    < small_threshold(grid)[:, None], axis=1)
    traces = np.sum(C * C, axis=(1, 2))
    max_k = np.abs(solvable_pair_curvatures(C)).max(axis=-1, initial=0.0)
    rows = tuple(CollapseRow(float(e), SpectrumReport(v, int(kd)), float(tr),
                             float(mk), int(count))
                 for e, v, kd, tr, mk, count
                 in zip(grid, vals, kernel, traces, max_k, counts))
    return CollapseTable(B, rows, fam)


# ---------------------------------------------------------------------------
# semisimple floor experiment
# ---------------------------------------------------------------------------

def semisimple_defect(b_matrix) -> float:
    """Norm of m(B / s), m the squarefree part of the characteristic
    polynomial of B / s, s = max(1, spectral radius); zero iff B is
    semisimple.  Scaling first keeps the products of m(B / s) in range."""
    B = np.asarray(b_matrix, dtype=float)
    eigs = np.linalg.eigvals(B)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    B, eigs = B / scale, eigs / scale
    distinct = []
    for lam in sorted(eigs, key=lambda z: (z.real, z.imag)):
        if not distinct or abs(lam - distinct[-1]) > 1e-8:
            distinct.append(lam)
    m = np.eye(B.shape[0], dtype=complex)
    for lam in distinct:
        m = m @ (B - lam * np.eye(B.shape[0]))
    return float(np.max(np.abs(m)))


class FloorReport(NamedTuple):
    floor: float
    trials: int
    cap: float
    vacuous: bool
    ok: bool


def _capped_frames(B, q1, q2, u, cap) -> np.ndarray:
    """C = P^-1 B P with P = q1 diag(exp(t u)) q2 for each trial of the
    stacks q1, q2 (T, n, n) and u (T, n), where t halves from 1 until
    Tr(C^T C) <= cap or t < 1e-8; every trial still halving is redone
    together."""
    n = B.shape[0]
    t = np.ones(len(u))
    C = np.empty_like(q1)
    todo = np.arange(len(u))
    while todo.size:
        scale = np.exp(t[todo, None] * u[todo])[:, :, None] * np.eye(n)
        P = q1[todo] @ scale @ q2[todo]
        C[todo] = Ct = np.linalg.solve(P, B @ P)
        with np.errstate(over="ignore"):     # an infinite trace fails the cap
            trace = np.sum(Ct * Ct, axis=(1, 2))
        done = (trace <= cap) | (t[todo] < 1e-8)
        todo = todo[~done]
        t[todo] /= 2.0
    return C


def check_seed(seed) -> int:
    """An integral seed >= 0 as a plain int, which JSON manifests need."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InputRejected("seed", f"need an integer >= 0, got {seed!r}")
    return int(seed)


def semisimple_floor(b_matrix, trials: int = 200, curvature_cap: float = None,
                     seed: int = 0) -> FloorReport:
    """Empirical lower bound for the nonzero invariant spectrum over random
    metric frames with Tr(C^T C) below the cap.

    The guarantee for semisimple B is existence of a positive floor, not
    its value; this experiment reports the sampled minimum across all
    form degrees.  Trials run in chunks of FLOOR_CHUNK: each chunk draws
    its frames in trial order, validates every trial's tensor, splits by
    ``lie_complex.unimodular`` as ``spectrum`` decides for each trial, and
    solves each part's G_p, with that part's flag, by
    ``stacked_gram_eigenvalues``, the function ``spectrum`` reads, so the
    floor is bit-identical to a trial-by-trial loop over ``spectrum``, the
    mirror and the fold included.

    Bounds, each an InputRejected naming the input: 1 <= trials <=
    MAX_FLOOR_TRIALS; seed >= 0; Tr(B^T B) a finite float and B
    semisimple; a cap from Tr(B^T B) to float max / (n + 1)^2, the
    default 2 Tr(B^T B) + 1 included (naming B).  A frame with Tr(C^T C) <= cap has its Gram
    entries and eigenvalues at most p^2 Tr(C^T C) <= n^2 cap, since d_p
    is the derivation of C on p-forms, so none overflows.
    """
    B = np.asarray(b_matrix, dtype=float)
    n = B.shape[0]
    if not (isinstance(trials, numbers.Integral)
            and 1 <= trials <= MAX_FLOOR_TRIALS):
        raise InputRejected("trials", f"trials must be an integer in "
                                      f"1..{MAX_FLOOR_TRIALS}, got {trials!r}")
    check_seed(seed)
    if curvature_cap is not None and not math.isfinite(curvature_cap):
        raise InputRejected("curvature_cap", f"curvature_cap = "
                                             f"{curvature_cap} is not finite")
    with np.errstate(over="ignore"):
        base_tr = float(np.sum(B * B))
    if not math.isfinite(base_tr):
        raise InputRejected("B", "B needs Tr(B^T B) to be a finite float")
    if semisimple_defect(B) > 1e-8:
        raise InputRejected("B", "B has a nontrivial nilpotent part")
    key, cap_name = "curvature_cap", "cap"
    if curvature_cap is None:
        key, cap_name = "B", "default cap 2 Tr(B^T B) + 1"
        curvature_cap = 2.0 * base_tr + 1.0
    if base_tr == 0.0:
        return FloorReport(float("inf"), trials, curvature_cap, True, True)
    if curvature_cap < base_tr:
        raise InputRejected("curvature_cap", "cap below Tr(B^T B); "
                            "orthogonal frames already exceed it")
    limit = np.finfo(float).max / (n + 1) ** 2
    if curvature_cap > limit:
        raise InputRejected(key, f"{cap_name} = {curvature_cap:.6g} is above "
                                 f"float max / (n + 1)^2 = {limit:.6g}, "
                                 f"where Gram entries could overflow")
    rng = np.random.default_rng(seed)
    floor = float("inf")
    for start in range(0, trials, FLOOR_CHUNK):
        draws = [(rng.standard_normal((n, n)), rng.standard_normal((n, n)),
                  rng.uniform(-2.0, 2.0, size=n))
                 for _ in range(min(FLOOR_CHUNK, trials - start))]
        a1, a2, u = (np.array(x) for x in zip(*draws))
        C = _capped_frames(B, np.linalg.qr(a1)[0], np.linalg.qr(a2)[0], u,
                           curvature_cap)
        c = solvable_tensors(C)
        check_lie_tensors(c)
        uni = unimodular(c)
        for all_uni in set(uni.tolist()):
            part, grams = c[uni == all_uni], {}
            for p in range(1, n + 1):
                vals, kernel = clamp_spectra(hodge_union(
                    stacked_gram_eigenvalues(part, p, grams, all_uni),
                    stacked_gram_eigenvalues(part, p - 1, grams, all_uni),
                    form_dim(n + 1, p)))
                rows = np.flatnonzero(kernel < vals.shape[1])
                if rows.size:
                    floor = min(floor, float(np.min(vals[rows, kernel[rows]])))
    return FloorReport(floor, trials, curvature_cap, False, floor > FLOOR_TOL)
