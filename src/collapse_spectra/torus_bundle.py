"""Principal T^n bundles over T^2.

A nontrivial bundle is classified by an integer obstruction vector a and
splits topologically as N_d x T^{n-1} with d = gcd(a).  Its nilpotent
model has the single bracket [Y_1, Y_2] = sum_i b_i V_i; every invariant
form Laplacian then has exactly one nonzero eigenvalue |b|^2 (times
Vol(base)^{-2}) with multiplicity C(n, p-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import csv_text
from .errors import TrivialBundle
from .intlat import gcd_completion, vector_gcd
from .lie_complex import (SpectrumReport, StructureConstants,
                          exterior_derivative, form_dim, spectrum)


@dataclass(frozen=True)
class TorusBundleOverT2:
    """Fiber dimension, integer obstruction vector, base volume."""

    n: int
    a: tuple
    vol_base: float = 1.0

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        if len(a) != self.n:
            raise ValueError("obstruction vector length must equal n")
        if self.vol_base <= 0:
            raise ValueError("base volume must be positive")
        object.__setattr__(self, "a", a)

    @property
    def trivial(self) -> bool:
        return all(x == 0 for x in self.a)

    @property
    def d(self) -> int:
        return vector_gcd(self.a)


@dataclass(frozen=True)
class VerticalVector:
    """Coefficients of the bracket direction V in the orthonormal vertical
    frame; eta = |V|."""

    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))

    @property
    def eta(self) -> float:
        return math.sqrt(sum(x * x for x in self.b))


@dataclass(frozen=True)
class ReductionReport:
    d: int
    basis_change: tuple        # unimodular P, first column a/d
    decomposition: str


def reduce(a) -> ReductionReport:
    """Split the bundle with obstruction a as N_d x T^{n-1}, d = gcd(a)."""
    a = [int(x) for x in a]
    if all(x == 0 for x in a):
        raise TrivialBundle("zero obstruction vector: the bundle is T^{n+2}")
    n = len(a)
    d, P = gcd_completion(a)
    decomposition = f"N_{d}" if n == 1 else f"N_{d} x T^{n - 1}"
    return ReductionReport(d, tuple(tuple(r) for r in P), decomposition)


def nil_algebra(b) -> StructureConstants:
    """(n+2)-dim nilpotent algebra with [Y_1, Y_2] = sum_i b_i V_i.

    Frame order (V_1, ..., V_n, Y_1, Y_2).
    """
    b = [float(x) for x in b]
    n = len(b)
    brackets = {(n, n + 1, i): b[i] for i in range(n) if b[i] != 0.0}
    return StructureConstants.from_brackets(n + 2, brackets)


def predict_spectrum(n: int, p: int, eta: float,
                     vol_base: float = 1.0) -> SpectrumReport:
    """Invariant p-spectrum: one eigenvalue eta^2 / vol_base^2 with
    multiplicity C(n, p-1), zeros elsewhere."""
    if not (0 <= p <= n + 2):
        raise ValueError(f"degree {p} not in [0, {n + 2}]")
    dim = form_dim(n + 2, p)
    mult = math.comb(n, p - 1) if 1 <= p <= n + 1 else 0
    lam = (eta / vol_base) ** 2
    if lam == 0.0:
        mult = 0
    vals = [0.0] * (dim - mult) + [lam] * mult
    return SpectrumReport.from_eigenvalues(vals)


def verify_spectrum(n: int, p: int, b) -> float:
    """Max elementwise gap between the predicted spectrum and the
    Chevalley-Eilenberg eigensolve of the nil algebra."""
    b = [float(x) for x in b]
    if len(b) != n:
        raise ValueError("coefficient vector length must equal n")
    eta = math.sqrt(sum(x * x for x in b))
    predicted = predict_spectrum(n, p, eta).eigenvalues
    computed = spectrum(nil_algebra(b), p).eigenvalues
    return float(np.max(np.abs(predicted - computed))) if predicted.size else 0.0


@dataclass(frozen=True)
class EigenspaceSplit:
    eigenvalue: float
    total: int
    coclosed: int
    closed: int


def eigenspace_split(n: int, p: int, b) -> EigenspaceSplit:
    """Dimensions of the eta^2-eigenspace split into coclosed and closed
    eigenforms; they come out as C(n-1, p-1) and C(n-1, p-2).

    By the Hodge split, the coclosed eta^2-eigenforms of degree p are the
    singular directions of d_p with sigma^2 = eta^2 and the closed ones
    those of d_{p-1}, so each count reads the squared singular values,
    taken as the eigenvalues of the smaller Gram matrix of d.
    """
    b = [float(x) for x in b]
    eta_sq = sum(x * x for x in b)
    if eta_sq == 0.0:
        return EigenspaceSplit(0.0, 0, 0, 0)
    L = nil_algebra(b)

    def count(q):
        d = exterior_derivative(L, q)
        gram = d.T @ d if d.shape[1] <= d.shape[0] else d @ d.T
        return int(np.sum(np.abs(np.linalg.eigvalsh(gram) - eta_sq)
                          <= 1e-8 * eta_sq))

    coclosed = count(p)
    closed = count(p - 1) if p else 0
    return EigenspaceSplit(eta_sq, coclosed + closed, coclosed, closed)


@dataclass(frozen=True)
class Trajectory:
    """lambda(eps) = sum_i (eps^{alpha_i} b_i)^2 along a scaling direction."""

    eps: tuple
    lam: tuple
    limit: float
    limit_class: str      # "vanishes" or "positive"

    def to_csv(self) -> str:
        return csv_text(["eps", "lambda", "limit_class"],
                        [[e, l, self.limit_class]
                         for e, l in zip(self.eps, self.lam)])


def collapse_direction(b0, alpha, eps_grid) -> Trajectory:
    """Collapse along V_i^eps = eps^{-alpha_i} V_i.

    Exponents must be exact nonnegative numbers; whether alpha_i is zero
    is a structural dichotomy, so no tolerance is applied.  The limit is
    sum over the alpha_i = 0 coordinates of b_i^2.
    """
    b0 = [float(x) for x in b0]
    alpha = list(alpha)
    if len(alpha) != len(b0):
        raise ValueError("alpha and b0 must have equal length")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    eps_list, lam_list = [], []
    for eps in eps_grid:
        if not (0.0 < eps <= 1.0):
            raise ValueError("eps grid must lie in (0, 1]")
        lam = sum((eps ** float(a) * x) ** 2 for a, x in zip(alpha, b0))
        eps_list.append(float(eps))
        lam_list.append(float(lam))
    limit = sum(x * x for a, x in zip(alpha, b0) if a == 0)
    cls = "positive" if limit > 0 else "vanishes"
    return Trajectory(tuple(eps_list), tuple(lam_list), float(limit), cls)


@dataclass(frozen=True)
class CurvatureBoundReport:
    max_abs_k: float
    bound: float           # 3/4 eta^2
    attained_at_horizontal: bool
    ok: bool


def curvature_bound_check(b) -> CurvatureBoundReport:
    """|K| <= 3/4 |V|^2 over frame pairs, with equality at (Y_1, Y_2)."""
    from .curvature import frame_curvature_table

    b = [float(x) for x in b]
    n = len(b)
    eta_sq = sum(x * x for x in b)
    table = frame_curvature_table(nil_algebra(b))
    bound = 0.75 * eta_sq
    attained = abs(abs(table.k(n, n + 1)) - bound) <= 1e-12 * max(1.0, bound)
    ok = table.max_abs <= bound + 1e-12 * max(1.0, bound)
    return CurvatureBoundReport(table.max_abs, bound, attained, ok)


def product_bundle_spectrum(eta1: float, eta2: float, n1: int, n2: int,
                            p: int) -> SpectrumReport:
    """Invariant p-spectrum of the Riemannian product of two bundles via
    the Kunneth merge of the factor spectra."""
    merged = []
    for q in range(0, p + 1):
        r = p - q
        if q > n1 + 2 or r > n2 + 2:
            continue
        s1 = predict_spectrum(n1, q, eta1).eigenvalues
        s2 = predict_spectrum(n2, r, eta2).eigenvalues
        for l1 in s1:
            for l2 in s2:
                merged.append(float(l1) + float(l2))
    return SpectrumReport.from_eigenvalues(merged)


def product_oracle_spectrum(b1, b2, p: int) -> SpectrumReport:
    """Same spectrum from the Chevalley-Eilenberg engine on the direct sum."""
    L = nil_algebra(b1).direct_sum(nil_algebra(b2))
    return spectrum(L, p)
