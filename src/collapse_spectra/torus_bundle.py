"""Principal T^n bundles over T^2.

A nontrivial bundle is classified by an integer obstruction vector a.
Its nilpotent model has the single bracket [Y_1, Y_2] = sum_i b_i V_i;
every invariant form Laplacian then has exactly one nonzero eigenvalue
|b|^2 (times Vol(base)^{-2}; the base here has unit volume) with
multiplicity C(n, p-1).  The checks take the algebra ``nil_algebra(b)``
itself, so one sweep over the degrees solves each Gram matrix once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import csv_text
from .lie_complex import (SpectrumReport, StructureConstants, form_dim,
                          gram_eigenvalues, spectrum)


@dataclass(frozen=True)
class TorusBundleOverT2:
    """Fiber dimension and integer obstruction vector."""

    n: int
    a: tuple

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        if len(a) != self.n:
            raise ValueError("obstruction vector length must equal n")
        object.__setattr__(self, "a", a)

    @property
    def trivial(self) -> bool:
        return all(x == 0 for x in self.a)


def nil_algebra(b) -> StructureConstants:
    """(n+2)-dim nilpotent algebra with [Y_1, Y_2] = sum_i b_i V_i.

    Frame order (V_1, ..., V_n, Y_1, Y_2).
    """
    b = [float(x) for x in b]
    n = len(b)
    brackets = {(n, n + 1, i): b[i] for i in range(n) if b[i] != 0.0}
    return StructureConstants.from_brackets(n + 2, brackets)


def predict_spectrum(n: int, p: int, eta: float) -> SpectrumReport:
    """Invariant p-spectrum over a base of unit volume: one eigenvalue
    eta^2 with multiplicity C(n, p-1), zeros elsewhere."""
    if not (0 <= p <= n + 2):
        raise ValueError(f"degree {p} not in [0, {n + 2}]")
    dim = form_dim(n + 2, p)
    mult = math.comb(n, p - 1) if 1 <= p <= n + 1 else 0
    lam = eta ** 2
    if lam == 0.0:
        mult = 0
    vals = [0.0] * (dim - mult) + [lam] * mult
    return SpectrumReport.from_eigenvalues(vals)


def verify_spectrum(L: StructureConstants, p: int) -> float:
    """Max elementwise gap between the predicted spectrum and the
    Chevalley-Eilenberg eigensolve of ``L = nil_algebra(b)``, whose
    [Y_1, Y_2] = b is ``L.c[-2, -1, :-2]``."""
    eta = math.sqrt(sum(x * x for x in L.c[-2, -1, :-2].tolist()))
    predicted = predict_spectrum(L.n - 2, p, eta).eigenvalues
    computed = spectrum(L, p).eigenvalues
    return float(np.max(np.abs(predicted - computed))) if predicted.size else 0.0


@dataclass(frozen=True)
class EigenspaceSplit:
    eigenvalue: float
    total: int
    coclosed: int
    closed: int


def eigenspace_split(L: StructureConstants, p: int) -> EigenspaceSplit:
    """Dimensions of the eta^2-eigenspace of ``L = nil_algebra(b)`` split
    into coclosed and closed eigenforms; they come out as C(n-1, p-1) and
    C(n-1, p-2).

    By the Hodge split, the coclosed eta^2-eigenforms of degree p are the
    singular directions of d_p with sigma^2 = eta^2 and the closed ones
    those of d_{p-1}, so each count reads the squared singular values,
    taken as the Gram eigenvalues :func:`spectrum` solves and keeps
    (:func:`lie_complex.gram_eigenvalues`).  Those omit the exact zeros
    of the zero rows and columns of d_p; only sigma^2 = eta^2 > 0 is
    counted, so the counts are those of the full Gram matrix.
    """
    eta_sq = sum(x * x for x in L.c[-2, -1, :-2].tolist())
    if eta_sq == 0.0:
        return EigenspaceSplit(0.0, 0, 0, 0)

    def count(q):
        vals = gram_eigenvalues(L, q)[0]
        return int(np.sum(np.abs(vals - eta_sq) <= 1e-8 * eta_sq))

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


def check_eps_grid(eps_grid) -> tuple:
    """The eps grid as a tuple of floats; ValueError unless every entry
    lies in (0, 1] (NaN does not)."""
    grid = tuple(float(eps) for eps in eps_grid)
    if not all(0.0 < eps <= 1.0 for eps in grid):
        raise ValueError("eps grid must lie in (0, 1]")
    return grid


def collapse_lambda(eps: float, alpha, b0, culprit: str) -> float:
    """lambda = |V_eps|^2 = sum_i (eps^alpha_i b_i)^2, added term by term.

    A term or a partial sum that is not a finite float raises ValueError
    naming ``culprit``, the input that put it there.
    """
    lam = 0.0
    for a, x in zip(alpha, b0):
        try:
            lam += (eps ** float(a) * x) ** 2
        except OverflowError:
            lam = math.inf
        if not math.isfinite(lam):
            raise ValueError(f"{culprit}: eps = {eps!r} puts lambda = "
                             "sum (eps^alpha_i b_i)^2 outside the floats")
    return lam


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
    eps_list = check_eps_grid(eps_grid)
    lam_list = [float(collapse_lambda(eps, alpha, b0, f"b0 = {b0!r}"))
                for eps in eps_list]
    limit = sum(x * x for a, x in zip(alpha, b0) if a == 0)
    cls = "positive" if limit > 0 else "vanishes"
    return Trajectory(eps_list, tuple(lam_list), float(limit), cls)
