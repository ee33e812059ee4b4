"""Exact spectral enumeration on flat tori R^k / Z^k.

Function eigenvalues are 4 pi^2 q*(gamma) over the dual lattice, p-forms
tensor a constant-coefficient factor of multiplicity C(k, p), and the
diameter is the covering radius of the lattice, a closed form for the
circles and 2-tori that every check builds.  Enumeration boxes are
certified: no relevant lattice vector can live outside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import csv_text

FOUR_PI_SQ = 4.0 * math.pi ** 2
#: largest base length, and base / fiber length, of a listed product: a
#: circle or unit square fiber lists about 5.3 base / fiber or 8.1 base rows
MAX_LENGTH_RATIO = 1e3


@dataclass(frozen=True)
class FlatTorus:
    """Flat torus R^k / Z^k with Gram matrix ``gram`` on the coordinates."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram must be square")
        if not np.isfinite(g).all():
            raise ValueError("gram must be finite")
        if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
            raise ValueError("gram must be symmetric")
        np.linalg.cholesky(g)          # SPD check
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    @property
    def k(self) -> int:
        return self.gram.shape[0]

    @property
    def volume(self) -> float:
        return float(np.sqrt(np.linalg.det(self.gram)))

    def dual_quadratic(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    @classmethod
    def circle(cls, length: float) -> "FlatTorus":
        return cls(np.array([[length * length]]))

    @classmethod
    def identity(cls, k: int) -> "FlatTorus":
        return cls(np.eye(k))


def gt_gram(t: float) -> FlatTorus:
    """The family (dx + t dy)^2 + dy^2 on T^2: gram [[1, t], [t, 1 + t^2]].

    The shear by one unit is an isometry between parameters t and t + 1,
    so diameter and spectrum are periodic in t even though the metrics
    are not uniformly comparable over all t.
    """
    return FlatTorus(np.array([[1.0, t], [t, 1.0 + t * t]]))


#: rows per vectorised pass of the enumeration, which bounds its memory
_BLOCK = 1 << 12


def _enumerate_dual(q: np.ndarray, qmax: float):
    """All (gamma, q(gamma)) with q(gamma) <= qmax, gamma in lexicographic
    order.

    The box |gamma_i| <= ceil(sqrt(qmax (q^-1)_ii)) is the bounding box of
    the ellipsoid q <= qmax, so it is certified in any basis.  A
    vectorised pass keeps the candidates within a rounding slack of the
    bound; each kept value is then g @ q @ g of that one vector, so no
    reported bit depends on the pass.
    """
    bound = qmax * (1.0 + 1e-12)
    radius = np.ceil(np.sqrt(max(qmax, 0.0)
                             * np.diag(np.linalg.inv(q)))).astype(int)
    shape = 2 * radius + 1
    size = int(np.prod(shape))
    out = []
    for start in range(0, size, _BLOCK):
        index = np.arange(start, min(size, start + _BLOCK))
        box = np.stack(np.unravel_index(index, shape), axis=1) - radius
        g = box.astype(float)
        # any two summation orders of g^T q g differ far below this slack
        slack = 1e-12 * np.einsum("ij,jk,ik->i", np.abs(g), np.abs(q),
                                  np.abs(g))
        near = np.einsum("ij,jk,ik->i", g, q, g) <= bound + slack
        for gamma in box[near].tolist():
            gv = np.array(gamma, dtype=float)
            val = float(gv @ q @ gv)
            if val <= bound:
                out.append((tuple(gamma), val))
    return out


def _shortest(q: np.ndarray) -> tuple:
    """(q(gamma), gamma) for the shortest nonzero integer gamma, the
    lexicographically first on ties; no shorter vector escapes the
    ellipsoid through e_1."""
    return min((val, gamma) for gamma, val
               in _enumerate_dual(q, float(q[0, 0])) if any(gamma))


def lambda01(torus: FlatTorus) -> float:
    """First function eigenvalue 4 pi^2 min_{gamma != 0} gamma^T G^{-1} gamma."""
    return FOUR_PI_SQ * _shortest(torus.dual_quadratic())[0]


@dataclass(frozen=True)
class Mode:
    gamma: tuple
    eigenvalue: float
    multiplicity: int


@dataclass(frozen=True)
class ModeSpectrum:
    """Complete mode list below the cutoff, symmetric under gamma -> -gamma."""

    k: int
    degree: int
    modes: tuple

    def eigenvalues(self) -> np.ndarray:
        return np.array([m.eigenvalue for m in self.modes for _ in
                         range(m.multiplicity)])

    def to_csv(self, invariant_flag=None) -> str:
        flag = invariant_flag or (lambda gamma: not any(gamma))
        return csv_text(
            [f"gamma_{i + 1}" for i in range(self.k)]
            + ["eigenvalue", "multiplicity", "invariant_flag"],
            [[*m.gamma, m.eigenvalue, m.multiplicity, int(flag(m.gamma))]
             for m in self.modes])


def _multiplicity(k: int, p: int) -> int:
    """C(k, p): the constant p-forms that tensor each mode on T^k."""
    if not (0 <= p <= k):
        raise ValueError(f"degree {p} not in [0, {k}]")
    return math.comb(k, p)


def p_form_spectrum(torus: FlatTorus, p: int, cutoff: float) -> ModeSpectrum:
    """Modes (gamma, 4 pi^2 q*(gamma), C(k,p)) with eigenvalue <= cutoff.

    gamma = 0 carries the harmonic space of dimension C(k, p).
    """
    mult = _multiplicity(torus.k, p)
    q = torus.dual_quadratic()
    modes = [Mode(gamma, FOUR_PI_SQ * val, mult)
             for gamma, val in _enumerate_dual(q, cutoff / FOUR_PI_SQ)]
    modes.sort(key=lambda m: (m.eigenvalue, m.gamma))
    return ModeSpectrum(torus.k, p, tuple(modes))


def _gauss_reduce(g: np.ndarray) -> tuple:
    """Lagrange-Gauss reduced basis (u, v) of Z^2 under the Gram ``g``,
    as integer coordinate vectors with |u| <= |v| and |u.v| <= |u|^2 / 2.

    Python's ``round`` halves to even, so a tie |u.v| = |u|^2 / 2 stops
    the reduction rather than stepping to the other shortest v.
    """
    u, v = np.array([1, 0]), np.array([0, 1])
    while True:
        if float(u @ g @ u) > float(v @ g @ v):
            u, v = v, u
        m = round(float(u @ g @ v) / float(u @ g @ u))
        if m == 0:
            return u, v
        v = v - m * u


def diameter(torus: FlatTorus) -> float:
    """Covering radius of the lattice Z^k in the metric, for k <= 2.

    A circle of length l has l / 2.  For k = 2 the deepest hole is the
    circumcentre of the non-obtuse triangle 0, u, v of a reduced basis
    with b = |u.v|, so with a = |u|^2 and c = |v|^2 the radius is
    sqrt(a c (a + c - 2b) / (4 (a c - b^2))); reduction gives
    b <= a / 2, so a c - b^2 >= 3 a c / 4 and the denominator does not
    cancel.  k >= 3 raises ValueError: no check builds such a torus.
    """
    g = torus.gram
    if torus.k == 1:
        return 0.5 * math.sqrt(float(g[0, 0]))
    if torus.k == 2:
        u, v = _gauss_reduce(g)
        a, c = float(u @ g @ u), float(v @ g @ v)
        b = abs(float(u @ g @ v))
        return math.sqrt(a * c * (a + c - 2.0 * b) / (4.0 * (a * c - b * b)))
    raise ValueError(f"diameter needs k <= 2, got k = {torus.k}")


# ---------------------------------------------------------------------------
# product-model invariance thresholds
# ---------------------------------------------------------------------------

def _product_modes(base: FlatTorus, fiber: FlatTorus, p: int,
                   cutoff: float) -> ModeSpectrum:
    """p-form modes of the block product, gamma = (gamma_base, gamma_fiber).

    Built from the factor enumerations, so the split eigenvalue is the
    exact sum lambda_B + lambda_F of the factor eigenvalues.
    """
    mult = _multiplicity(base.k + fiber.k, p)
    base_modes = _enumerate_dual(base.dual_quadratic(), cutoff / FOUR_PI_SQ)
    fiber_modes = _enumerate_dual(fiber.dual_quadratic(), cutoff / FOUR_PI_SQ)
    modes = []
    for gb, vb in base_modes:
        for gf, vf in fiber_modes:
            lam = FOUR_PI_SQ * vb + FOUR_PI_SQ * vf
            if lam <= cutoff * (1.0 + 1e-12):
                modes.append(Mode(gb + gf, lam, mult))
    modes.sort(key=lambda m: (m.eigenvalue, m.gamma))
    return ModeSpectrum(base.k + fiber.k, p, tuple(modes))


@dataclass(frozen=True)
class ThresholdReport:
    threshold: float               # lambda_{0,1} of the fiber
    min_noninvariant: float
    attained_exactly: bool
    violations: tuple              # modes below threshold with gamma_F != 0
    ok: bool
    csv: str


def threshold_check_product(base: FlatTorus, fiber: FlatTorus,
                            p: int) -> ThresholdReport:
    """On a product metric, eigenforms below lambda_{0,1}(fiber) must be
    fiber-invariant (gamma_F = 0), and the bound is attained exactly by
    the shortest fiber mode; the modes are listed up to 1.5 times the
    bound."""
    lam_f = lambda01(fiber)
    spec = _product_modes(base, fiber, p, 1.5 * lam_f)
    non_inv = [m for m in spec.modes if any(m.gamma[base.k:])]
    violations = tuple(m for m in non_inv if m.eigenvalue < lam_f)
    min_non_inv = non_inv[0].eigenvalue if non_inv else float("inf")
    attained = min_non_inv == lam_f
    return ThresholdReport(lam_f, min_non_inv, attained, violations,
                           not violations and attained,
                           spec.to_csv(lambda g: not any(g[base.k:])))


@dataclass(frozen=True)
class OddMultiplicityReport:
    groups: tuple                  # (eigenvalue, total multiplicity, has invariant)
    violations: tuple


def odd_multiplicity_check(base: FlatTorus, fiber: FlatTorus, p: int,
                           cutoff: float) -> OddMultiplicityReport:
    """Every eigenvalue below the cutoff with odd total multiplicity must
    contain a fiber-invariant mode."""
    groups = []
    for m in _product_modes(base, fiber, p, cutoff).modes:
        inv = not any(m.gamma[base.k:])
        if groups and abs(m.eigenvalue - groups[-1][0]) \
                <= 1e-9 * max(1.0, m.eigenvalue):
            val, count, has_inv = groups[-1]
            groups[-1] = (val, count + m.multiplicity, has_inv or inv)
        else:
            groups.append((m.eigenvalue, m.multiplicity, inv))
    violations = tuple(g for g in groups if g[1] % 2 == 1 and not g[2])
    return OddMultiplicityReport(tuple(groups), violations)
