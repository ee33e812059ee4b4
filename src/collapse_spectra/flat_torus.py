"""Exact spectral enumeration on flat tori R^k / Z^k.

Function eigenvalues are 4 pi^2 q*(gamma) over the dual lattice, p-forms
tensor a constant-coefficient factor of multiplicity C(k, p), and the
diameter is the covering radius of the lattice, read off the Voronoi
cell of 0.  Enumeration boxes are certified: no relevant lattice vector
can live outside them.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Voronoi

FOUR_PI_SQ = 4.0 * math.pi ** 2


@dataclass(frozen=True)
class FlatTorus:
    """Flat torus R^k / Z^k with Gram matrix ``gram`` on the coordinates."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram must be square")
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

    def product(self, other: "FlatTorus") -> "FlatTorus":
        g = np.zeros((self.k + other.k, self.k + other.k))
        g[: self.k, : self.k] = self.gram
        g[self.k:, self.k:] = other.gram
        return FlatTorus(g)


def gt_gram(t: float) -> FlatTorus:
    """The family (dx + t dy)^2 + dy^2 on T^2: gram [[1, t], [t, 1 + t^2]].

    The shear by one unit is an isometry between parameters t and t + 1,
    so diameter and spectrum are periodic in t even though the metrics
    are not uniformly comparable over all t.
    """
    return FlatTorus(np.array([[1.0, t], [t, 1.0 + t * t]]))


def _box_radius(q: np.ndarray, qmax: float) -> int:
    """Per-coordinate bound: q*(gamma) <= qmax forces |gamma_i| <= R."""
    lam_min = float(np.linalg.eigvalsh(q)[0])
    return max(1, int(math.ceil(math.sqrt(max(qmax, 0.0) / lam_min))))


def _enumerate_dual(q: np.ndarray, qmax: float):
    """All (gamma, q(gamma)) with q <= qmax, from the certified box."""
    k = q.shape[0]
    R = _box_radius(q, qmax)
    out = []
    for gamma in itertools.product(range(-R, R + 1), repeat=k):
        g = np.array(gamma, dtype=float)
        val = float(g @ q @ g)
        if val <= qmax * (1.0 + 1e-12):
            out.append((gamma, val))
    return out


def lambda01(torus: FlatTorus) -> float:
    """First function eigenvalue 4 pi^2 min_{gamma != 0} gamma^T G^{-1} gamma.

    The search box is derived from the value at e_1, which no shorter
    vector can escape.
    """
    q = torus.dual_quadratic()
    q0 = float(q[0, 0])
    best = q0
    for gamma, val in _enumerate_dual(q, q0):
        if any(gamma) and val < best:
            best = val
    return FOUR_PI_SQ * best


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
    cutoff: float
    modes: tuple

    def eigenvalues(self) -> np.ndarray:
        return np.array([m.eigenvalue for m in self.modes for _ in
                         range(m.multiplicity)])

    def to_csv(self, invariant_flag=None) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([f"gamma_{i + 1}" for i in range(self.k)]
                   + ["eigenvalue", "multiplicity", "invariant_flag"])
        for m in self.modes:
            flag = invariant_flag(m.gamma) if invariant_flag else \
                int(not any(m.gamma))
            w.writerow(list(m.gamma) + [repr(m.eigenvalue), m.multiplicity,
                                        int(flag)])
        return buf.getvalue()


def p_form_spectrum(torus: FlatTorus, p: int, cutoff: float) -> ModeSpectrum:
    """Modes (gamma, 4 pi^2 q*(gamma), C(k,p)) with eigenvalue <= cutoff.

    gamma = 0 carries the harmonic space of dimension C(k, p).
    """
    k = torus.k
    if not (0 <= p <= k):
        raise ValueError(f"degree {p} not in [0, {k}]")
    mult = math.comb(k, p)
    q = torus.dual_quadratic()
    modes = [Mode(gamma, FOUR_PI_SQ * val, mult)
             for gamma, val in _enumerate_dual(q, cutoff / FOUR_PI_SQ)]
    modes.sort(key=lambda m: (m.eigenvalue, m.gamma))
    return ModeSpectrum(k, p, float(cutoff), tuple(modes))


def diameter(torus: FlatTorus) -> float:
    """Covering radius of the lattice Z^k in the metric: the largest norm
    of a vertex of the Voronoi cell of 0.

    Every Voronoi-relevant vector v has |v| <= 2 mu, and Babai's
    nearest-plane bound gives mu^2 <= 1/4 sum |b_i*|^2 <= 1/4 tr G, so
    the lattice vectors with gamma^T G gamma <= tr G cut out the whole
    cell.  Qhull needs two dimensions; a circle of length l has l / 2.
    """
    g = torus.gram
    if torus.k == 1:
        return 0.5 * math.sqrt(float(g[0, 0]))
    gammas = [gamma for gamma, _ in _enumerate_dual(g, float(np.trace(g)))]
    vor = Voronoi(np.array(gammas, dtype=float) @ np.linalg.cholesky(g))
    cell = vor.regions[vor.point_region[gammas.index((0,) * torus.k)]]
    return float(np.max(np.linalg.norm(vor.vertices[cell], axis=1)))


# ---------------------------------------------------------------------------
# product-model invariance thresholds
# ---------------------------------------------------------------------------

def _product_modes(base: FlatTorus, fiber: FlatTorus, cutoff: float):
    """Modes of the block product as (gamma_base, gamma_fiber, eigenvalue).

    Built from the factor enumerations, so the split eigenvalue is the
    exact sum lambda_B + lambda_F of the factor eigenvalues.
    """
    qb = base.dual_quadratic()
    qf = fiber.dual_quadratic()
    base_modes = _enumerate_dual(qb, cutoff / FOUR_PI_SQ)
    fiber_modes = _enumerate_dual(qf, cutoff / FOUR_PI_SQ)
    out = []
    for gb, vb in base_modes:
        for gf, vf in fiber_modes:
            lam = FOUR_PI_SQ * vb + FOUR_PI_SQ * vf
            if lam <= cutoff * (1.0 + 1e-12):
                out.append((gb, gf, lam))
    out.sort(key=lambda t: (t[2], t[0], t[1]))
    return out


@dataclass(frozen=True)
class ThresholdReport:
    threshold: float               # lambda_{0,1} of the fiber
    min_noninvariant: float
    attained_exactly: bool
    violations: tuple              # modes below threshold with gamma_F != 0
    form_multiplicity: int
    ok: bool
    csv: str


def threshold_check_product(base: FlatTorus, fiber: FlatTorus, p: int,
                            cutoff: float = None) -> ThresholdReport:
    """On a product metric, eigenforms below lambda_{0,1}(fiber) must be
    fiber-invariant (gamma_F = 0), and the bound is attained exactly by
    the shortest fiber mode."""
    lam_f = lambda01(fiber)
    if cutoff is None:
        cutoff = 1.5 * lam_f
    k = base.k + fiber.k
    if not (0 <= p <= k):
        raise ValueError(f"degree {p} not in [0, {k}]")
    modes = _product_modes(base, fiber, cutoff)
    violations = tuple((gb, gf, lam) for gb, gf, lam in modes
                       if lam < lam_f and any(gf))
    non_inv = [lam for gb, gf, lam in modes if any(gf)]
    min_non_inv = min(non_inv) if non_inv else float("inf")
    attained = min_non_inv == lam_f
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"gamma_{i + 1}" for i in range(k)]
               + ["eigenvalue", "multiplicity", "invariant_flag"])
    mult = math.comb(k, p)
    for gb, gf, lam in modes:
        w.writerow(list(gb) + list(gf)
                   + [repr(lam), mult, int(not any(gf))])
    return ThresholdReport(lam_f, min_non_inv, attained, violations, mult,
                           not violations and attained, buf.getvalue())


@dataclass(frozen=True)
class OddMultiplicityReport:
    groups: tuple                  # (eigenvalue, total multiplicity, has invariant)
    violations: tuple
    ok: bool


def odd_multiplicity_check(base: FlatTorus, fiber: FlatTorus, p: int,
                           cutoff: float) -> OddMultiplicityReport:
    """Every eigenvalue below the cutoff with odd total multiplicity must
    contain a fiber-invariant mode."""
    k = base.k + fiber.k
    mult = math.comb(k, p)
    modes = _product_modes(base, fiber, cutoff)
    groups = []
    for gb, gf, lam in modes:
        if groups and abs(lam - groups[-1][0]) <= 1e-9 * max(1.0, lam):
            val, count, inv = groups[-1]
            groups[-1] = (val, count + 1, inv or not any(gf))
        else:
            groups.append((lam, 1, not any(gf)))
    reports = tuple((val, count * mult, inv) for val, count, inv in groups)
    violations = tuple(g for g in reports if g[1] % 2 == 1 and not g[2])
    return OddMultiplicityReport(reports, violations, not violations)


@dataclass(frozen=True)
class DiameterBoundReport:
    lam01: float
    diam: float
    margin: float                  # lam01 - pi^2 / diam^2
    ok: bool


def diameter_eigenvalue_bound_check(torus: FlatTorus) -> DiameterBoundReport:
    """Check lambda_{0,1} >= (pi / diam)^2 up to rounding (1e-12 relative)."""
    lam = lambda01(torus)
    diam = diameter(torus)
    bound = math.pi ** 2 / diam ** 2
    margin = lam - bound
    return DiameterBoundReport(lam, diam, margin,
                               margin >= -1e-12 * max(1.0, bound))
