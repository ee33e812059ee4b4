"""Named deterministic experiments with CSV artifacts and pass/fail checks.

Every scenario computes a table tied to one quantitative claim about
collapsing homogeneous bundles, emits CSV bodies that are byte-identical
for a fixed config and seed, and returns machine-checkable margins.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import (curvature, euler_bound, flat_torus, intlat, lie_complex,
               mapping_torus, torus_bundle)
from .errors import ConfigInvalid, ScenarioUnknown


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class ScenarioResult:
    artifacts: dict            # filename -> CSV text
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(x)) if isinstance(x, float) else x
                    for x in row])
    return buf.getvalue()


def _comb0(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _matrix_param(params, key):
    value = params[key]
    try:
        if isinstance(value, str):
            rows = [r for r in value.strip().splitlines() if r.strip()]
            value = [[float(x) for x in r.split()] for r in rows]
        return np.asarray(value, dtype=float)
    except ValueError as exc:
        raise ConfigInvalid(
            f"{key}: need a numeric matrix with rows of equal length") from exc


def _vector_param(params, key):
    value = params[key]
    if isinstance(value, str):
        return [float(x) for x in value.replace(",", " ").split()]
    return [float(x) for x in value]


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def _scenario_heisenberg(params, seed, eps_grid):
    alpha = float(params["alpha"])
    beta = float(params["beta"])
    gamma = float(params["gamma"])
    tau = gamma - alpha - beta
    if tau < 0:
        raise ConfigInvalid("gamma: need gamma >= alpha + beta for bounded curvature")
    rows, worst = [], 0.0
    for eps in eps_grid:
        expected = eps ** (2 * tau)
        # the relative error below needs a normal, nonzero expected value
        if expected < np.finfo(float).tiny:
            raise ConfigInvalid(f"eps_grid: eps = {eps!r} underflows "
                                f"eps^(2 tau) at tau = {tau!r}")
        L = lie_complex.StructureConstants.heisenberg3(eps ** tau)
        rep = lie_complex.spectrum(L, 1)
        lam = float(rep.eigenvalues[-1])
        rel = abs(lam - expected) / expected
        worst = max(worst, rel)
        rows.append([eps, tau, lam, expected, rel])
    checks = [CheckResult("eigenvalue-rate", worst <= 1e-10, 1e-10 - worst,
                          f"max relative error {worst:.3e}")]
    return ScenarioResult({"spectra.csv": _csv(
        ["eps", "tau", "lambda", "expected", "rel_err"], rows)}, checks)


def _scenario_mapping_torus(params, seed, eps_grid):
    B = _matrix_param(params, "B")
    k = int(params["k"])
    table = mapping_torus.run_collapse(B, k, eps_grid)
    checks = []
    n = B.shape[0]
    d, d_prime = table.d, table.d_prime
    kernel_ok = all(r.report.kernel_dim == d_prime + 1 for r in table.rows)
    checks.append(CheckResult("kernel-dim", kernel_ok, 0.0,
                              f"expected {d_prime + 1}"))
    if k == 0:
        base = table.rows[0].report.eigenvalues
        const = all(np.array_equal(r.report.eigenvalues, base)
                    for r in table.rows)
        checks.append(CheckResult("homothety-constant", const, 0.0,
                                  "spectra must match exactly"))
    else:
        falling = all(
            float(np.sort(r.report.eigenvalues)[d_prime + 1 + k - 1])
            < 10.0 * r.eps ** 2 for r in table.rows)
        checks.append(CheckResult("first-k-fall", falling, 0.0,
                                  "k-th nonzero eigenvalue below 10 eps^2"))
        if k + 1 <= n - d_prime:
            floor = min(float(np.sort(r.report.eigenvalues)[d_prime + 1 + k])
                        for r in table.rows)
            checks.append(CheckResult("survivor-floor", floor >= 1e-2,
                                      floor - 1e-2, f"floor {floor:.3e}"))
    tr0 = float(np.sum(table.b_matrix * table.b_matrix))
    fam = mapping_torus.collapse_family(B, k)
    tr1 = float(np.sum(fam.c_matrix(1.0) ** 2))
    tr_ok = all(r.trace <= tr1 + 1e-9 for r in table.rows)
    checks.append(CheckResult("trace-bounded", tr_ok, 0.0,
                              f"eps=1 trace {tr1:.6g} (Tr B^T B = {tr0:.6g})"))
    return ScenarioResult({"collapse.csv": table.to_csv()}, checks)


def _scenario_two_block_solvable(params, seed, eps_grid):
    a_prime = np.array([[2.0, 1.0], [1.0, 1.0]])
    lam = math.log(float(np.max(np.linalg.eigvals(a_prime).real)))

    def c_eps(eps):
        return np.array([[lam, eps, 0, 0], [0, lam, 0, 0],
                         [0, 0, -lam, eps], [0, 0, 0, -lam]])

    from .lie_complex import FormBasis
    eps0 = eps_grid[0]
    L = mapping_torus.solvable_algebra(c_eps(eps0))
    d2 = lie_complex.exterior_derivative(L, 2)
    b2, b3 = FormBasis(5, 2), FormBasis(5, 3)
    expected = {((0, 1, 4), (0, 1)): -2 * lam,
                ((1, 2, 4), (0, 2)): -eps0,
                ((0, 3, 4), (0, 2)): -eps0,
                ((1, 3, 4), (0, 3)): -eps0,
                ((1, 3, 4), (1, 2)): -eps0,
                ((2, 3, 4), (2, 3)): 2 * lam}
    pattern = np.zeros_like(d2)
    for (row, col), v in expected.items():
        pattern[b3.rank[row], b2.rank[col]] = v
    gap = float(np.max(np.abs(d2 - pattern)))
    rows, ratios = [], []
    for eps in eps_grid:
        rep = lie_complex.spectrum(mapping_torus.solvable_algebra(c_eps(eps)), 2)
        small = float(rep.nonzero[0])
        rows.append([eps, small, small / eps ** 2])
        ratios.append((eps, small / eps ** 2))
    drift = 0.0
    below = [r for e, r in ratios if e < 0.1]
    for r1, r2 in zip(below, below[1:]):
        drift = max(drift, abs(r2 - r1) / r1)
    checks = [
        CheckResult("d2-pattern", gap <= 1e-12, 1e-12 - gap,
                    f"entrywise gap {gap:.3e}"),
        CheckResult("rate-drift", drift <= 0.05, 0.05 - drift,
                    f"lambda/eps^2 drift {drift:.3e}"),
    ]
    return ScenarioResult({"rate.csv": _csv(["eps", "lambda_small", "ratio"],
                                            rows)}, checks)


def _scenario_flat_rotation_torus(params, seed, eps_grid):
    two_pi = 2.0 * math.pi
    B = np.array([[0.0, two_pi], [-two_pi, 0.0]])
    A = [[1, 0], [0, 1]]
    bundle = mapping_torus.MappingTorusBundle(A, B)
    betti = intlat.betti1_mapping_torus(A)
    rep = lie_complex.spectrum(bundle.algebra(), 1)
    table = curvature.frame_curvature_table(bundle.algebra())
    max_k = table.max_abs
    checks = [
        CheckResult("betti-b1", betti.b1 == 3, 0.0, f"b1 = {betti.b1}"),
        CheckResult("invariant-kernel", rep.kernel_dim == 1, 0.0,
                    f"dim ker = {rep.kernel_dim} < b1 = {betti.b1}"),
        CheckResult("flat-metric", max_k <= 1e-12, 1e-12 - max_k,
                    f"max |K| = {max_k:.3e}"),
    ]
    return ScenarioResult({"curvature.csv": table.to_csv()}, checks)


def _scenario_torus_bundle(params, seed, eps_grid):
    n = int(params["n"])
    b = _vector_param(params, "b")
    rows, worst = [], 0.0
    for p in range(1, n + 2):
        gap = torus_bundle.verify_spectrum(n, p, b)
        split = torus_bundle.eigenspace_split(n, p, b)
        rows.append([n, p, gap, split.total, split.coclosed, split.closed])
        worst = max(worst, gap)
    eta_sq = sum(x * x for x in b)
    split_ok = all(
        r[4] == _comb0(n - 1, r[1] - 1) and r[5] == _comb0(n - 1, r[1] - 2)
        for r in rows)
    cb = torus_bundle.curvature_bound_check(b)
    od = curvature.oneill_defect(torus_bundle.nil_algebra(b),
                                 [n, n + 1], 0.0)
    checks = [
        CheckResult("spectrum-match", worst <= 1e-10, 1e-10 - worst,
                    f"max gap {worst:.3e}"),
        CheckResult("eigenspace-split", split_ok, 0.0,
                    "coclosed/closed counts"),
        CheckResult("curvature-bound", cb.ok and cb.attained_at_horizontal,
                    cb.bound - cb.max_abs_k,
                    f"max |K| = {cb.max_abs_k:.6g} vs 3/4 eta^2 = {cb.bound:.6g}"),
        CheckResult("oneill-defect", od <= 1e-10, 1e-10 - od,
                    f"defect {od:.3e}"),
    ]
    return ScenarioResult({"spectra.csv": _csv(
        ["n", "p", "gap", "total_mult", "coclosed", "closed"], rows)}, checks)


def _scenario_nil_homothety(params, seed, eps_grid):
    b0 = _vector_param(params, "b")
    traj = torus_bundle.collapse_direction(b0, [1.0] * len(b0), eps_grid)
    exact = all(lam == sum((e * x) ** 2 for x in b0)
                for e, lam in zip(traj.eps, traj.lam))
    checks = [
        CheckResult("rate-exact", exact, 0.0,
                    "lambda(eps) = eps^2 sum b_i^2"),
        CheckResult("vanishes", traj.limit_class == "vanishes", 0.0,
                    f"limit {traj.limit}"),
    ]
    return ScenarioResult({"trajectory.csv": traj.to_csv()}, checks)


def _scenario_nil_dense_direction(params, seed, eps_grid):
    b0 = _vector_param(params, "b")
    alpha = [1.0] + [0.0] * (len(b0) - 1)
    traj = torus_bundle.collapse_direction(b0, alpha, eps_grid)
    expected = sum(x * x for x in b0[1:])
    checks = [
        CheckResult("positive-limit", traj.limit_class == "positive", 0.0,
                    f"limit {traj.limit}"),
        CheckResult("limit-exact", traj.limit == expected, 0.0,
                    f"expected {expected}"),
    ]
    return ScenarioResult({"trajectory.csv": traj.to_csv()}, checks)


def _scenario_flat_threshold(params, seed, eps_grid):
    base = flat_torus.FlatTorus.circle(float(params["base_length"]))
    fiber_len = float(params["fiber_length"])
    circle_rep = flat_torus.threshold_check_product(
        base, flat_torus.FlatTorus.circle(fiber_len), 1)
    square_rep = flat_torus.threshold_check_product(
        base, flat_torus.FlatTorus.identity(2), 1)
    odd = flat_torus.odd_multiplicity_check(
        base, flat_torus.FlatTorus.identity(2), 1,
        cutoff=2.5 * flat_torus.FOUR_PI_SQ)
    expected = (2.0 * math.pi / fiber_len) ** 2
    checks = [
        CheckResult("circle-threshold",
                    circle_rep.ok and abs(circle_rep.threshold - expected)
                    <= 1e-9 * expected, 0.0,
                    f"threshold {circle_rep.threshold:.6g}"),
        CheckResult("square-threshold", square_rep.ok, 0.0,
                    f"threshold {square_rep.threshold:.6g} attained"),
        CheckResult("odd-multiplicity", odd.ok, 0.0,
                    f"{len(odd.groups)} eigenvalue groups"),
    ]
    return ScenarioResult({"modes_circle.csv": circle_rep.csv,
                           "modes_square.csv": square_rep.csv}, checks)


def _scenario_gt_family(params, seed, eps_grid):
    t_values = _vector_param(params, "t_values")
    resolution = int(params["resolution"])
    cutoff = 300.0
    rows = []
    worst_spec, worst_diam, bound_ok = 0.0, 0.0, True
    for t in t_values:
        torus_t = flat_torus.gt_gram(t)
        torus_t1 = flat_torus.gt_gram(t + 1.0)
        s_t = np.sort(flat_torus.p_form_spectrum(torus_t, 0, cutoff).eigenvalues())
        s_t1 = np.sort(flat_torus.p_form_spectrum(torus_t1, 0, cutoff).eigenvalues())
        gap = float(np.max(np.abs(s_t - s_t1))) if len(s_t) == len(s_t1) \
            else float("inf")
        d_t = flat_torus.diameter(torus_t, resolution)
        d_t1 = flat_torus.diameter(torus_t1, resolution)
        diam_gap = abs(d_t.value - d_t1.value)
        lam = flat_torus.lambda01(torus_t)
        db = flat_torus.diameter_eigenvalue_bound_check(torus_t, resolution)
        bound_ok = bound_ok and db.ok
        worst_spec = max(worst_spec, gap)
        worst_diam = max(worst_diam, diam_gap - (d_t.error + d_t1.error))
        rows.append([t, lam, d_t.value, d_t.error, gap, diam_gap])
    checks = [
        CheckResult("spectrum-periodic", worst_spec <= 1e-12, 1e-12 - worst_spec,
                    f"max eigenvalue gap {worst_spec:.3e}"),
        CheckResult("diameter-periodic", worst_diam <= 0.0, -worst_diam,
                    "within summed grid errors"),
        CheckResult("diameter-bound", bound_ok, 0.0,
                    "lambda01 >= (pi/diam)^2"),
    ]
    return ScenarioResult({"gt.csv": _csv(
        ["t", "lambda01", "diam", "diam_err", "spec_gap", "diam_gap"], rows)},
        checks)


def _scenario_euler_bound(params, seed, eps_grid):
    trials = int(params["trials"])
    kmax = int(params["kmax"])
    rng = np.random.default_rng(seed)
    rows = []
    chain_ok, fact_ok = True, True
    count = 0
    while count < trials:
        k = int(rng.integers(1, kmax + 1))
        m = int(rng.integers(k, k + 3))
        E = rng.integers(-4, 5, size=(m, k))
        if intlat.rational_rank([[int(x) for x in row] for row in E]) < k:
            continue
        count += 1
        w = rng.standard_normal((k, k))
        gram = w @ w.T + 0.5 * np.eye(k)
        bc = euler_bound.bound_chain(E.tolist(), gram)
        df = euler_bound.det_factorization(E.tolist(), gram)
        chain_ok = chain_ok and bc.ok
        fact_ok = fact_ok and df.ok
        rows.append([count, k, m, bc.lam_min, bc.mid_bound, bc.det_bound,
                     df.residual, int(bc.ok and df.ok)])
    rho2 = euler_bound.rho_flat(flat_torus.FlatTorus.identity(2))
    rho3 = euler_bound.rho_flat(flat_torus.FlatTorus.identity(3))
    nr = euler_bound.noninjective_reduce([[3, 6]], np.eye(2))
    quotient_ok = (nr.reduced_integral == ((3,),)
                   and nr.kernel_basis == ((-2, 1),))
    checks = [
        CheckResult("bound-chain", chain_ok, 0.0, f"{trials} random maps"),
        CheckResult("det-factorization", fact_ok, 0.0, "relative 1e-10"),
        CheckResult("rho-t2", abs(rho2.rho - 1.0) <= 1e-12,
                    1e-12 - abs(rho2.rho - 1.0), f"rho = {rho2.rho}"),
        CheckResult("rho-t3", abs(rho3.rho - 1.0) <= 1e-12,
                    1e-12 - abs(rho3.rho - 1.0), f"rho = {rho3.rho}"),
        CheckResult("noninjective-quotient", quotient_ok, 0.0,
                    f"kernel {nr.kernel_basis}, reduced {nr.reduced_integral}"),
    ]
    return ScenarioResult({"chain.csv": _csv(
        ["trial", "k", "m", "lam_min", "mid_bound", "det_bound",
         "fact_residual", "ok"], rows)}, checks)


def _scenario_vol_bound(params, seed, eps_grid):
    n1 = torus_bundle.TorusBundleOverT2(1, (1,))
    rep1 = euler_bound.vol_bound_experiment(n1, [1.0], eps_grid)
    n2 = torus_bundle.TorusBundleOverT2(2, (1, 0))
    rep2 = euler_bound.vol_bound_experiment(n2, [1.0, 1.0], eps_grid)
    n2b = torus_bundle.TorusBundleOverT2(2, (1, 2))
    rep3 = euler_bound.vol_bound_experiment(n2b, [1.0, 0.0], eps_grid)
    ratio1 = [r.ratio for r in rep1.rows]
    circle_constant = max(ratio1) - min(ratio1)
    checks = [
        CheckResult("circle-ratio-constant", circle_constant <= 1e-12,
                    1e-12 - circle_constant, "lambda / vol^2 constant for n=1"),
        CheckResult("homothety-bounded", rep2.ok, rep2.min_ratio,
                    f"min ratio {rep2.min_ratio:.6g}"),
        CheckResult("dense-direction-bounded", rep3.ok, rep3.min_ratio,
                    f"min ratio {rep3.min_ratio:.6g}"),
    ]
    return ScenarioResult({"circle.csv": rep1.to_csv(),
                           "homothety.csv": rep2.to_csv(),
                           "dense.csv": rep3.to_csv()}, checks)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    func: object
    tag: str
    defaults: dict = field(default_factory=dict)
    default_grid: tuple = (0.5, 0.1, 0.01)


SCENARIOS = {
    "heisenberg": ScenarioSpec(
        _scenario_heisenberg, "small-eigenvalue-rate",
        {"alpha": 1, "beta": 1, "gamma": 3}),
    "mapping-torus": ScenarioSpec(
        _scenario_mapping_torus, "collapse-count",
        {"B": "0 1\n0 0", "k": 1},
        tuple(2.0 ** -j for j in range(1, 11))),
    "two-block-solvable": ScenarioSpec(
        _scenario_two_block_solvable, "two-form-small-eigenvalue",
        {}, (0.08, 0.04, 0.02, 0.01)),
    "flat-rotation-torus": ScenarioSpec(
        _scenario_flat_rotation_torus, "noninvariant-harmonic-forms", {}),
    "torus-bundle": ScenarioSpec(
        _scenario_torus_bundle, "unique-eigenvalue-multiplicity",
        {"n": 2, "b": "1 0"}),
    "nil-homothety": ScenarioSpec(
        _scenario_nil_homothety, "homothety-produces-small-eigenvalue",
        {"b": "1 1"}, (0.5, 0.25, 0.125, 0.0625)),
    "nil-dense-direction": ScenarioSpec(
        _scenario_nil_dense_direction, "dense-direction-positive-limit",
        {"b": "0.5 1.5"}, (0.5, 0.25, 0.125, 0.0625)),
    "flat-threshold": ScenarioSpec(
        _scenario_flat_threshold, "fiber-invariance-threshold",
        {"base_length": 1.0, "fiber_length": 0.1}),
    "gt-family": ScenarioSpec(
        _scenario_gt_family, "shear-family-periodicity",
        {"t_values": "0 0.3 0.5", "resolution": 200}),
    "euler-bound": ScenarioSpec(
        _scenario_euler_bound, "determinant-bound-chain",
        {"trials": 50, "kmax": 4}),
    "vol-bound": ScenarioSpec(
        _scenario_vol_bound, "volume-squared-lower-bound",
        {}, (1.0, 0.5, 0.25, 0.125, 0.0625)),
}


def list_scenarios():
    """Deterministic alphabetical (name, tag, defaults) listing."""
    return [(name, SCENARIOS[name].tag, dict(SCENARIOS[name].defaults))
            for name in sorted(SCENARIOS)]


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run description: scenario name, parameter overrides,
    seed, eps grid (None for the scenario default) and output directory."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    eps_grid: tuple = None
    out_dir: str = None

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ScenarioUnknown(f"unknown scenario {self.name!r}")
        spec = SCENARIOS[self.name]
        for key in self.params:
            if key not in spec.defaults:
                raise ConfigInvalid(f"{key}: not a parameter of {self.name}")
        if not isinstance(self.seed, int):
            raise ConfigInvalid("seed: must be an integer")
        if self.eps_grid is not None:
            grid = tuple(float(e) for e in self.eps_grid)
            if not grid or any(not (0.0 < e <= 1.0) for e in grid):
                raise ConfigInvalid("eps_grid: entries must lie in (0, 1]")
            object.__setattr__(self, "eps_grid", grid)

    @property
    def grid(self) -> tuple:
        return self.eps_grid or SCENARIOS[self.name].default_grid

    def run(self) -> ScenarioResult:
        return run_scenario_checks(self.name, self.params, self.seed,
                                   self.eps_grid)


def run_scenario_checks(name: str, params: dict = None, seed: int = 0,
                        eps_grid=None) -> ScenarioResult:
    """Run one scenario in memory; validates parameters first."""
    if name not in SCENARIOS:
        raise ScenarioUnknown(f"unknown scenario {name!r}; see 'list'")
    spec = SCENARIOS[name]
    merged = dict(spec.defaults)
    if params:
        for key, value in params.items():
            if key not in spec.defaults:
                raise ConfigInvalid(f"{key}: not a parameter of {name}")
            merged[key] = value
    grid = tuple(float(e) for e in (eps_grid or spec.default_grid))
    if any(not (0.0 < e <= 1.0) for e in grid):
        raise ConfigInvalid("eps_grid: entries must lie in (0, 1]")
    if not isinstance(seed, int):
        raise ConfigInvalid("seed: must be an integer")
    return spec.func(merged, seed, grid)
