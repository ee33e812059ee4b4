"""Named deterministic experiments with CSV artifacts and pass/fail checks.

Every scenario computes a table tied to one quantitative claim about
collapsing homogeneous bundles, emits CSV bodies that are byte-identical
for a fixed config and seed, and returns machine-checkable margins
against fixed bounds, each written once at its check.
Parameters, seed and eps grid are merged with the defaults and checked
by :func:`resolve` before any scenario code runs, each rule through its
one declaration in the layer that owns its math (the eps grid in
``torus_bundle.check_eps_grid``).  mapping-torus decides B, k and the
grid where it builds its collapse family, vol-bound its grid where it
divides by vol^2.  Each rule raises InputRejected naming its key where
it is declared, so no scenario translates a library error.  Every rule
that keeps a predicted small eigenvalue away from the kernel asks
:func:`lie_complex.above_kernel_cutoff`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import (curvature, euler_bound, flat_torus, intlat, lie_complex,
               mapping_torus, torus_bundle)
from .artifacts import csv_text
from .errors import InputRejected


class CheckResult(NamedTuple):
    """One claim: the measured ``value`` against its ``bound``, asking
    ``value <= bound`` or, with ``sense=">="``, ``value >= bound``.  A
    boolean claim measures its count of mismatches against bound 0."""

    name: str
    value: float
    bound: float
    detail: str = ""
    sense: str = "<="

    @property
    def margin(self) -> float:
        """Signed distance to the bound, negative exactly when the check
        fails (NaN, for a NaN value, fails too)."""
        if self.sense == ">=":
            return self.value - self.bound
        return self.bound - self.value

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0)


class ScenarioResult(NamedTuple):
    artifacts: dict            # filename -> CSV text
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def diameter_bound_check(pairs, detail) -> CheckResult:
    """lambda01 >= (pi / diam)^2 over ``(lambda01, diam)`` pairs: the least
    slack lambda01 - (pi / diam)^2, plus a rounding allowance of 1e-12
    relative to the bound, must be nonnegative."""
    slack = min(lam - math.pi ** 2 / diam ** 2
                + 1e-12 * max(1.0, math.pi ** 2 / diam ** 2)
                for lam, diam in pairs)
    return CheckResult("diameter-bound", slack, 0.0, detail, ">=")


# ---------------------------------------------------------------------------
# configuration checks
# ---------------------------------------------------------------------------

_KINDS = {float: "a finite number", int: "an integer",
          "vector": "a list of finite numbers",
          "matrix": "a square matrix of finite numbers, rows separated by "
                    "newlines or ';'"}


def parse_value(kind, key, value):
    """Typed, hashable value of one parameter: a float, an int, a tuple
    ("vector") or a tuple of equally long tuples ("matrix"); every float
    entry is finite.  Raises InputRejected naming ``key`` otherwise.  The
    scripts read their matrix flags with it too."""
    try:
        if kind == "vector":
            items = value.replace(",", " ").split() \
                if isinstance(value, str) else value
            typed = tuple(float(x) for x in items)
        elif kind == "matrix":
            rows = [r.split() for r in value.replace(";", "\n").splitlines()
                    if r.strip()] if isinstance(value, str) else value
            typed = tuple(tuple(float(x) for x in r) for r in rows)
            if not typed or any(len(r) != len(typed) for r in typed):
                raise ValueError
        else:
            typed = kind(value)
        if kind is not int and not np.isfinite(typed).all():
            raise ValueError
        return typed
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputRejected(key, f"need {_KINDS[kind]}, got {value!r}") \
            from exc


def _check_heisenberg(params, grid):
    """The one nonzero eigenvalue eps^(2 tau) <= 1 is also the top one;
    it must stay clear of the kernel cutoff."""
    tau = params["gamma"] - params["alpha"] - params["beta"]
    if tau < 0:
        raise InputRejected("gamma", "need gamma >= alpha + beta for "
                                     "bounded curvature")
    lam = min(grid) ** (2 * tau)
    if not lie_complex.above_kernel_cutoff(lam, lam):
        raise InputRejected("eps_grid", (
            f"eps = {min(grid)!r} puts eps^(2 tau) = {lam:.3g} below twice "
            f"the kernel cutoff"))


def _check_gt_family(params, grid):
    t_values = params["t_values"]
    if not 1 <= len(t_values) <= 100:
        raise InputRejected("t_values", f"need 1 to 100 values, got "
                                        f"{len(t_values)}")
    # the stated range of the family; its enumeration boxes grow like |t|,
    # 3,871 points for the spectrum at t = 100, so run time needs no bound
    if max(map(abs, t_values)) > 100.0:
        raise InputRejected("t_values", f"need |t| <= 100, got "
                                        f"{max(t_values, key=abs)!r}")


def _check_eta(b, what="sum b_i^2"):
    if not np.finfo(float).tiny <= sum(x * x for x in b) < math.inf:
        raise InputRejected("b", f"need {what} to be a positive normal float")


def _check_dense_direction(params, grid):
    # lambda(eps) lies between the limit and sum b_i^2, so both bound it
    _check_eta(params["b"])
    _check_eta(params["b"][1:], "sum_{i>=2} b_i^2, the limit,")


def _check_torus_bundle(params, grid):
    n, b = params["n"], params["b"]
    if len(b) != n:
        raise InputRejected("b", f"need n = {n} entries, got {len(b)}")
    # the spectrum-match gap grows like 3.3e-15 sum b_i^2 (measured for
    # n <= 10), so 1e4 keeps it 3x inside its absolute bound 1e-10
    if not np.finfo(float).tiny <= sum(x * x for x in b) <= 1e4:
        raise InputRejected("b", "need sum b_i^2 a normal float <= 1e4")


#: log of (3 + sqrt 5) / 2, the larger eigenvalue of [[2, 1], [1, 1]],
#: the diagonal of the two-block solvable model
_TWO_BLOCK_LAM = math.log((3 + math.sqrt(5)) / 2)


def _check_two_block(params, grid):
    """The degree-2 Laplacian has top eigenvalue 4 lam^2 and small
    eigenvalue 2 eps^2; keep the small one clear of the kernel cutoff,
    and give rate-drift two distinct grid points below 0.1 to compare."""
    top = 4.0 * _TWO_BLOCK_LAM ** 2
    for eps in grid:
        if not lie_complex.above_kernel_cutoff(2.0 * eps ** 2, top):
            raise InputRejected("eps_grid", (
                f"eps = {eps!r} puts 2 eps^2 below twice the kernel cutoff "
                f"of the top eigenvalue 4 lam^2 = {top:.3g}"))
    if len({eps for eps in grid if eps < 0.1}) < 2:
        raise InputRejected("eps_grid", "rate-drift needs two distinct "
                                        "entries below 0.1")


# ---------------------------------------------------------------------------
# scenario implementations: (typed params, seed, grid) -> result
# ---------------------------------------------------------------------------

def _scenario_heisenberg(params, seed, eps_grid):
    tau = params["gamma"] - params["alpha"] - params["beta"]
    rows, worst = [], 0.0
    for eps in eps_grid:
        expected = eps ** (2 * tau)
        L = lie_complex.StructureConstants.heisenberg3(eps ** tau)
        rep = lie_complex.spectrum(L, 1)
        lam = float(rep.eigenvalues[-1])
        rel = abs(lam - expected) / expected
        # inf unless exactly one eigenvalue lies above the kernel cutoff
        worst = max(worst, rel if len(rep.nonzero) == 1 else math.inf)
        rows.append([eps, tau, lam, expected, rel])
    checks = [CheckResult("eigenvalue-rate", worst, 1e-10,
                          f"max relative error {worst:.3e}")]
    return ScenarioResult({"spectra.csv": csv_text(
        ["eps", "tau", "lambda", "expected", "rel_err"], rows)}, checks)


def _scenario_mapping_torus(params, seed, eps_grid):
    k = params["k"]
    floor_req = 1e-2          # also the eps range of exact-count
    table = mapping_torus.run_collapse(params["B"], k, eps_grid)
    d_prime = table.family.d_prime
    nonzero = [r.report.eigenvalues[d_prime + 1:] for r in table.rows]
    kernel_miss = max(abs(r.report.kernel_dim - d_prime - 1)
                      for r in table.rows)
    checks = [CheckResult("kernel-dim", kernel_miss, 0,
                          f"expected {d_prime + 1}")]
    if k == 0:
        base = table.rows[0].report.eigenvalues
        drift = max(float(np.max(np.abs(r.report.eigenvalues - base)))
                    for r in table.rows)
        checks.append(CheckResult("homothety-constant", drift, 0.0,
                                  "spectra must match exactly"))
    else:
        fall = min(10.0 * r.eps ** 2 - float(nz[k - 1])
                   for r, nz in zip(table.rows, nonzero))
        checks.append(CheckResult("first-k-fall", fall, 0.0,
                                  "k-th nonzero eigenvalue below 10 eps^2",
                                  ">="))
        # once 10 eps^2 is below the survivor floor, exactly k fall below it
        miss = max((abs(int(np.sum(nz < 10.0 * r.eps ** 2)) - k)
                    for r, nz in zip(table.rows, nonzero)
                    if 10.0 * r.eps ** 2 <= floor_req), default=0)
        checks.append(CheckResult("exact-count", miss, 0,
                                  f"exactly {k} below 10 eps^2 <= {floor_req:g}"))
        if k + 1 <= len(params["B"]) - d_prime:
            floor = min(float(nz[k]) for nz in nonzero)
            checks.append(CheckResult("survivor-floor", floor, floor_req,
                                      f"floor {floor:.3e}", ">="))
    tr1 = table.family.trace
    checks.append(CheckResult("trace-bounded", max(r.trace for r in table.rows),
                              tr1 + 1e-9, f"eps=1 trace {tr1:.6g}"))
    return ScenarioResult({"collapse.csv": table.to_csv()}, checks)


def _scenario_two_block_solvable(params, seed, eps_grid):
    lam = _TWO_BLOCK_LAM

    def c_eps(eps):
        return np.array([[lam, eps, 0, 0], [0, lam, 0, 0],
                         [0, 0, -lam, eps], [0, 0, 0, -lam]])

    eps0 = eps_grid[0]
    L = mapping_torus.solvable_algebra(c_eps(eps0))
    d2 = lie_complex.exterior_derivative(L, 2)
    r2, r3 = lie_complex.subset_rank(5, 2), lie_complex.subset_rank(5, 3)
    expected = {((0, 1, 4), (0, 1)): -2 * lam,
                ((1, 2, 4), (0, 2)): -eps0,
                ((0, 3, 4), (0, 2)): -eps0,
                ((1, 3, 4), (0, 3)): -eps0,
                ((1, 3, 4), (1, 2)): -eps0,
                ((2, 3, 4), (2, 3)): 2 * lam}
    pattern = np.zeros_like(d2)
    for (K, J), v in expected.items():
        pattern[r3[sum(1 << i for i in K)], r2[sum(1 << i for i in J)]] = v
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
        CheckResult("d2-pattern", gap, 1e-12, f"entrywise gap {gap:.3e}"),
        CheckResult("rate-drift", drift, 0.05,
                    f"lambda/eps^2 drift {drift:.3e}"),
    ]
    return ScenarioResult({"rate.csv": csv_text(
        ["eps", "lambda_small", "ratio"], rows)}, checks)


def _scenario_flat_rotation_torus(params, seed, eps_grid):
    two_pi = 2.0 * math.pi
    B = np.array([[0.0, two_pi], [-two_pi, 0.0]])
    A = [[1, 0], [0, 1]]
    bundle = mapping_torus.MappingTorusBundle(A, B)
    betti = intlat.betti1_mapping_torus(A)
    L = bundle.algebra()
    rep = lie_complex.spectrum(L, 1)
    table = curvature.frame_curvature_table(L)
    max_k = table.max_abs
    checks = [
        CheckResult("betti-b1", abs(betti.b1 - 3), 0, f"b1 = {betti.b1}"),
        CheckResult("invariant-kernel", abs(rep.kernel_dim - 1), 0,
                    f"dim ker = {rep.kernel_dim} < b1 = {betti.b1}"),
        CheckResult("flat-metric", max_k, 1e-12, f"max |K| = {max_k:.3e}"),
    ]
    return ScenarioResult({"curvature.csv": table.to_csv()}, checks)


def _scenario_torus_bundle(params, seed, eps_grid):
    n, b = params["n"], params["b"]
    L = torus_bundle.nil_algebra(b)
    rows, worst = [], 0.0
    for p in range(1, n + 2):
        gap = torus_bundle.verify_spectrum(L, p)
        split = torus_bundle.eigenspace_split(L, p)
        rows.append([n, p, gap, split.total, split.coclosed, split.closed])
        worst = max(worst, gap)
    eta_sq = sum(x * x for x in b)
    split_miss = sum(
        r[4] != lie_complex.form_dim(n - 1, r[1] - 1)
        or r[5] != lie_complex.form_dim(n - 1, r[1] - 2)
        for r in rows)
    table = curvature.frame_curvature_table(L)
    # |K| <= 3/4 eta^2 over frame pairs with equality at (Y_1, Y_2): the
    # maximum and |K(Y_1, Y_2)| are both 3/4 eta^2 itself
    bound = 0.75 * eta_sq
    gap_k = max(abs(table.max_abs - bound),
                abs(abs(table.k(n, n + 1)) - bound))
    od = curvature.oneill_defect(L, [n, n + 1])
    checks = [
        CheckResult("spectrum-match", worst, 1e-10, f"max gap {worst:.3e}"),
        CheckResult("eigenspace-split", split_miss, 0,
                    "coclosed/closed counts"),
        CheckResult("curvature-bound", gap_k, 1e-12 * max(1.0, eta_sq),
                    f"max |K| = {table.max_abs:.6g} vs 3/4 eta^2 = {bound:.6g}"),
        CheckResult("oneill-defect", od, 1e-10, f"defect {od:.3e}"),
    ]
    return ScenarioResult({"spectra.csv": csv_text(
        ["n", "p", "gap", "total_mult", "coclosed", "closed"], rows)}, checks)


def _scenario_nil_homothety(params, seed, eps_grid):
    b0 = params["b"]
    traj = torus_bundle.collapse_direction(b0, [1.0] * len(b0), eps_grid)
    eta_sq = sum(x * x for x in b0)
    # each gap relative to max(1, lambda): rounding, not an absolute 1e-15
    gap = max(abs(lam - e * e * eta_sq) / max(1.0, lam)
              for e, lam in zip(traj.eps, traj.lam))
    checks = [
        CheckResult("rate-exact", gap, 1e-15,
                    "lambda(eps) = eps^2 sum b_i^2"),
        CheckResult("vanishes", traj.limit, 0.0, f"limit {traj.limit}"),
    ]
    return ScenarioResult({"trajectory.csv": traj.to_csv()}, checks)


def _scenario_nil_dense_direction(params, seed, eps_grid):
    b0 = params["b"]
    alpha = [1.0] + [0.0] * (len(b0) - 1)
    traj = torus_bundle.collapse_direction(b0, alpha, eps_grid)
    expected = sum(x * x for x in b0[1:])
    checks = [
        # strict: the least positive float is the bound
        CheckResult("positive-limit", traj.limit, math.ulp(0.0),
                    f"limit {traj.limit}", ">="),
        CheckResult("limit-exact", abs(traj.limit - expected), 0.0,
                    f"expected {expected}"),
    ]
    return ScenarioResult({"trajectory.csv": traj.to_csv()}, checks)


def _scenario_flat_threshold(params, seed, eps_grid):
    base = flat_torus.FlatTorus.circle(params["base_length"])
    fiber_len = params["fiber_length"]
    circle_rep = flat_torus.threshold_check_product(
        base, flat_torus.FlatTorus.circle(fiber_len), 1)
    square_rep = flat_torus.threshold_check_product(
        base, flat_torus.FlatTorus.identity(2), 1)
    odd = flat_torus.odd_multiplicity_check(
        base, flat_torus.FlatTorus.identity(2), 1,
        cutoff=2.5 * flat_torus.FOUR_PI_SQ)
    expected = (2.0 * math.pi / fiber_len) ** 2
    circle_gap = abs(circle_rep.threshold - expected) \
        if circle_rep.ok else math.inf
    square_gap = abs(square_rep.threshold - flat_torus.FOUR_PI_SQ) \
        if square_rep.ok else math.inf
    checks = [
        CheckResult("circle-threshold", circle_gap, 1e-9 * expected,
                    f"threshold {circle_rep.threshold:.6g}"),
        CheckResult("square-threshold", square_gap,
                    1e-12 * square_rep.threshold,
                    f"threshold {square_rep.threshold:.6g} attained"),
        CheckResult("odd-multiplicity", len(odd.violations), 0,
                    f"{len(odd.groups)} eigenvalue groups"),
    ]
    return ScenarioResult({"modes_circle.csv": circle_rep.csv,
                           "modes_square.csv": square_rep.csv}, checks)


def _scenario_gt_family(params, seed, eps_grid):
    cutoff = 300.0
    rows = []
    worst_spec, diam_slack, pairs = 0.0, math.inf, []
    for t in params["t_values"]:
        torus_t = flat_torus.gt_gram(t)
        torus_t1 = flat_torus.gt_gram(t + 1.0)
        s_t = flat_torus.p_form_spectrum(torus_t, 0, cutoff).eigenvalues()
        s_t1 = flat_torus.p_form_spectrum(torus_t1, 0, cutoff).eigenvalues()
        gap = float(np.max(np.abs(s_t - s_t1))) if len(s_t) == len(s_t1) \
            else float("inf")
        lam, diam = flat_torus.lambda01(torus_t), flat_torus.diameter(torus_t)
        diam_gap = abs(diam - flat_torus.diameter(torus_t1))
        worst_spec = max(worst_spec, gap)
        diam_slack = min(diam_slack, 1e-12 * diam - diam_gap)
        pairs.append((lam, diam))
        rows.append([t, lam, diam, gap, diam_gap])
    checks = [
        CheckResult("spectrum-periodic", worst_spec, 1e-12,
                    f"max eigenvalue gap {worst_spec:.3e}"),
        CheckResult("diameter-periodic", diam_slack, 0.0,
                    "|diam(t) - diam(t+1)| <= 1e-12 diam(t)", ">="),
        diameter_bound_check(pairs, "lambda01 >= (pi/diam)^2"),
    ]
    return ScenarioResult({"gt.csv": csv_text(
        ["t", "lambda01", "diam", "spec_gap", "diam_gap"], rows)}, checks)


def _scenario_euler_bound(params, seed, eps_grid):
    trials = params["trials"]
    # mid_bound = det_bound in exact arithmetic (euler_bound._chain), so
    # the margin absorbs rounding only: 8.7e-16 relative at most over
    # 2,000 maps drawn as below at seeds 0 to 39
    margin = 1e-10
    rng = np.random.default_rng(seed)
    # the kept draws, grouped by shape (k, m) in draw order; a map's
    # gram_det is zero exactly when it has a kernel, and otherwise is the
    # Det'^2 its factorization needs
    groups = {}
    count = 0
    while count < trials:
        k = int(rng.integers(1, params["kmax"] + 1))
        m = int(rng.integers(k, k + 3))
        E = rng.integers(-4, 5, size=(m, k))
        det = euler_bound.gram_det(E.tolist())
        if not det:
            continue
        w = rng.standard_normal((k, k))
        groups.setdefault((k, m), []).append(
            (count, E, w @ w.T + 0.5 * np.eye(k), det))
        count += 1
    reports = [None] * trials
    for (k, m), maps in groups.items():
        trial_ids, stack, grams, dets = zip(*maps)
        pairs = euler_bound.chain_stack(np.stack(stack), np.stack(grams), dets)
        for trial, (bc, df) in zip(trial_ids, pairs):
            reports[trial] = (k, m, bc, df)
    rows = []
    slack, max_residual = math.inf, 0.0
    for count, (k, m, bc, df) in enumerate(reports, 1):
        row_slack = min(bc.lam_min - bc.mid_bound, bc.mid_bound - bc.det_bound,
                        bc.lam_min - bc.det_bound)
        slack = min(slack, row_slack)
        max_residual = max(max_residual, df.residual)
        # each row by the rules of bound-chain and det-factorization below
        rows.append([count, k, m, bc.lam_min, bc.mid_bound, bc.det_bound,
                     df.residual, int(row_slack >= -margin and df.ok)])
    rho2 = euler_bound.rho_flat(flat_torus.FlatTorus.identity(2)).rho
    rho3 = euler_bound.rho_flat(flat_torus.FlatTorus.identity(3)).rho
    nr = euler_bound.noninjective_reduce([[3, 6]], np.eye(2))
    quotient_miss = (nr.reduced_integral != ((3,),)) \
        + (nr.kernel_basis != ((-2, 1),))
    checks = [
        CheckResult("bound-chain", slack, -margin,
                    f"{trials} random maps, margin {margin:g}", ">="),
        CheckResult("det-factorization", max_residual,
                    euler_bound.FACTORIZATION_RTOL,
                    f"relative {euler_bound.FACTORIZATION_RTOL:g}"),
        CheckResult("rho-t2", abs(rho2 - 1.0), 0.0, f"rho = {rho2}"),
        CheckResult("rho-t3", abs(rho3 - 1.0), 0.0, f"rho = {rho3}"),
        CheckResult("noninjective-quotient", quotient_miss, 0,
                    f"kernel {nr.kernel_basis}, reduced {nr.reduced_integral}"),
    ]
    return ScenarioResult({"chain.csv": csv_text(
        ["trial", "k", "m", "lam_min", "mid_bound", "det_bound",
         "fact_residual", "ok"], rows)}, checks)


def _scenario_vol_bound(params, seed, eps_grid):
    n1 = torus_bundle.TorusBundleOverT2((1,))
    rep1 = euler_bound.vol_bound_experiment(n1, [1.0], eps_grid)
    n2 = torus_bundle.TorusBundleOverT2((1, 0))
    rep2 = euler_bound.vol_bound_experiment(n2, [1.0, 1.0], eps_grid)
    n2b = torus_bundle.TorusBundleOverT2((1, 2))
    rep3 = euler_bound.vol_bound_experiment(n2b, [1.0, 0.0], eps_grid)
    ratio1 = [r.ratio for r in rep1.rows]
    circle_constant = max(ratio1) - min(ratio1)
    checks = [
        CheckResult("circle-ratio-constant", circle_constant, 1e-12,
                    "lambda / vol^2 constant for n=1"),
        CheckResult("homothety-bounded", rep2.margin, 0.0,
                    f"min ratio {rep2.min_ratio:.6g}", ">="),
        CheckResult("dense-direction-bounded", rep3.margin, 0.0,
                    f"min ratio {rep3.min_ratio:.6g}", ">="),
    ]
    return ScenarioResult({"circle.csv": rep1.to_csv(),
                           "homothety.csv": rep2.to_csv(),
                           "dense.csv": rep3.to_csv()}, checks)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class ScenarioSpec(NamedTuple):
    func: object
    tag: str
    #: key -> (kind, default) or, for a size, (kind, default, low, high)
    params: dict
    default_grid: tuple = (0.5, 0.1, 0.01)
    check: object = None       # (typed params, grid) -> None, or raises

    @property
    def defaults(self) -> dict:
        return {key: spec[1] for key, spec in self.params.items()}


SCENARIOS = {
    "heisenberg": ScenarioSpec(
        _scenario_heisenberg, "small-eigenvalue-rate",
        {"alpha": (float, 1), "beta": (float, 1), "gamma": (float, 3)},
        check=_check_heisenberg),
    "mapping-torus": ScenarioSpec(
        _scenario_mapping_torus, "collapse-count",
        {"B": ("matrix", "0 1\n0 0"), "k": (int, 1)},
        tuple(2.0 ** -j for j in range(1, 11))),
    "two-block-solvable": ScenarioSpec(
        _scenario_two_block_solvable, "two-form-small-eigenvalue",
        {}, (0.08, 0.04, 0.02, 0.01), check=_check_two_block),
    "flat-rotation-torus": ScenarioSpec(
        _scenario_flat_rotation_torus, "noninvariant-harmonic-forms", {}),
    "torus-bundle": ScenarioSpec(
        _scenario_torus_bundle, "unique-eigenvalue-multiplicity",
        # largest Laplacian dimension: C(n + 2, (n + 2) / 2), 924 at n = 10
        {"n": (int, 2, 1, 10), "b": ("vector", "1 0")},
        check=_check_torus_bundle),
    "nil-homothety": ScenarioSpec(
        _scenario_nil_homothety, "homothety-produces-small-eigenvalue",
        {"b": ("vector", "1 1")}, (0.5, 0.25, 0.125, 0.0625),
        check=lambda params, grid: _check_eta(params["b"])),
    "nil-dense-direction": ScenarioSpec(
        _scenario_nil_dense_direction, "dense-direction-positive-limit",
        {"b": ("vector", "0.5 1.5")}, (0.5, 0.25, 0.125, 0.0625),
        check=_check_dense_direction),
    "flat-threshold": ScenarioSpec(
        _scenario_flat_threshold, "fiber-invariance-threshold",
        {"base_length": (float, 1.0), "fiber_length": (float, 0.1)},
        check=lambda params, grid: flat_torus.check_product_lengths(
            params["base_length"], params["fiber_length"])),
    "gt-family": ScenarioSpec(
        _scenario_gt_family, "shear-family-periodicity",
        {"t_values": ("vector", "0 0.3 0.5")}, check=_check_gt_family),
    "euler-bound": ScenarioSpec(
        _scenario_euler_bound, "determinant-bound-chain",
        {"trials": (int, 50, 1, 10000), "kmax": (int, 4, 1, 8)}),
    "vol-bound": ScenarioSpec(
        _scenario_vol_bound, "volume-squared-lower-bound",
        {}, (1.0, 0.5, 0.25, 0.125, 0.0625)),
}


def list_scenarios():
    """Deterministic alphabetical (name, tag, defaults) listing."""
    return [(name, SCENARIOS[name].tag, SCENARIOS[name].defaults)
            for name in sorted(SCENARIOS)]


def resolve(name: str, params: dict = None, seed: int = 0,
            eps_grid=None) -> tuple:
    """Merge defaults into ``params`` and validate the whole run.

    Returns ``(name, typed params as sorted items, seed, grid)``: hashable,
    and equal for any two spellings of one configuration.  Raises
    ``InputRejected`` naming the offending key, ``name`` for an unknown
    scenario.
    """
    if name not in SCENARIOS:
        raise InputRejected("name", f"unknown scenario {name!r}; see 'list'")
    spec = SCENARIOS[name]
    merged = spec.defaults
    for key, value in (params or {}).items():
        if key not in merged:
            raise InputRejected(key, f"not a parameter of {name}")
        merged[key] = value
    seed = mapping_torus.check_seed(seed)
    grid = parse_value("vector", "eps_grid",
                       spec.default_grid if eps_grid is None else eps_grid)
    torus_bundle.check_eps_grid(grid)
    typed = {key: parse_value(spec.params[key][0], key, value)
             for key, value in merged.items()}
    for key, (_, _, *bounds) in spec.params.items():
        if bounds and not bounds[0] <= typed[key] <= bounds[1]:
            raise InputRejected(key, f"need {bounds[0]} <= {key} <= "
                                     f"{bounds[1]}, got {typed[key]}")
    if spec.check is not None:
        spec.check(typed, grid)
    return name, tuple(sorted(typed.items())), seed, grid


def run_scenario_checks(name: str, params: dict = None, seed: int = 0,
                        eps_grid=None) -> ScenarioResult:
    """Run one scenario in memory; validates the configuration first."""
    name, items, seed, grid = resolve(name, params, seed, eps_grid)
    return SCENARIOS[name].func(dict(items), seed, grid)
