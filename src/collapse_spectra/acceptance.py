"""Acceptance suite: every quantitative exit criterion as a check function.

Each criterion maps ``(seed, runs)`` to ``(name, checks)``; :func:`run_all`
numbers it by its position in :data:`CRITERIA` and times it.

A criterion that restates a scenario's claim is a named list of scenario
runs, each ``(label, scenario, params, eps_grid, seed)``, plus only the
assertions that no scenario makes.  Its checks are the scenarios' own,
renamed ``<label>/<check>``, so each claim is checked in one place:

- 1: heisenberg at gamma = 3 and 2, plus a runtime bound;
- 5: mapping-torus for three nilpotent B, k = 0..d - d';
- 7: two-block-solvable;
- 8: torus-bundle for four (n, b);
- 9: nil-homothety, mapping-torus at k = 0, nil-dense-direction;
- 10: flat-threshold and gt-family, plus the diameter bound on three tori;
- 11: euler-bound at seed + 11, plus non-injective block oracles.

Criteria 2, 3, 4 and 6 check library identities that no scenario covers.
Criterion 12 runs every scenario at its defaults twice and compares the
artifacts byte for byte.

All criteria of one :func:`run_all` share a :class:`ScenarioRuns` cache
keyed by the resolved configuration, so a configuration listed by several
criteria is evaluated once; only criterion 12's second pass bypasses it.
``verify-all`` writes the scenario manifests from the cached first pass,
so each default configuration is evaluated exactly twice.  Every bound
is a fixed number written at its check, here or in the scenario.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import (euler_bound, flat_torus, intlat, lie_complex, mapping_torus,
               scenarios, torus_bundle)
from .scenarios import CheckResult


class CriterionResult(NamedTuple):
    number: int
    name: str
    checks: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class ScenarioRuns(dict):
    """Scenario results keyed by resolved configuration, with the seconds
    each evaluation took."""

    def timed(self, name, params=None, seed=0, eps_grid=None):
        key = scenarios.resolve(name, params, seed, eps_grid)
        if key not in self:
            t0 = time.perf_counter()
            result = scenarios.run_scenario_checks(name, params, seed,
                                                   eps_grid)
            self[key] = (result, time.perf_counter() - t0)
        return self[key]

    def __call__(self, name, params=None, seed=0, eps_grid=None):
        return self.timed(name, params, seed, eps_grid)[0]


def _scenario_checks(runs, run_list):
    """Checks of every ``(label, scenario, params, eps_grid, seed)`` run,
    each renamed ``<label>/<check>``."""
    return [c._replace(name=f"{label}/{c.name}")
            for label, name, params, grid, seed in run_list
            for c in runs(name, params, seed, grid).checks]


def _unimodular_test_algebras():
    two_pi = 2.0 * math.pi
    return [
        ("abelian3", lie_complex.StructureConstants.abelian(3)),
        ("heisenberg", lie_complex.StructureConstants.heisenberg3()),
        ("solvable-nilpotent", mapping_torus.solvable_algebra(
            np.array([[0.0, 1.0], [0.0, 0.0]]))),
        ("solvable-rotation", mapping_torus.solvable_algebra(
            np.array([[0.0, two_pi], [-two_pi, 0.0]]))),
        ("solvable-hyperbolic", mapping_torus.solvable_algebra(
            np.diag([1.0, -1.0]))),
        ("nil-bundle", torus_bundle.nil_algebra([1.0, 0.0])),
        ("nil-bundle-rotated", torus_bundle.nil_algebra([0.6, 0.8])),
        ("product", torus_bundle.nil_algebra([1.0]).direct_sum(
            lie_complex.StructureConstants.heisenberg3())),
    ]


def _test_b_matrices():
    return [
        ("nilpotent-2", np.array([[0.0, 1.0], [0.0, 0.0]])),
        ("hyperbolic", np.diag([1.0, -1.0])),
        ("zero", np.zeros((2, 2))),
        ("nilpotent-3", np.diag(np.ones(2), 1)),
        ("rotation", 2.0 * math.pi * np.array([[0.0, 1.0], [-1.0, 0.0]])),
    ]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1_heisenberg(seed, runs):
    t0 = time.perf_counter()
    checks = _scenario_checks(runs, [
        (f"gamma-{gamma}", "heisenberg", {"gamma": gamma}, None, seed)
        for gamma in (3, 2)])
    elapsed = time.perf_counter() - t0
    checks.append(CheckResult("runtime", elapsed, 1.0, f"{elapsed:.3f} s"))
    return "heisenberg small eigenvalue", checks


def criterion_2_closed_form(seed, runs):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        C = rng.uniform(-2.0, 2.0, size=(n, n))
        fast = mapping_torus.laplacian1_fast(C)
        generic = lie_complex.laplacian(mapping_torus.solvable_algebra(C), 1)
        worst = max(worst, float(np.max(np.abs(fast - generic))))
    checks = [CheckResult("oracle-equality", worst, 1e-12,
                          f"max entry gap {worst:.3e}")]
    return "degree-1 Laplacian closed form", checks


def criterion_3_complex_validity(seed, runs):
    worst_uni = worst_dd = worst_sym = worst_neg = worst_dual = 0.0
    for _, L in _unimodular_test_algebras():
        worst_uni = max(worst_uni,
                        float(lie_complex.unimodularity_defect(L.c[None])[0]))
        ds = [lie_complex.exterior_derivative(L, p) for p in range(L.n + 1)]
        for d_p, d_next in zip(ds, ds[1:]):
            dd = d_next @ d_p
            if dd.size:
                worst_dd = max(worst_dd, float(np.max(np.abs(dd))))
        spectra = []
        for p, d_p in enumerate(ds):
            lap = lie_complex.laplacian_of(d_p, ds[p - 1] if p else None)
            worst_sym = max(worst_sym, float(np.max(np.abs(lap - lap.T))))
            vals = np.linalg.eigvalsh(lap)
            worst_neg = max(worst_neg, float(-vals[0]))
            spectra.append(lie_complex.clamp_spectra(vals)[0])
        for s1, s2 in zip(spectra, reversed(spectra)):
            worst_dual = max(worst_dual, float(np.max(np.abs(s1 - s2))))
    checks = [
        CheckResult("unimodular", worst_uni, 1e-12, f"max {worst_uni:.3e}"),
        CheckResult("d-squared-zero", worst_dd, 1e-12,
                    f"max {worst_dd:.3e}"),
        CheckResult("symmetric", worst_sym, lie_complex.SYM_TOL,
                    f"max asym {worst_sym:.3e}"),
        CheckResult("psd", worst_neg, 1e-9, f"most negative {worst_neg:.3e}"),
        CheckResult("poincare-duality", worst_dual, 1e-9,
                    f"max {worst_dual:.3e}"),
    ]
    return "complex validity and duality", checks


def criterion_4_kernel_dimension(seed, runs):
    rng = np.random.default_rng(seed + 4)
    kernel_miss, count_miss = 0, 0
    for name, B in _test_b_matrices():
        n = B.shape[0]
        d, d_prime = mapping_torus.invariants_dd(B)
        # draw only the missing count each round: the last candidate of
        # the final round is the 50th kept, so the stream is that of
        # drawing one candidate at a time until 50 are kept
        P = np.zeros((0, n, n))
        while len(P) < 50:
            cand = rng.uniform(-1.0, 1.0, size=(50 - len(P), n, n))
            keep = (np.abs(np.linalg.det(cand)) > 0.1) \
                & (np.linalg.cond(cand) < 50.0)
            P = np.concatenate((P, cand[keep]))
        C = np.linalg.solve(P, B @ P)
        kernel = lie_complex.clamp_spectra(
            np.linalg.eigvalsh(mapping_torus.laplacian1_fast(C)))[1]
        kernel_miss = max(kernel_miss,
                          int(np.max(np.abs(kernel - d_prime - 1))))
        # n + 1 eigenvalues, of which n - d' are nonzero
        count_miss = max(count_miss, int(np.max(
            np.abs(n + 1 - kernel - n + d_prime))))
    checks = [
        CheckResult("kernel-dim", kernel_miss, 0, "dim ker = d' + 1"),
        CheckResult("nonzero-count", count_miss, 0, "n - d' nonzero"),
    ]
    return "kernel dimension over random frames", checks


def criterion_5_collapse_counts(seed, runs):
    b4 = np.zeros((4, 4))
    b4[0, 1] = 1.0
    b4[2, 3] = 1.0
    run_list = []
    for B in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag(np.ones(2), 1), b4):
        d, d_prime = mapping_torus.invariants_dd(B)
        run_list += [(f"n{len(B)}-k{k}", "mapping-torus", {"B": B, "k": k},
                      None, seed) for k in range(d - d_prime + 1)]
    return "collapse small-eigenvalue counts", _scenario_checks(runs, run_list)


def criterion_6_betti(seed, runs):
    known = [([[1, 0], [0, 1]], 3), ([[1, 1], [0, 1]], 2),
             ([[2, 1], [1, 1]], 1)]
    known_miss = sum(intlat.betti1_mapping_torus(A).b1 != b for A, b in known)
    rng = np.random.default_rng(seed + 6)
    oracle_miss = 0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        A = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            s = (-1, 1)[int(rng.integers(0, 2))]
            for c in range(n):
                A[i][c] += s * A[j][c]
        m = [[A[i][j] - int(i == j) for j in range(n)] for i in range(n)]
        expected = 1 + (n - intlat.rational_rank(m))
        oracle_miss += intlat.betti1_mapping_torus(A).b1 != expected
    checks = [
        CheckResult("known-values", known_miss, 0,
                    "I2 -> 3, shear -> 2, anosov -> 1"),
        CheckResult("rational-rank-oracle", oracle_miss, 0,
                    "30 random SL_n products"),
    ]
    return "first Betti numbers", checks


def criterion_7_two_block_regression(seed, runs):
    return "two-block solvable regression", _scenario_checks(runs, [
        ("two-block", "two-block-solvable", None, None, seed)])


def criterion_8_torus_bundle(seed, runs):
    cases = [(1, [1.0]), (2, [1.0, 0.0]), (2, [0.6, 0.8]), (3, [0.0, 0.0, 2.0])]
    return "principal bundle unique eigenvalue", _scenario_checks(runs, [
        ("b=" + ",".join(f"{x:g}" for x in b), "torus-bundle",
         {"n": n, "b": b}, None, seed) for n, b in cases])


def criterion_9_contrasting_collapses(seed, runs):
    grid = (0.5, 0.25, 0.125, 0.0625)
    return "contrasting collapse modes", _scenario_checks(runs, [
        ("bundle-homothety", "nil-homothety", {"b": [0.8, 0.6]}, grid, seed),
        ("mapping-torus-homothety", "mapping-torus", {"k": 0}, grid, seed),
        ("dense-direction", "nil-dense-direction", {"b": [0.5, 1.5, 2.5]},
         grid, seed)])


def criterion_10_flat_thresholds(seed, runs):
    checks = _scenario_checks(runs, [
        ("flat-threshold", "flat-threshold", None, None, seed),
        ("gt-family", "gt-family", None, None, seed)])
    pairs = [(flat_torus.lambda01(torus), flat_torus.diameter(torus))
             for torus in (flat_torus.FlatTorus.identity(2),
                           flat_torus.FlatTorus.circle(1.0),
                           flat_torus.FlatTorus(np.diag([4.0, 0.25])))]
    checks.append(scenarios.diameter_bound_check(
        pairs, "lambda01 >= (pi/diam)^2 on T^2, S^1, diag(4, 1/4)"))
    return "flat invariance thresholds", checks


def criterion_11_euler_chain(seed, runs):
    checks = _scenario_checks(runs, [
        ("euler-bound", "euler-bound", {"trials": 50, "kmax": 4}, None,
         seed + 11)])
    # ten crafted non-injective instances vs hand-built block oracles
    noninj_miss = 0
    rng2 = np.random.default_rng(seed + 111)
    for trial in range(10):
        r = int(rng2.integers(1, 3))
        l = int(rng2.integers(1, 3))
        while True:
            core = rng2.integers(-3, 4, size=(r + 1, r))
            if euler_bound.gram_det(core.tolist()):
                break
        E_raw = np.concatenate([np.zeros((r + 1, l), dtype=int), core], axis=1)
        perm = rng2.permutation(l + r)
        signs = rng2.choice([-1, 1], size=l + r)
        W = np.zeros((l + r, l + r), dtype=int)
        for col, (p, s) in enumerate(zip(perm, signs)):
            W[p, col] = s
        E = (E_raw @ W).tolist()
        rep = euler_bound.noninjective_reduce(E, np.eye(l + r))
        oracle = euler_bound.bound_chain(core.tolist(), np.eye(r))
        noninj_miss += not (
            rep.restricted is not None
            and abs(rep.restricted.lam_min - oracle.lam_min) <= 1e-9
            and abs(rep.restricted.det_bound - oracle.det_bound) <= 1e-9)
    checks.append(CheckResult("noninjective-oracles", noninj_miss, 0,
                              "10 crafted block instances"))
    return "Euler determinant bound chain", checks


def criterion_12_end_to_end(seed, runs):
    names = sorted(scenarios.SCENARIOS)
    first = [runs.timed(name, seed=seed) for name in names]
    t1 = time.perf_counter()
    second = [scenarios.run_scenario_checks(name, seed=seed)
              for name in names]
    # the first pass may have been evaluated earlier, by another criterion
    elapsed = sum(s for _, s in first) + time.perf_counter() - t1
    differing = sum(a.artifacts != b.artifacts
                    for (a, _), b in zip(first, second))
    count = sum(len(b.artifacts) for b in second)
    checks = [
        CheckResult("byte-determinism", differing, 0, f"{count} artifacts"),
        CheckResult("runtime", elapsed, 60.0,
                    f"two full passes in {elapsed:.1f} s"),
    ]
    return "end-to-end determinism and runtime", checks


CRITERIA = [
    criterion_1_heisenberg,
    criterion_2_closed_form,
    criterion_3_complex_validity,
    criterion_4_kernel_dimension,
    criterion_5_collapse_counts,
    criterion_6_betti,
    criterion_7_two_block_regression,
    criterion_8_torus_bundle,
    criterion_9_contrasting_collapses,
    criterion_10_flat_thresholds,
    criterion_11_euler_chain,
    criterion_12_end_to_end,
]


class AcceptanceSummary(NamedTuple):
    results: tuple
    seconds: float
    runs: ScenarioRuns

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_all(seed: int = 0) -> AcceptanceSummary:
    runs = ScenarioRuns()
    results = []
    t0 = time.perf_counter()
    for number, criterion in enumerate(CRITERIA, 1):
        start = time.perf_counter()
        name, checks = criterion(seed, runs)
        results.append(CriterionResult(number, name, tuple(checks),
                                       time.perf_counter() - start))
    return AcceptanceSummary(tuple(results), time.perf_counter() - t0, runs)
