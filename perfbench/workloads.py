"""Seeded inputs, ops and oracles of the benchmark workloads.

An op is one public call into the package.  Each op carries an oracle
that checks its result independently after the timed pass; a failed
oracle returns ``(reason, defect)`` where ``defect`` names an entry of
``KNOWN_DEFECTS`` in ``run.py`` when the failure is one the package is known to
have, and ``None`` otherwise.  Known defects still count as failed ops.

Op bodies look functions up on the module at call time, so wrappers the
tracer installs after the inputs are built are the ones that run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from collapse_spectra import (cli, euler_bound, flat_torus, intlat,
                              lie_complex, mapping_torus, torus_bundle)

FOUR_PI_SQ = 4.0 * math.pi ** 2

#: Per-call deadline of the dense Smith ladder, in seconds.
SMITH_DEADLINE_S = 0.05
#: Largest number of decimal digits a finished Smith call may leave in
#: U, D or V.  Over 1,600 seeded calls every result within this budget
#: took at most 2 ms, so whether a call fails does not depend on the
#: host's speed: a call either stays within the budget and finishes far
#: inside the deadline, or fails on the budget or the deadline, which are
#: both the same coefficient growth.
SMITH_DIGIT_BUDGET = 1000


@dataclass(frozen=True)
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object, dict], Optional[tuple]]
    deadline_s: float
    #: known defect a deadline miss of this op belongs to, if any
    deadline_defect: Optional[str] = None


def _ok(condition, reason, defect=None):
    return None if condition else (reason, defect)


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _verify_all(seed, tmp):
    out = os.path.join(tmp, "verify-all")

    def call():
        return cli.main(["verify-all", "--seed", str(seed), "--out", out])

    def check(code, results):
        if code != 0:
            return f"exit code {code}", None
        with open(os.path.join(out, "verify_manifest.json"), "rb") as fh:
            manifest = json.loads(fh.read())
        if not manifest["passed"]:
            return "verify manifest not passed", None
        for scenario, info in manifest["scenarios"].items():
            for art in info["artifacts"]:
                path = os.path.join(out, scenario, art["name"])
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                if digest != art["sha256"]:
                    return f"{scenario}/{art['name']}: digest mismatch", None
        return None

    return [Op("verify-all", call, check, 60.0)]


def fingerprint(workload, tmp):
    """Digest that must be equal across passes of one run, or None."""
    if workload != "verify-all":
        return None
    path = os.path.join(tmp, "verify-all", "verify_manifest.json")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# ce-spectra
# ---------------------------------------------------------------------------

def _frame(rng, n, max_cond=50.0):
    while True:
        p = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(p) < max_cond:
            return p


def _ce_spectra(seed, tmp):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n in (10, 12):
        b = rng.uniform(0.5, 2.0, size=n - 2) * rng.choice([-1.0, 1.0],
                                                           size=n - 2)
        m = n - 1
        bmat = rng.standard_normal((m, m))
        bmat -= np.trace(bmat) / m * np.eye(m)
        solvable = mapping_torus.solvable_algebra(bmat)
        algebras = {
            "nil": torus_bundle.nil_algebra(b),
            "solvable": solvable,
            "dense": lie_complex.change_frame(solvable, _frame(rng, n)),
        }
        eta = float(np.linalg.norm(b))
        for cls, alg in algebras.items():
            for p in range(n + 1):
                ops.append(Op(f"{cls}-n{n}-p{p}",
                              lambda alg=alg, p=p: lie_complex.spectrum(alg, p),
                              _ce_check(cls, n, p, eta), 30.0))
    return ops


def _ce_check(cls, n, p, eta):
    def check(rep, results):
        vals = rep.eigenvalues
        if len(vals) != math.comb(n, p):
            return f"{len(vals)} eigenvalues, expected C({n},{p})", None
        if cls == "nil":
            # closed form: eta^2 with multiplicity C(n-2, p-1), zero elsewhere
            pred = torus_bundle.predict_spectrum(n - 2, p, eta)
            gap = float(np.max(np.abs(pred.eigenvalues - vals)))
            return _ok(gap <= 1e-10 * max(1.0, eta * eta)
                       and rep.kernel_dim == pred.kernel_dim,
                       f"closed form gap {gap:.3e}, kernel "
                       f"{rep.kernel_dim} vs {pred.kernel_dim}")
        # Poincare duality of a unimodular algebra: spectrum(p) = spectrum(n-p)
        dual = results.get(f"{cls}-n{n}-p{n - p}")
        if dual is not None:
            gap = float(np.max(np.abs(dual.eigenvalues - vals)))
            scale = max(1.0, float(vals[-1]))
            if gap > 1e-9 * scale:
                return f"duality gap {gap:.3e} at scale {scale:.3e}", None
        if cls == "dense":
            # invariant cohomology does not depend on the metric
            ref = results.get(f"solvable-n{n}-p{p}")
            if ref is not None and ref.kernel_dim != rep.kernel_dim:
                return (f"kernel dim {rep.kernel_dim} after change_frame, "
                        f"{ref.kernel_dim} before", "kernel_cutoff")
        return None
    return check


# ---------------------------------------------------------------------------
# small-calls
# ---------------------------------------------------------------------------

def _det(m):
    """Exact integer determinant (Bareiss), independent of intlat."""
    a = [list(r) for r in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _smith_check(m):
    def check(res, results):
        u, d, v = res
        n = len(m)
        if _matmul(_matmul(u, m), v) != d:
            return "U M V != D", None
        diag = [d[i][i] for i in range(n)]
        if any(d[i][j] for i in range(n) for j in range(n) if i != j):
            return "D not diagonal", None
        for x, y in zip(diag, diag[1:]):
            if x < 0 or (x == 0 and y != 0) or (x and y % x):
                return f"invariant factors {diag} not a divisor chain", None
        if abs(_det(u)) != 1 or abs(_det(v)) != 1:
            return "U or V not unimodular", None
        limit = 10 ** SMITH_DIGIT_BUDGET
        return _ok(all(abs(x) < limit for t in res for row in t for x in row),
                   f"entries of U, D or V exceed {SMITH_DIGIT_BUDGET} digits",
                   "smith_growth")
    return check


def _shortest_dual(gram):
    """min over nonzero integer g of g^T G^{-1} g, by Lagrange reduction."""
    q = np.linalg.inv(np.asarray(gram, dtype=float))
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    norm = lambda x: float(x @ q @ x)  # noqa: E731
    if norm(u) > norm(v):
        u, v = v, u
    while True:
        v = v - round(float(u @ q @ v) / norm(u)) * u
        if norm(v) >= norm(u):
            return norm(u)
        u, v = v, u


def _sl_word(rng, n, steps=12):
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        if i == j:
            continue
        s = int(rng.choice([-1, 1]))
        for c in range(n):
            a[i][c] += s * a[j][c]
    return a


def _collapse_check(n, k, d_prime):
    grid = tuple(2.0 ** -j for j in range(1, 11))

    def check(table, results):
        # criterion 5: k eigenvalues fall below 10 eps^2, exactly k once
        # 10 eps^2 <= 1e-2, the next stays above 1e-2, trace stays bounded
        fam = mapping_torus.collapse_family(table.b_matrix, k)
        tr1 = float(np.sum(fam.c_matrix(1.0) ** 2))
        floor = math.inf
        for row in table.rows:
            nonzero = np.sort(row.report.eigenvalues)[d_prime + 1:]
            small = 10.0 * row.eps ** 2
            if float(nonzero[k - 1]) >= small:
                return f"eps {row.eps}: k-th eigenvalue not small", None
            if small <= 1e-2 and int(np.sum(nonzero < small)) != k:
                return f"eps {row.eps}: small count not {k}", None
            if k < len(nonzero):
                floor = min(floor, float(nonzero[k]))
            if row.trace > tr1 + 1e-9:
                return f"eps {row.eps}: trace above eps=1 value", None
        if k < n - d_prime and floor < 1e-2:
            return f"survivor floor {floor:.3e} below 1e-2", None
        return None
    return check, grid


def _small_calls(seed, tmp):
    rng = np.random.default_rng([seed, 2])
    ops = []

    # semisimple floor: one 6-dim algebra, 200 random frames
    lam = rng.uniform(0.5, 1.5, size=5)
    s = _frame(rng, 5, max_cond=10.0)
    b_ss = s @ np.diag(lam) @ np.linalg.inv(s)
    ops.append(Op("semisimple_floor-n5",
                  lambda: mapping_torus.semisimple_floor(b_ss, 200, seed=seed),
                  lambda rep, r: _ok(rep.ok and not rep.vacuous,
                                     f"floor {rep.floor:.3e} not above 1e-4"),
                  10.0))

    # exact Fraction Jordan chains: nilpotent Jordan types under a signed
    # permutation, which keeps the entries integer and the spectra fixed
    for blocks in ((2,), (3,), (2, 2)):
        n = sum(blocks)
        jordan = np.zeros((n, n))
        start = 0
        for size in blocks:
            for i in range(start, start + size - 1):
                jordan[i, i + 1] = 1.0
            start += size
        for rep in range(4):
            perm = np.eye(n)[rng.permutation(n)] \
                * rng.choice([-1.0, 1.0], size=n)
            b_int = perm @ jordan @ perm.T
            for k in range(1, n - len(blocks) + 1):
                check, grid = _collapse_check(n, k, len(blocks))
                ops.append(Op(f"run_collapse-{'+'.join(map(str, blocks))}"
                              f"-k{k}-{rep}",
                              lambda b=b_int, k=k, g=grid:
                              mapping_torus.run_collapse(b, k, g),
                              check, 10.0))

    # first Betti numbers of SL_n(Z) words, against rational rank
    for n in [n for n in range(2, 11) for _ in range(2)]:
        a = _sl_word(rng, n)
        m = [[a[i][j] - int(i == j) for j in range(n)] for i in range(n)]
        expected = 1 + n - intlat.rational_rank(m)
        ops.append(Op(f"betti1-n{n}-{len(ops)}",
                      lambda a=a: intlat.betti1_mapping_torus(a),
                      lambda rep, r, e=expected: _ok(
                          rep.b1 == e, f"b1 {rep.b1}, expected {e}"),
                      10.0))

    # Euler maps: injective bound chain and determinant factorization
    for made, (m, k) in enumerate(((2, 1), (3, 2), (4, 3), (5, 4), (4, 2),
                                   (5, 3))):
        e = rng.integers(-4, 5, size=(m, k))
        while intlat.rational_rank(e.tolist()) < k:
            e = rng.integers(-4, 5, size=(m, k))
        w = rng.standard_normal((k, k))
        gram = w @ w.T + 0.5 * np.eye(k)
        e = e.tolist()
        ops.append(Op(f"bound_chain-{made}",
                      lambda e=e, g=gram: euler_bound.bound_chain(e, g),
                      lambda bc, r: _ok(
                          bc.lam_min >= bc.det_bound - 1e-10
                          and bc.lam_min >= bc.mid_bound - 1e-10
                          and bc.mid_bound >= bc.det_bound - 1e-10,
                          "bound chain out of order"),
                      10.0))
        ops.append(Op(f"det_factorization-{made}",
                      lambda e=e, g=gram: euler_bound.det_factorization(e, g),
                      lambda rep, r: _ok(rep.ok, f"residual {rep.residual:.3e}"),
                      10.0))
    for trial, (r_, l_) in enumerate(((1, 1), (1, 2), (2, 1))):
        while True:
            core = rng.integers(-3, 4, size=(r_ + 1, r_))
            if intlat.rational_rank(core.tolist()) == r_:
                break
        raw = np.concatenate([np.zeros((r_ + 1, l_), dtype=int), core], axis=1)
        signed = np.zeros((l_ + r_, l_ + r_), dtype=int)
        for col, (row, sgn) in enumerate(zip(rng.permutation(l_ + r_),
                                             rng.choice([-1, 1], size=l_ + r_))):
            signed[row, col] = sgn
        e = (raw @ signed).tolist()
        oracle = euler_bound.bound_chain(core.tolist(), np.eye(r_))
        ops.append(Op(f"noninjective_reduce-{trial}",
                      lambda e=e, k=l_ + r_:
                      euler_bound.noninjective_reduce(e, np.eye(k)),
                      lambda rep, r, o=oracle: _ok(
                          rep.restricted is not None
                          and abs(rep.restricted.lam_min - o.lam_min) <= 1e-9
                          and abs(rep.restricted.det_bound - o.det_bound) <= 1e-9,
                          "restricted chain differs from the block oracle"),
                      10.0))

    # dual-lattice enumeration on thin and skewed tori
    thin = flat_torus.FlatTorus(np.diag([rng.uniform(1 / 12, 1 / 11) ** 2, 1.0]))
    t = float(rng.uniform(0.3, 0.5))
    for name, torus in (("thin", thin), ("gt", flat_torus.gt_gram(t)),
                        ("gt+1", flat_torus.gt_gram(t + 1.0))):
        expected = FOUR_PI_SQ * _shortest_dual(torus.gram)
        ops.append(Op(f"lambda01-{name}",
                      lambda tor=torus: flat_torus.lambda01(tor),
                      lambda lam, r, e=expected: _ok(
                          abs(lam - e) <= 1e-12 * e, f"{lam!r} vs {e!r}"),
                      10.0))
    for p in (0, 1, 2):
        for name, shift in (("gt", 0.0), ("gt+1", 1.0)):
            ops.append(Op(f"p_form_spectrum-{name}-p{p}",
                          lambda p=p, s=shift: flat_torus.p_form_spectrum(
                              flat_torus.gt_gram(t + s), p, 300.0),
                          _pform_check(p, t), 10.0))
    for name, fiber in (
            ("circle", flat_torus.FlatTorus.circle(rng.uniform(0.1, 0.2))),
            ("rect", flat_torus.FlatTorus(np.diag(rng.uniform(0.2, 0.5, 2))))):
        expected = FOUR_PI_SQ / float(np.max(fiber.gram))
        ops.append(Op(f"threshold_check_product-{name}",
                      lambda f=fiber: flat_torus.threshold_check_product(
                          flat_torus.FlatTorus.circle(1.0), f, 1),
                      lambda rep, r, e=expected: _ok(
                          rep.ok and abs(rep.threshold - e) <= 1e-9 * e,
                          f"threshold {rep.threshold!r} vs {e!r}"),
                      10.0))

    # rho on T^4 with a diagonal metric: closed form min vol / (a_i a_j)
    a = np.sort(rng.uniform(0.8, 1.2, size=4))
    rho_expected = math.sqrt(math.sqrt(float(np.prod(a))) / (a[2] * a[3]))
    ops.append(Op("rho_flat-T4",
                  lambda: euler_bound.rho_flat(flat_torus.FlatTorus(np.diag(a))),
                  lambda rep, r: _ok(abs(rep.rho - rho_expected)
                                     <= 1e-12 * rho_expected,
                                     f"rho {rep.rho!r} vs {rho_expected!r}"),
                  10.0))

    # dense Smith ladder under a per-call deadline and a digit budget
    for n in (5, 6, 7, 8):
        for i in range(2):
            m = rng.integers(-9, 10, size=(n, n)).tolist()
            ops.append(Op(f"smith-n{n}-{i}",
                          lambda m=m: intlat.smith_normal_form(m),
                          _smith_check(m), SMITH_DEADLINE_S, "smith_growth"))
    return ops


def _pform_check(p, t):
    def check(spec, results):
        # the unit shear is an isometry between gt(t) and gt(t + 1)
        pair = [results.get(f"p_form_spectrum-{name}-p{p}")
                for name in ("gt", "gt+1")]
        if any(x is None for x in pair):
            return None
        s0, s1 = (np.sort(x.eigenvalues()) for x in pair)
        if len(s0) != len(s1) or float(np.max(np.abs(s0 - s1))) > 1e-12 * 300.0:
            return "spectra of gt(t) and gt(t+1) differ", None
        if any(mode.multiplicity != math.comb(2, p) for mode in spec.modes):
            return "mode multiplicity is not C(2, p)", None
        first = min(mode.eigenvalue for mode in spec.modes if any(mode.gamma))
        expected = FOUR_PI_SQ * _shortest_dual(flat_torus.gt_gram(t).gram)
        return _ok(abs(first - expected) <= 1e-12 * expected,
                   f"first nonzero mode {first!r} vs {expected!r}")
    return check


BUILDERS = {
    "verify-all": _verify_all,
    "ce-spectra": _ce_spectra,
    "small-calls": _small_calls,
}


def build(workload, seed, tmp):
    """The fixed, seeded op list of one pass."""
    return BUILDERS[workload](seed, tmp)
