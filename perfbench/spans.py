"""Span tracer installed from outside the package.

The tracer replaces the package's public functions with wrappers that
record one span per call: name, start, end, parent span, op id and an
optional tag.  A function imported by name into other modules is
replaced there too, so ``spectrum`` is traced whether it is reached as
``lie_complex.spectrum`` or as the name ``mapping_torus`` imported.

Spans stay in memory; :meth:`Tracer.layer_metrics` folds them into the
per-layer numbers and :meth:`Tracer.dump` writes them out at the end.
Wrappers only record while an op runs (``Tracer.op`` is set), so oracle
code that calls the same functions after the timed pass adds no spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Captured before any patching so that counter hooks add no spans.
_eigvalsh = np.linalg.eigvalsh

#: (module, function) pairs whose calls, inclusive and self seconds are
#: reported as ``<layer>.<function>.{calls,s,self_s}``.
TRACED = {
    "lie_complex": ("exterior_derivative", "laplacian", "spectrum"),
    "eigensolve": ("eigvalsh", "eigh"),
    "flat_torus": ("diameter", "_enumerate_dual", "lambda01",
                   "p_form_spectrum", "threshold_check_product"),
    "intlat": ("smith_normal_form", "rational_rank", "betti1_mapping_torus",
               "matrix_exp"),
    "mapping_torus": ("jordan_zero_chain", "run_collapse",
                      "semisimple_floor"),
    "euler_bound": ("bound_chain", "det_factorization",
                    "noninjective_reduce", "rho_flat"),
    "curvature": ("frame_curvature_table", "solvable_curvature_closed_form"),
    "torus_bundle": ("verify_spectrum", "eigenspace_split"),
    "scenarios": ("run_scenario_checks",),
    "cli": ("run_scenario",),
}

# Listed here rather than read from the package, so that the metric names
# stay those in BENCHMARK.json when the package changes.
SCENARIO_NAMES = ("euler-bound", "flat-rotation-torus", "flat-threshold",
                  "gt-family", "heisenberg", "mapping-torus", "nil-dense-direction",
                  "nil-homothety", "torus-bundle", "two-block-solvable",
                  "vol-bound")
CRITERIA_COUNT = 12


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _digits(x: int) -> int:
    """Decimal digits of |x| without str(), which Python caps at 4300."""
    x = abs(x)
    if x == 0:
        return 1
    d = int(x.bit_length() * math.log10(2)) + 1
    return d - 1 if 10 ** (d - 1) > x else d


class Tracer:
    """Wraps package functions and keeps their spans in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, tag]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.max_digits = 0
        self._diameter_seen = set()

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn, tag=None, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else None, tracer.op,
                    tag(args, kwargs) if tag else None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if hook:
                hook(args, kwargs, result)
            return result

        return traced

    def begin_op(self, op_id):
        self.op = op_id
        self.stack.clear()
        self._diameter_seen.clear()

    def end_op(self):
        self.op = None
        self.stack.clear()

    # -- counter hooks (arguments and results only) ----------------------

    def _eig_hook(self, args, kwargs, result):
        shape = np.shape(args[0])
        self.counts["eigensolve.dim3_sum"] += \
            int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3

    def _diameter_hook(self, args, kwargs, result):
        torus = args[0]
        resolution = int(_arg(args, kwargs, 1, "resolution", 200))
        self.counts["diameter.grid_points"] += (resolution + 1) ** torus.k
        key = (torus.gram.tobytes(), resolution)
        if key in self._diameter_seen:
            self.counts["diameter.repeats"] += 1
        self._diameter_seen.add(key)

    def _enumerate_hook(self, args, kwargs, result):
        q = np.asarray(args[0], dtype=float)
        qmax = float(_arg(args, kwargs, 1, "qmax"))
        box_scale = float(_arg(args, kwargs, 2, "box_scale", 1.0))
        lam_min = float(_eigvalsh(q)[0])
        radius = max(1, int(math.ceil(math.sqrt(max(qmax, 0.0) / lam_min))))
        radius = int(math.ceil(radius * box_scale))
        self.counts["enumerate.box_points"] += (2 * radius + 1) ** q.shape[0]
        self.counts["enumerate.hits"] += len(result)

    def _smith_hook(self, args, kwargs, result):
        u, d, v = result
        self.max_digits = max(self.max_digits, max(
            (_digits(x) for m in (u, d, v) for row in m for x in row),
            default=0))

    def _jordan_hook(self, args, kwargs, result):
        b = np.asarray(args[0], dtype=float)
        if np.array_equal(b, np.round(b)):
            self.counts["jordan.exact"] += 1

    def _run_scenario_hook(self, args, kwargs, result):
        out_dir = _arg(args, kwargs, 1, "out_dir")
        if out_dir is None:
            return
        names = [a["name"] for a in result.artifacts] + ["manifest.json"]
        self.counts["cli.bytes_written"] += sum(
            os.path.getsize(os.path.join(out_dir, n)) for n in names)

    # -- installation ----------------------------------------------------

    def install(self):
        """Replace every traced function in the package and numpy.linalg."""
        import collapse_spectra  # noqa: F401  (loads every submodule)
        from collapse_spectra import acceptance
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "collapse_spectra"
                   or k.startswith("collapse_spectra.")]
        hooks = {
            "eigensolve.eigvalsh": self._eig_hook,
            "eigensolve.eigh": self._eig_hook,
            "flat_torus.diameter": self._diameter_hook,
            "flat_torus._enumerate_dual": self._enumerate_hook,
            "intlat.smith_normal_form": self._smith_hook,
            "mapping_torus.jordan_zero_chain": self._jordan_hook,
            "cli.run_scenario": self._run_scenario_hook,
        }
        tags = {"scenarios.run_scenario_checks":
                lambda args, kwargs: _arg(args, kwargs, 0, "name")}
        for layer, names in TRACED.items():
            home = np.linalg if layer == "eigensolve" else \
                sys.modules[f"collapse_spectra.{layer}"]
            for fname in names:
                full = f"{layer}.{fname}"
                orig = getattr(home, fname)
                wrapped = self._wrap(full, orig, tags.get(full),
                                     hooks.get(full))
                for mod in [home] + modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        for i, func in enumerate(acceptance.CRITERIA):
            number = func.__name__.split("_")[1]
            wrapped = self._wrap(f"acceptance.criterion_{number}", func)
            acceptance.CRITERIA[i] = wrapped
            setattr(acceptance, func.__name__, wrapped)

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of every span recorded so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, tag in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        tagged = defaultdict(float)
        d_in_laplacian = 0
        for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
            dur = (end - start) if end is not None else 0.0
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            if tag is not None:
                tagged[tag] += dur
            if name == "lie_complex.exterior_derivative" and parent is not None \
                    and self.spans[parent][0] == "lie_complex.laplacian":
                d_in_laplacian += 1
        out = {}
        for layer, names in TRACED.items():
            for fname in names:
                full = f"{layer}.{fname}"
                out[f"{full}.calls"] = calls[full]
                out[f"{full}.s"] = incl[full]
                out[f"{full}.self_s"] = self_s[full]
        for name in SCENARIO_NAMES:
            out[f"scenarios.{name}.s"] = tagged[name]
        for number in range(1, CRITERIA_COUNT + 1):
            out[f"acceptance.criterion_{number}.s"] = \
                incl[f"acceptance.criterion_{number}"]
        c = self.counts
        out["cli.bytes_written"] = c["cli.bytes_written"]
        out["lie_complex.d_builds_per_laplacian"] = \
            d_in_laplacian / max(1, calls["lie_complex.laplacian"])
        out["eigensolve.dim3_sum"] = c["eigensolve.dim3_sum"]
        out["flat_torus.diameter.grid_points"] = c["diameter.grid_points"]
        out["flat_torus.diameter.repeat_share"] = \
            c["diameter.repeats"] / max(1, calls["flat_torus.diameter"])
        out["flat_torus._enumerate_dual.hit_ratio"] = \
            c["enumerate.hits"] / max(1, c["enumerate.box_points"])
        out["intlat.smith_normal_form.max_digits"] = self.max_digits
        out["mapping_torus.jordan_zero_chain.exact_share"] = \
            c["jordan.exact"] / max(1, calls["mapping_torus.jordan_zero_chain"])
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "tag": tag}) + "\n")
