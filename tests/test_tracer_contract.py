"""The benchmark tracer (perfbench/spans.py) names package functions,
criteria and scenarios literally; a rename here would silently blank the
traced run, so these names are pinned against the package.  The
benchmark's small-calls ops (perfbench/workloads.py) also run here
against their own oracles, so coefficient growth in the Smith ops, or a
trim that drops an attribute an oracle reads, fails the suite, not the
benchmark only."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from collapse_spectra import acceptance, scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import perfbench/<name>.py read-only, as module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = _load("spans")
    for layer, names in spans.TRACED.items():
        home = np.linalg if layer == "eigensolve" else \
            importlib.import_module(f"collapse_spectra.{layer}")
        for fname in names:
            assert callable(getattr(home, fname, None)), f"{layer}.{fname}"


def test_criteria_numbers_match_tracer():
    numbers = [int(f.__name__.split("_")[1]) for f in acceptance.CRITERIA]
    assert numbers == list(range(1, _load("spans").CRITERIA_COUNT + 1))


def test_scenario_names_match_tracer():
    assert _load("spans").SCENARIO_NAMES == tuple(sorted(scenarios.SCENARIOS))


@pytest.mark.parametrize("seed", [21, 37, 53])
def test_benchmark_smith_ops_pass_their_oracle(seed, time_limit):
    # each call takes under a millisecond; the remainder-chain elimination
    # this guards against ran for seconds or left thousands of digits
    ops = [op for op in _load("workloads").build("small-calls", seed, None)
           if op.key.startswith("smith-")]
    assert len(ops) == 8
    for op in ops:
        with time_limit(1.0, op.key):
            result = op.call()
        assert op.check(result, {}) is None, op.key


@pytest.mark.parametrize("seed", [21, 37])
def test_benchmark_small_calls_pass_their_oracles(seed, time_limit):
    # every op runs before any oracle, as in the benchmark, because an
    # oracle may compare its result with another op's in ``results``
    ops = _load("workloads").build("small-calls", seed, None)
    results = {}
    for op in ops:
        with time_limit(max(op.deadline_s, 1.0), op.key):
            results[op.key] = op.call()
    failed = {op.key: op.check(results[op.key], results) for op in ops}
    assert not {k: v for k, v in failed.items() if v is not None}
