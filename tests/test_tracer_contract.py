"""The benchmark tracer (perfbench/spans.py) names package functions,
criteria and scenarios literally; a rename here would silently blank the
traced run, so these names are pinned against the package."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from collapse_spectra import acceptance, scenarios

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = _spans()
    for layer, names in spans.TRACED.items():
        home = np.linalg if layer == "eigensolve" else \
            importlib.import_module(f"collapse_spectra.{layer}")
        for fname in names:
            assert callable(getattr(home, fname, None)), f"{layer}.{fname}"


def test_criteria_numbers_match_tracer():
    numbers = [int(f.__name__.split("_")[1]) for f in acceptance.CRITERIA]
    assert numbers == list(range(1, _spans().CRITERIA_COUNT + 1))


def test_scenario_names_match_tracer():
    assert _spans().SCENARIO_NAMES == tuple(sorted(scenarios.SCENARIOS))
