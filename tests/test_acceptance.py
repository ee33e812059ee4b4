"""Acceptance gate: one test per exit criterion, with margins printed."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from collapse_spectra import acceptance, scenarios
from collapse_spectra.scenarios import CheckResult


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[f.__name__ for f in acceptance.CRITERIA])
def test_criterion(criterion):
    result = criterion(0, acceptance.ScenarioRuns())
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} criterion {result.number}: {result.name} "
          f"({result.seconds:.2f} s)")
    for check in result.checks:
        mark = "ok " if check.passed else "BAD"
        print(f"  {mark} {check.name}: margin {check.margin:+.3e}"
              + (f" ({check.detail})" if check.detail else ""))
    failed = [c.name for c in result.checks if not c.passed]
    assert result.passed, f"criterion {result.number} failed: {failed}"


def test_run_all_summary():
    summary = acceptance.run_all(seed=0, skip=(12,))
    assert summary.passed
    assert len(summary.results) == len(acceptance.CRITERIA) - 1


@given(value=st.floats(allow_nan=True, allow_infinity=True),
       bound=st.floats(allow_nan=False, allow_infinity=False),
       sense=st.sampled_from(["<=", ">="]))
def test_check_result_verdict_follows_margin(value, bound, sense):
    check = CheckResult("c", value, bound, sense=sense)
    assert check.passed == (check.margin >= 0.0)
    if math.isnan(value):
        assert not check.passed
    else:
        assert check.passed == (value <= bound if sense == "<="
                                else value >= bound)


def test_readme_tolerance_table_matches_defaults():
    # each row's bound is the one every check of that name records in
    # the row's criterion at seed 0
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| (?:`[\w-]+` )?`([\w-]+)` \| ([^ |]+) \| (\d+) \|$",
                      readme.read_text(), flags=re.MULTILINE)
    assert len(rows) == 7
    numbers = {int(number) for _, _, number in rows}
    summary = acceptance.run_all(seed=0, skip=tuple(
        n for n in range(1, 13) if n not in numbers))
    results = {r.number: r for r in summary.results}
    for check, bound, number in rows:
        bounds = {c.bound for c in results[int(number)].checks
                  if c.name.split("/")[-1] == check}
        assert bounds == {float(bound)}, (check, bounds)


def test_criterion_runs_reuse_one_evaluation(monkeypatch):
    calls = []
    real = scenarios.run_scenario_checks

    def counting(name, *args, **kwargs):
        calls.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(scenarios, "run_scenario_checks", counting)
    runs = acceptance.ScenarioRuns()
    first = runs("heisenberg", {"gamma": "3"}, 0, (0.5, 0.1, 0.01))
    assert runs("heisenberg") is first
    assert runs("heisenberg", {"gamma": 2}) is not first
    assert calls == ["heisenberg", "heisenberg"]
