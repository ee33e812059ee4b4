"""Acceptance gate: one test per exit criterion, with margins printed."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from collapse_spectra import acceptance, scenarios
from collapse_spectra.scenarios import CheckResult


@pytest.mark.parametrize("number, criterion",
                         enumerate(acceptance.CRITERIA, 1),
                         ids=[f.__name__ for f in acceptance.CRITERIA])
def test_criterion(number, criterion):
    name, checks = criterion(0, acceptance.ScenarioRuns())
    passed = all(c.passed for c in checks)
    print(f"\n{'PASS' if passed else 'FAIL'} criterion {number}: {name}")
    for check in checks:
        mark = "ok " if check.passed else "BAD"
        print(f"  {mark} {check.name}: margin {check.margin:+.3e}"
              + (f" ({check.detail})" if check.detail else ""))
    failed = [c.name for c in checks if not c.passed]
    assert checks and passed, f"criterion {number} failed: {failed}"


def test_criteria_are_numbered_by_position():
    # run_all numbers a criterion by its place in CRITERIA, the tracer
    # of perfbench by its function name, so the two must agree
    for i, criterion in enumerate(acceptance.CRITERIA):
        assert criterion.__name__.startswith(f"criterion_{i + 1}_")


def test_run_all_summary():
    summary = acceptance.run_all(seed=0)
    assert summary.passed
    assert [r.number for r in summary.results] == list(range(1, 13))
    assert len({r.name for r in summary.results}) == 12
    assert all(r.seconds > 0 for r in summary.results)
    assert summary.seconds >= sum(r.seconds for r in summary.results)


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
    runs = acceptance.ScenarioRuns()
    checks = {number: acceptance.CRITERIA[number - 1](0, runs)[1]
              for number in {int(number) for _, _, number in rows}}
    for check, bound, number in rows:
        bounds = {c.bound for c in checks[int(number)]
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
