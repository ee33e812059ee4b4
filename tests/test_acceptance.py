"""Acceptance gate: one test per exit criterion, with margins printed."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from collapse_spectra import acceptance, scenarios
from collapse_spectra.errors import ConfigInvalid
from collapse_spectra.scenarios import CheckResult


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[f.__name__ for f in acceptance.CRITERIA])
def test_criterion(criterion):
    result = criterion(dict(acceptance.TOLERANCES), seed=0)
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


def test_tolerance_overrides_validated():
    with pytest.raises(ConfigInvalid, match="^bogus:"):
        acceptance.run_all(seed=0, tolerances={"bogus": 1.0}, skip=tuple(
            range(1, 13)))


def test_non_finite_tolerance_override_rejected():
    with pytest.raises(ConfigInvalid, match="^duality_atol:"):
        acceptance.run_all(tolerances={"duality_atol": float("nan")})


# key -> (criterion, check) it governs, with a value that check must fail on
_FAILING_TOLERANCES = {
    "heisenberg_rtol": (-1.0, 1, "gamma-3/eigenvalue-rate"),
    "closed_form_atol": (-1.0, 2, "oracle-equality"),
    "duality_atol": (-1.0, 3, "poincare-duality"),
    "survivor_floor": (1e30, 5, "n3-k1/survivor-floor"),
    "drift_limit": (-1.0, 7, "two-block/rate-drift"),
    "spectrum_atol": (-1.0, 8, "b=1/spectrum-match"),
    "chain_margin": (-1.0, 11, "euler-bound/bound-chain"),
}


def test_every_tolerance_key_is_live():
    assert set(_FAILING_TOLERANCES) == set(acceptance.TOLERANCES)
    for key, (value, number, check) in _FAILING_TOLERANCES.items():
        summary = acceptance.run_all(seed=0, tolerances={key: value}, skip=tuple(
            n for n in range(1, 13) if n != number))
        (result,) = summary.results
        failed = {c.name: c.margin for c in result.checks if not c.passed}
        assert result.number == number and check in failed, (key, failed)
        assert failed[check] < 0.0, (key, failed[check])


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
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `(\w+)` \| ([^ |]+) \|", readme.read_text(),
                      flags=re.MULTILINE)
    assert {key: float(default) for key, default in rows} \
        == acceptance.TOLERANCES


def test_criterion_runs_reuse_one_evaluation(monkeypatch):
    calls = []
    real = scenarios.run_scenario_checks

    def counting(name, *args, **kwargs):
        calls.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(scenarios, "run_scenario_checks", counting)
    runs = acceptance.ScenarioRuns(dict(acceptance.TOLERANCES))
    first = runs("heisenberg", {"gamma": "3"}, 0, (0.5, 0.1, 0.01))
    assert runs("heisenberg") is first
    assert runs("heisenberg", {"gamma": 2}) is not first
    assert calls == ["heisenberg", "heisenberg"]
