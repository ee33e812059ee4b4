"""Every file that ``verify-all`` writes at seeds 0 and 1 has the sha256
recorded in ``golden/verify_all_sha256.json``, and the standard output
and every file of each script in ``scripts/`` run at its defaults have
theirs in ``golden/scripts_sha256.json``.

Two runs of the same code agree with each other whatever it computes, so
only a recorded digest notices a changed default grid or a loosened
bound.  The CSVs print floats by ``repr``, so the digests hold for the
numpy and BLAS build they were recorded with.  A change that alters an
artifact on purpose replaces the digests of that seed with the table the
failure prints, and lists each changed value in CHANGES.md.
"""

import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from collapse_spectra import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify_all_sha256.json"
SCRIPTS_GOLDEN = ROOT / "tests" / "golden" / "scripts_sha256.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix():
            _sha256(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_all_matches_golden_digests(tmp_path, seed):
    code = cli.main(["verify-all", "--seed", str(seed),
                     "--out", str(tmp_path)])
    got = _digests(tmp_path)
    want = json.loads(GOLDEN.read_text())[str(seed)]
    changed = sorted(name for name in want.keys() | got.keys()
                     if got.get(name) != want.get(name))
    assert changed == [], (
        f"seed {seed}: {changed} differ from the golden digests; if the "
        f"change is meant, the new table is\n"
        f"{json.dumps(got, indent=1, sort_keys=True)}")
    assert code == 0


@pytest.mark.parametrize("script", ["collapse_sweep.py", "flat_thresholds.py",
                                    "semisimple_floor_experiment.py"])
def test_script_defaults_match_golden_digests(script, tmp_path, monkeypatch,
                                              capsys):
    # no arguments at all: the default output paths are relative, so the
    # files land in the empty working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert exc.value.code == 0
    got = {"stdout": _sha256(capsys.readouterr().out.encode()),
           **_digests(tmp_path)}
    want = json.loads(SCRIPTS_GOLDEN.read_text())[script]
    assert got == want, (
        f"{script}: outputs differ from the golden digests; if the change "
        f"is meant, the new table is\n{json.dumps(got, indent=1)}")
