"""Every file that ``verify-all`` writes at seeds 0 and 1 has the sha256
recorded in ``golden/verify_all_sha256.json``, and the standard output
and every file of each script in ``scripts/`` run at its defaults have
theirs in ``golden/scripts_sha256.json``.

Two runs of the same code agree with each other whatever it computes, so
only a recorded digest notices a changed default grid or a loosened
bound.  The CSVs print floats by ``repr``, so the digests hold for the
numpy and BLAS build they were recorded with; each file keeps that build
under ``"build"``, and a mismatch on another build still fails but says
so.  A change that alters an artifact on purpose replaces the digests of
that seed with the table the failure prints, and lists each changed
value in CHANGES.md.
"""

import ctypes
import hashlib
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from collapse_spectra import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify_all_sha256.json"
SCRIPTS_GOLDEN = ROOT / "tests" / "golden" / "scripts_sha256.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _blas_build() -> dict:
    """numpy's version and the config string of its bundled OpenBLAS
    (version and the kernel picked at run time)."""
    for path in sorted((Path(np.__file__).parent.parent
                        / "numpy.libs").glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            config = lib.scipy_openblas_get_config64_().decode()
            break
        except (OSError, AttributeError):
            continue
    else:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        config = f"{blas.get('name')} {blas.get('version')} (build)"
    return {"numpy": np.__version__, "openblas": config}


def _build_note(golden: dict) -> str:
    here = _blas_build()
    if golden["build"] == here:
        return ""
    return f"recorded on another BLAS build: {golden['build']} vs {here}; "


def _digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix():
            _sha256(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_all_matches_golden_digests(tmp_path, seed):
    code = cli.main(["verify-all", "--seed", str(seed),
                     "--out", str(tmp_path)])
    got = _digests(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    want = golden[str(seed)]
    changed = sorted(name for name in want.keys() | got.keys()
                     if got.get(name) != want.get(name))
    assert changed == [], (
        f"{_build_note(golden)}seed {seed}: {changed} differ from the "
        f"golden digests; if the change is meant, the new table is\n"
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
    golden = json.loads(SCRIPTS_GOLDEN.read_text())
    assert got == golden[script], (
        f"{_build_note(golden)}{script}: outputs differ from the golden "
        f"digests; if the change is meant, the new table is\n"
        f"{json.dumps(got, indent=1)}")
