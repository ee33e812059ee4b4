"""Every file that ``verify-all`` writes at seeds 0 and 1 has the sha256
recorded in ``golden/verify_all_sha256.json``.

Two runs of the same code agree with each other whatever it computes, so
only a recorded digest notices a changed default grid or a loosened
bound.  The CSVs print floats by ``repr``, so the digests hold for the
numpy and BLAS build they were recorded with.  A change that alters an
artifact on purpose replaces the digests of that seed with the table the
failure prints, and lists each changed value in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from collapse_spectra import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all_sha256.json"


def _digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
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
