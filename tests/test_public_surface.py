"""Every top-level function and class of the package, and every public
method of its classes, has a reader in ``src/``, ``scripts/`` or
``perfbench/``.  Code that only the tests call is deleted, or listed in
``TEST_ONLY`` with the reason it stays."""

import ast
import re
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "collapse_spectra"

#: names that only the tests read, each with the reason it stays in src/
TEST_ONLY = {
    "nil_bundle_curvature_closed_form":
        "reference closed form the general curvature formula is checked "
        "against",
    "jacobi_defect":
        "measures how far a rejected bracket table is from a Lie algebra",
    "mat_mul_int":
        "exact-integer fixture of the Smith form and Jordan chain tests",
    "unimodular_inverse":
        "exact-integer fixture of the Jordan chain tests",
}

# a string that names code, such as the tracer's lists of function names
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _definitions():
    """``{qualified name: name}`` of every top-level function and class of
    the package and of every public method of those classes."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found[f"{path.stem}.{node.name}.{item.name}"] = \
                            item.name
    return found


def _references():
    """Names read in src/, scripts/ and perfbench/: loaded names,
    attributes and identifier strings.  Definitions and import
    statements are not reads."""
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and _IDENTIFIER.match(node.value)):
                    names.update(node.value.split("."))
    return names


def test_every_definition_has_a_reader():
    start = time.perf_counter()
    definitions = _definitions()
    references = _references()
    elapsed = time.perf_counter() - start
    unread = sorted(qual for qual, name in definitions.items()
                    if name not in references)
    kept = sorted(qual for qual, name in definitions.items()
                  if name in TEST_ONLY)
    assert unread == kept, (
        f"read by tests only: {sorted(set(unread) - set(kept))}; "
        f"in TEST_ONLY but read: {sorted(set(kept) - set(unread))}")
    assert set(TEST_ONLY) <= set(definitions.values())
    assert elapsed < 1.0, f"scan took {elapsed:.2f} s"
