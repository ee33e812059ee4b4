"""Every top-level function and class of the package, every public
method of its classes and every dataclass field has a reader in
``src/``, ``scripts/`` or ``perfbench/``.  Code that only the tests read
is deleted, or listed in ``TEST_ONLY`` or ``TEST_ONLY_FIELDS`` with the
reason it stays.

Both guards match by name, not by type: a field counts as read when any
attribute of that name is loaded anywhere in those folders.  So a field
whose name another class also uses, such as ``ok`` or ``det_e``, is not
caught when only the other one is read.  The verdict guard covers the
``ok`` fields by listing the classes that may have one."""

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

#: dataclass fields that only the tests read, as ``Class.field``, each
#: with the reason it stays; ``RunManifest`` is exempt because
#: ``dataclasses.asdict`` serializes it whole
TEST_ONLY_FIELDS = {
    "DetFactorizationReport.det_prime":
        "a term of Det e = (Det' e) Vol(T^k), checked against closed forms",
    "DetFactorizationReport.vol_t":
        "a term of Det e = (Det' e) Vol(T^k), checked against closed forms",
    "DetFactorizationReport.det_e":
        "a term of Det e = (Det' e) Vol(T^k), checked against closed forms",
    "NonInjectiveReport.quotient_volume":
        "volume of T^k / T^{k-l}, checked against a closed form",
    "RhoReport.attaining":
        "the minimizing 2-form, checked against a brute-force search",
    "AbelianizationReport.free_rank":
        "structure of H_1, checked on a mapping torus with torsion",
    "AbelianizationReport.torsion":
        "structure of H_1, checked on a mapping torus with torsion",
}

#: the reports whose ``ok`` the scripts or the benchmark read; every
#: other verdict is a ``CheckResult``
OK_FIELDS = {"ThresholdReport", "DetFactorizationReport", "FloorReport"}

# a string that names code, such as the tracer's lists of function names
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _modules():
    """``[(module name, AST)]`` of the package."""
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]


def _definitions():
    """``{qualified name: name}`` of every top-level function and class of
    the package and of every public method of those classes."""
    found = {}
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found[f"{module}.{node.name}.{item.name}"] = \
                            item.name
    return found


def _dataclasses():
    """``[(module, class node)]`` of every dataclass of the package."""
    return [(module, node) for module, tree in _modules()
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d)
                    for d in node.decorator_list)]


def _fields(node):
    return [item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign)]


def _reader_nodes():
    """Every AST node of src/, scripts/ and perfbench/."""
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield from ast.walk(ast.parse(path.read_text()))


def _attribute_loads():
    """Attribute names loaded in src/, scripts/ and perfbench/."""
    return {node.attr for node in _reader_nodes()
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _references():
    """Names read in src/, scripts/ and perfbench/: loaded names,
    attributes and identifier strings.  Definitions and import
    statements are not reads."""
    names = set()
    for node in _reader_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
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


def test_every_field_has_a_reader():
    loads = _attribute_loads()
    fields = {f"{node.name}.{name}": name for _, node in _dataclasses()
              if node.name != "RunManifest" for name in _fields(node)}
    unread = sorted(qual for qual, name in fields.items() if name not in loads)
    assert unread == sorted(TEST_ONLY_FIELDS), (
        f"read by tests only: {sorted(set(unread) - set(TEST_ONLY_FIELDS))}; "
        f"in TEST_ONLY_FIELDS but read: "
        f"{sorted(set(TEST_ONLY_FIELDS) - set(unread))}")


def test_verdicts_are_check_results():
    # an ``assert`` is skipped under ``python -O``, so none decides a check
    asserts = [f"{module}:{node.lineno}" for module, tree in _modules()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []
    with_ok = {node.name for _, node in _dataclasses()
               if "ok" in _fields(node)}
    assert with_ok == OK_FIELDS
