"""Every top-level function and class of the package, every public
method of its classes and every dataclass field has a reader in
``src/``, ``scripts/`` or ``perfbench/``.  A function or class that only
the tests read is deleted or moved into ``tests/``; a field that only
the tests read is listed in ``TEST_ONLY_FIELDS`` with the reason it
stays.  No module of the package imports scipy, a test-only dependency.

Both guards match by name, not by type: a field counts as read when any
attribute of that name is loaded anywhere in those folders.  So a field
whose name another class also uses, such as ``ok`` or ``det_e``, is not
caught when only the other one is read.  The verdict guard covers the
``ok`` fields by listing the classes that may have one."""

import ast
import re
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "collapse_spectra"

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
    assert unread == [], f"read by tests only: {unread}"
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


#: parameters with a default plus dataclass fields in src/; see
#: test_settable_values_do_not_grow
SETTABLE_VALUES = 141


def test_settable_values_do_not_grow():
    # each default and each field is a value a caller can set; a new one
    # must earn its place, and the config file sets none beyond the two
    # sections a run needs
    defaults = sum(len(node.args.defaults)
                   + sum(d is not None for d in node.args.kw_defaults)
                   for _, tree in _modules() for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.Lambda)))
    fields = sum(len(_fields(node)) for _, node in _dataclasses())
    count = defaults + fields
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values (parameters with a default plus "
        f"dataclass fields) in src/, pinned at {SETTABLE_VALUES}: if the "
        f"new one is needed, raise SETTABLE_VALUES and record in "
        f"CHANGES.md why")
    cli = next(tree for module, tree in _modules() if module == "cli")
    (reader,) = [node for node in cli.body if isinstance(node, ast.FunctionDef)
                 and node.name == "_read_config"]
    sections = {node.comparators[0].value for node in ast.walk(reader)
                if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == "section"}
    assert sections == {"scenario", "params"}


def test_src_imports_no_scipy():
    # scipy is a test-only dependency; the scan covers every path of
    # src/, and a string such as "scipy.linalg" could reach importlib
    found = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and _IDENTIFIER.match(node.value)):
                names = [node.value]
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
                for r in requirements}

    assert "scipy" not in names(project["dependencies"])
    assert "scipy" in names(project["optional-dependencies"]["test"])
