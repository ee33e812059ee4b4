"""Every top-level function and class of the package, every public
method of its classes and every record field has a reader in
``src/``, ``scripts/`` or ``perfbench/``.  A function or class that only
the tests read is deleted or moved into ``tests/``; a field that only
the tests read is listed in ``TEST_ONLY_FIELDS`` with the reason it
stays.  Every exception class of the package is caught by type there.  No module of the package imports scipy, a test-only dependency.
A record is a ``NamedTuple``; a class stays a dataclass only where it
validates or caches, since each dataclass costs its import a generated
``exec``.

The static guards match by name, not by type: a field counts as read
when any attribute of that name is loaded anywhere in those folders, so
a field whose name another class also uses, such as ``ok`` or ``k``,
passes when only the other one is read.  Two guards close that gap: the
field-read trace records each ``Class.field`` that ``verify-all`` and
the three scripts actually read, and the verdict guard lists the
classes that may have an ``ok``."""

import ast
import dataclasses
import importlib
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from collapse_spectra import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "collapse_spectra"

#: record fields that only the tests read, as ``Class.field``, each
#: with the reason it stays; ``RunManifest`` is exempt because
#: ``_asdict`` serializes it whole
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

#: record fields that only perfbench reads, as ``Class.field``, each
#: with the reason it stays; listed by hand, since a name match against
#: perfbench would also pass every field that shares the name
PERFBENCH_ONLY_FIELDS = {
    "CollapseTable.b_matrix":
        "the small-calls check rebuilds the family of the table's B",
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


#: the classes that stay dataclasses, each because it validates in
#: ``__post_init__`` or holds a per-instance cache; every other record
#: is a ``NamedTuple``
KEPT_DATACLASSES = {"StructureConstants", "FlatTorus", "MappingTorusBundle",
                    "TorusBundleOverT2"}


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _records():
    """``[(module, class node)]`` of every record of the package: each
    dataclass and each ``NamedTuple``."""
    return [(module, node) for module, tree in _modules()
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and (_is_dataclass(node)
                 or "NamedTuple" in map(ast.unparse, node.bases))]


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
    fields = {f"{node.name}.{name}": name for _, node in _records()
              if node.name != "RunManifest" for name in _fields(node)}
    unread = sorted(qual for qual, name in fields.items() if name not in loads)
    assert unread == sorted(TEST_ONLY_FIELDS), (
        f"read by tests only: {sorted(set(unread) - set(TEST_ONLY_FIELDS))}; "
        f"in TEST_ONLY_FIELDS but read: "
        f"{sorted(set(TEST_ONLY_FIELDS) - set(unread))}")


def test_every_field_is_read_by_a_contract_run(monkeypatch, tmp_path):
    # the name match above passes a field whenever another class has a
    # field of the same name; this records each ``Class.field`` that
    # verify-all and the three scripts, at their defaults but for the
    # output paths, actually read
    read = set()
    fields = set()
    for module, node in _records():
        cls = getattr(importlib.import_module(f"collapse_spectra.{module}"),
                      node.name)
        names = (set(cls._fields) if issubclass(cls, tuple)
                 else {f.name for f in dataclasses.fields(cls)})
        fields |= {f"{cls.__name__}.{name}" for name in names}

        def getattribute(self, name, _cls=cls, _names=names,
                         _get=cls.__getattribute__):
            if name in _names:
                read.add(f"{_cls.__name__}.{name}")
            return _get(self, name)

        monkeypatch.setattr(cls, "__getattribute__", getattribute)
    assert cli.main(["verify-all", "--out", str(tmp_path / "verify")]) == 0
    for script, args in [
            ("collapse_sweep.py", ["--out", str(tmp_path / "sweep")]),
            ("flat_thresholds.py", ["--out", str(tmp_path / "modes.csv")]),
            ("semisimple_floor_experiment.py", [])]:
        monkeypatch.setattr(sys, "argv", [script, *args])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_path(str(ROOT / "scripts" / script),
                           run_name="__main__")
        assert exit_.value.code == 0, script
    exempt = (set(TEST_ONLY_FIELDS) | set(PERFBENCH_ONLY_FIELDS)
              | {name for name in fields if name.startswith("RunManifest.")})
    unread = sorted(fields - read - exempt)
    assert unread == [], f"read by tests only: {unread}"


def test_every_error_subclass_is_caught_by_type():
    # an exception class earns its place in an ``except`` clause; an
    # error no caller tells apart raises a plain ValueError
    errors = next(tree for module, tree in _modules() if module == "errors")
    classes = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)}
    caught = {ast.unparse(node.type) for node in _reader_nodes()
              if isinstance(node, ast.ExceptHandler) and node.type}
    caught = set(re.findall(r"\w+", " ".join(caught)))
    assert sorted(classes - caught) == []


def test_verdicts_are_check_results():
    # an ``assert`` is skipped under ``python -O``, so none decides a check
    asserts = [f"{module}:{node.lineno}" for module, tree in _modules()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []
    with_ok = {node.name for _, node in _records()
               if "ok" in _fields(node)}
    assert with_ok == OK_FIELDS


def test_dataclasses_validate_or_cache():
    # a dataclass generates and execs its methods at import, several
    # times the cost of a NamedTuple; only a class that needs its own
    # constructor or instance state pays it
    kept = {}
    for _, node in _records():
        if _is_dataclass(node):
            methods = [item for item in node.body
                       if isinstance(item, ast.FunctionDef)]
            kept[node.name] = any(
                m.name == "__post_init__"
                or any("cached_property" in ast.unparse(d)
                       for d in m.decorator_list) for m in methods)
    assert set(kept) == KEPT_DATACLASSES
    assert all(kept.values()), kept


def test_import_processes_only_the_kept_dataclasses():
    # counts the classes ``dataclasses`` processes while a fresh
    # interpreter imports the CLI, numpy imported first
    code = ("import dataclasses, numpy\n"
            "made = []\n"
            "process = dataclasses._process_class\n"
            "def counting(cls, *args, **kwargs):\n"
            "    made.append(cls.__name__)\n"
            "    return process(cls, *args, **kwargs)\n"
            "dataclasses._process_class = counting\n"
            "import collapse_spectra.cli\n"
            "print(' '.join(made))\n")
    made = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True).stdout.split()
    assert sorted(made) == sorted(KEPT_DATACLASSES)


#: parameters with a default plus record fields in src/; see
#: test_settable_values_do_not_grow
SETTABLE_VALUES = 123
#: lines of the package's modules, as ``wc -l`` counts them; see
#: test_src_lines_do_not_grow
SRC_LINES = 3446


def test_src_lines_do_not_grow():
    # deleted code stays deleted: a change that needs more lines raises
    # SRC_LINES and records in CHANGES.md why
    count = sum(path.read_text().count("\n")
                for path in PACKAGE.glob("*.py"))
    assert count <= SRC_LINES, (
        f"{count} lines in src/collapse_spectra/*.py, pinned at {SRC_LINES}")


def test_settable_values_do_not_grow():
    # each default and each field is a value a caller can set; a new one
    # must earn its place, and the config file sets none beyond the two
    # sections a run needs
    defaults = sum(len(node.args.defaults)
                   + sum(d is not None for d in node.args.kw_defaults)
                   for _, tree in _modules() for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.Lambda)))
    fields = sum(len(_fields(node)) for _, node in _records())
    count = defaults + fields
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values (parameters with a default plus "
        f"record fields) in src/, pinned at {SETTABLE_VALUES}: if the "
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
