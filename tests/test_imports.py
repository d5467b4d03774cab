"""Every name a package module imports is used in it (or re-exported
through ``__all__``), so that a refactor cannot leave a dead import behind,
and importing the package loads no module that only one route needs."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fockcascade"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations such as
    ``list["OutcomeNode"]``, plus the strings listed in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = imported_names(tree) - used_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} but never uses them"


def test_guard_sees_an_unused_import():
    tree = ast.parse("from .poly import sig12, report_value\nreport_value(1.0)\n")
    assert imported_names(tree) - used_names(tree) == {"sig12"}


def test_import_leaves_sparse_linalg_unloaded():
    # Only the dense oracle's large-basis route needs it; loading it at
    # import would lengthen every `import fockcascade`.
    code = "import sys, fockcascade; print('scipy.sparse.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "False"


def identifiers(tree: ast.AST) -> set[str]:
    """Every identifier a module names: read, imported, defined or taken as an
    attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def test_only_the_file_reader_and_the_cli_name_schema_error():
    # The math modules raise their own errors; only the instance-file reader
    # (and the CLI, for its own input errors) reports a schema error.
    naming = {name for name, tree in _modules().items() if "SchemaError" in identifiers(tree)}
    assert naming <= {"errors.py", "__init__.py", "cli.py", "instancefile.py"}


def test_only_the_file_reader_defines_from_dict():
    defining = {
        f"{name}:{node.name}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("from_dict")
    }
    assert {entry.split(":")[0] for entry in defining} <= {"instancefile.py"}, sorted(defining)


def test_guard_sees_an_aliased_or_attribute_name():
    assert "SchemaError" in identifiers(ast.parse("from .errors import SchemaError as E"))
    assert "SchemaError" in identifiers(ast.parse("from . import errors\nerrors.SchemaError"))
