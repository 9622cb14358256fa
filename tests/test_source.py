"""Checks on the package source itself, with the standard library only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "teamlogic"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_detected():
    tree = ast.parse("import os\nfrom re import sub, match\n\ndef f():\n    return match\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "sub")]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ imports in order to re-export
    found = {path.name: _unused_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def _private_definitions(tree):
    """The module-level private functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(t.id for t in ast.walk(target) if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _dead_private_names(trees):
    """(module, name) for each private definition that no module reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, tree in trees.items()
                  for name in _private_definitions(tree) - read)


def test_dead_private_names_are_detected():
    trees = {"a": ast.parse("_kept = 1\n_dead, _x = 2, 3\n\ndef _f():\n    return _x\n\n"
                            "class _C:\n    pass\n\ndef __getattr__(name):\n    pass\n"),
             "b": ast.parse("import a\n\nprint(a._kept)\n")}
    assert _dead_private_names(trees) == [("a", "_C"), ("a", "_dead"), ("a", "_f")]


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _dead_private_names(trees) == []


def test_importing_the_cli_loads_no_dataclasses():
    # node classes read their fields off their annotations; the import of
    # every command pays for no dataclass machinery
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, teamlogic.cli; print(sorted({'dataclasses'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
