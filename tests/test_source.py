"""Checks on the package source itself, with the standard library only."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "teamlogic"
BENCH = SRC.parents[1] / "bench"


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


def _reads(node):
    """Counts of the names read anywhere under node, as names or attributes."""
    reads = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
    return reads


def _unread_public_names(modules, readers, exported):
    """(module, name) for each public module-level function or class of
    `modules` that no tree of `modules` or `readers` reads outside its own
    definition and that is not in `exported`."""
    reads = sum((_reads(tree) for tree in [*modules.values(), *readers]),
                collections.Counter())
    return sorted((module, node.name) for module, tree in modules.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in exported
                  and reads[node.name] == _reads(node)[node.name])


def test_unread_public_names_are_detected():
    modules = {"a": ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n\n"
                              "def g():\n    pass\n\ndef _h():\n    pass\n"),
               "b": ast.parse("from a import C\n\ndef k():\n    return C\n")}
    readers = [ast.parse("import a\n\na.g()\n")]
    assert _unread_public_names(modules, readers, set()) == [("a", "f"), ("b", "k")]
    assert _unread_public_names(modules, readers, {"f", "k"}) == []


def test_every_public_name_is_read_or_exported():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readers = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    exported = {alias.asname or alias.name for node in modules["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert _unread_public_names(modules, readers, exported) == []


def test_importing_the_cli_loads_no_dataclasses():
    # node classes read their fields off their annotations; the import of
    # every command pays for no dataclass machinery
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, teamlogic.cli; print(sorted({'dataclasses'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
