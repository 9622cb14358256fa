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


def test_importing_the_cli_loads_no_dataclasses():
    # node classes read their fields off their annotations; the import of
    # every command pays for no dataclass machinery
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, teamlogic.cli; print(sorted({'dataclasses'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
