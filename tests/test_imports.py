"""Every module imports on its own: no import cycle between the modules
that define the run config, the clients and the pipeline.  A run with
only stub clients does not import the HTTP clients.  No module keeps an
import it never uses."""

from __future__ import annotations

import ast
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

# Found without importing the package, so a cycle fails the tests below
# instead of their collection.
_PACKAGE_PATH = importlib.util.find_spec("coderag").submodule_search_locations
MODULES = ["coderag"] + sorted(f"coderag.{m.name}" for m in pkgutil.iter_modules(_PACKAGE_PATH))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_all_stub_clients_do_not_load_the_http_stack():
    code = (
        "import sys\n"
        "import coderag.cli\n"
        "from coderag.config import RunConfig, make_clients\n"
        "make_clients(RunConfig())\n"
        "http_stack = ('coderag.wire', 'http.client', 'urllib.request')\n"
        "print(sorted(m for m in http_stack if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("CODERAG_LM_ENDPOINT", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def module_imports(tree: ast.Module) -> list[ast.stmt]:
    """Import statements outside functions and classes, including those
    under a module-level ``if`` (``TYPE_CHECKING``) or ``try``."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif isinstance(node, (ast.If, ast.Try)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references; names listed in
    ``__all__`` count as references (re-exports)."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for stmt in module_imports(tree)
        if not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
        for alias in stmt.names
    ]
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", sorted(Path(_PACKAGE_PATH[0]).glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_unused_import_check_finds_leftovers():
    source = (
        "from typing import TYPE_CHECKING, Protocol\n"
        "import os.path\n"
        "from .a import b as c, d\n"
        "if TYPE_CHECKING:\n"
        "    from .e import F\n"
        "__all__ = ['d']\n"
        "def f(x: c) -> None:\n"
        "    import json\n"
    )
    assert unused_imports(source) == ["F", "Protocol", "os"]
