"""Every module imports on its own: no import cycle between the modules
that define the run config, the clients and the pipeline."""

from __future__ import annotations

import importlib.util
import os
import pkgutil
import subprocess
import sys

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
