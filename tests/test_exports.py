"""Every exported name resolves (each module's ``__all__`` and the package's imports), and the
package imports without scipy."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fadetrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(fadetrack.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"fadetrack.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_imports_exist():
    tree = ast.parse(Path(fadetrack.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"fadetrack.{module_name}")
        assert getattr(fadetrack, name) is getattr(module, name), name


def test_engine_imports_without_scipy():
    # Only the theoretical fading autocorrelation needs scipy; the CLI and
    # every experiment start without paying for its import.
    code = "import sys, fadetrack.cli; assert 'scipy' not in sys.modules, 'scipy'"
    subprocess.run([sys.executable, "-c", code], check=True)
