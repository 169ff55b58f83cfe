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
    # The CLI and every experiment start without paying for scipy's import.
    code = "import sys, fadetrack.cli; assert 'scipy' not in sys.modules, 'scipy'"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_moment_ensemble_runs_without_scipy():
    # The ensemble's fading windows and the theoretical autocorrelation take J0
    # from numpy, so neither loads scipy.
    code = "\n".join([
        "import sys, fadetrack",
        "scenario = fadetrack.ChannelScenario(users=2, gain=8, paths=2, snr_db=10.0,",
        "                                     fading_rate=0.01)",
        "fadetrack.estimate_moment_matrices(scenario, 1000, seed=1)",
        "fadetrack.clarke_autocorrelation(0.01, 3)",
        "assert 'scipy' not in sys.modules, 'scipy'",
    ])
    subprocess.run([sys.executable, "-c", code], check=True)
