"""Let the CLI subprocesses started by the tests import the in-tree package.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the test process's
``sys.path`` only; a child ``python -m fadetrack.cli`` reads
``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part)
