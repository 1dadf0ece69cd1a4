"""Subprocesses started by the tests import relbranch from this checkout's
src/, the same tree pytest imports in-process (pyproject sets pythonpath)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
