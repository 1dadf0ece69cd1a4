"""Subprocesses started by the tests import relbranch from this checkout's
src/, the same tree pytest imports in-process (pyproject sets pythonpath).

HYPOTHESIS_PROFILE=ci, as CI sets it, loads the profile "ci": ten times the
examples, so that the sweep of test_direct_parse_agrees_on_edited_command_lines
meets the argparse of each CI interpreter on more command lines, and, as
Hypothesis's own CI profile does, no deadline and one fixed sequence of
examples per run."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)

settings.register_profile("ci", max_examples=1000, deadline=None, derandomize=True, database=None)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
