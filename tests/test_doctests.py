"""Run every module's doctests — the documented examples must stay true —
and import each module with no other ``repro`` module loaded."""

from __future__ import annotations

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _all_modules():
    names = []
    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if modinfo.name.endswith("__main__"):
            continue  # executing it runs the CLI
        names.append(modinfo.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module_name}"


def test_doctest_coverage_nontrivial():
    """The library documents itself: a healthy number of runnable examples."""
    attempted = 0
    for name in _all_modules():
        module = importlib.import_module(name)
        attempted += doctest.testmod(module, verbose=False).attempted
    assert attempted >= 60


_IMPORT_EACH_FIRST = """
import importlib, sys, traceback
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        print(name + ": " + traceback.format_exc().strip().splitlines()[-1])
"""


def test_every_module_imports_first():
    """Each module imports when it is the first ``repro`` module loaded.

    The doctests above import every module in one process, after earlier
    modules have loaded their dependencies, so an import cycle that only a
    first import walks into passes there unseen.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH_FIRST, *_all_modules()],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "", f"modules that fail as the first import:\n{result.stdout}"
