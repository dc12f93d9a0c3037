"""Importing the package: the one-thread OpenBLAS pin."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _import_stderr(code: str, threads: str | None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stderr


def test_importing_numpy_first_warns_that_the_pin_cannot_hold():
    err = _import_stderr("import numpy, wg_hp", None)
    assert err.count("RuntimeWarning") == 1
    assert "OPENBLAS_NUM_THREADS" in err and "import wg_hp first" in err


@pytest.mark.parametrize(
    "code, threads", [("import wg_hp", None), ("import numpy, wg_hp", "1")]
)
def test_no_warning_when_the_pin_holds_or_the_variable_is_set(code, threads):
    assert _import_stderr(code, threads) == ""
