"""Importing the package: the one-thread OpenBLAS pin, and what a fresh
interpreter loads for each use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python(code: str, threads: str | None = None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def _import_stderr(code: str, threads: str | None) -> str:
    return _python(code, threads).stderr


def test_importing_numpy_first_warns_that_the_pin_cannot_hold():
    err = _import_stderr("import numpy, wg_hp", None)
    assert err.count("RuntimeWarning") == 1
    assert "OPENBLAS_NUM_THREADS" in err and "import wg_hp first" in err


@pytest.mark.parametrize(
    "code, threads", [("import wg_hp", None), ("import numpy, wg_hp", "1")]
)
def test_no_warning_when_the_pin_holds_or_the_variable_is_set(code, threads):
    assert _import_stderr(code, threads) == ""


def _loaded_after(code: str) -> set:
    """The wg_hp submodules, and numpy if loaded, in sys.modules after a
    fresh interpreter runs code."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('wg_hp.') or m == 'numpy')))"
    )
    return set(json.loads(_python(code + report).stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import wg_hp") == set()


# the public names, pinned so that one only the tests call cannot be
# exported unnoticed
PUBLIC = {
    "AssembledSystem", "BrokenPoly", "ConvergenceRecord", "DofMap", "ElementPoly", "Expr",
    "ManufacturedCase", "Mesh", "MuPair", "ProblemSpec", "QuadRule", "Regime", "SuiteResult",
    "WeakFunction", "assemble", "bilinear_apply", "build_sbl_mesh", "classify_regime",
    "compute_mu", "convergence_study", "convergence_sweep", "default_penalties",
    "differentiate", "energy_error", "evaluate", "gauss_rule", "interpolate", "jump_seminorm",
    "l2_project", "legendre_eval", "manufacture", "model_problem", "norm_broken", "norm_p",
    "parse", "reference_solution", "run_check", "solve", "stabilizer_S", "stabilizer_Sc",
    "validate", "weak_convection_derivative", "weak_derivative",
}


def test_the_public_names_are_pinned():
    import wg_hp

    assert sorted(wg_hp.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves_on_first_use_and_is_not_stored():
    code = (
        "import wg_hp\n"
        "from wg_hp import *\n"
        "missing = [n for n in wg_hp.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert set(wg_hp.__all__) <= set(dir(wg_hp))\n"
        "assert not set(wg_hp.__all__) & set(vars(wg_hp))\n"
        "assert wg_hp.solve is wg_hp.assembly.solve\n"
    )
    loaded = _loaded_after(code)
    assert {"wg_hp.checks", "wg_hp.forking", "numpy"} <= loaded
    with pytest.raises(subprocess.CalledProcessError):
        _python("import wg_hp; wg_hp.no_such_name")


def test_the_high_degree_calls_load_no_checks_cli_plot_or_workers():
    code = (
        "from wg_hp.problem import model_problem\n"
        "from wg_hp.verify import energy_error, exact_weakfunction, manufacture,"
        " solve_on_sbl_mesh\n"
        "case = manufacture('x*(1-x)', model_problem(1e-6, 1.0))\n"
        "_, mesh, u_p = solve_on_sbl_mesh(case.problem, 8)\n"
        "energy_error(exact_weakfunction(case, mesh, 8), u_p, case.problem)\n"
    )
    loaded = _loaded_after(code)
    assert "wg_hp.verify" in loaded
    assert not loaded & {"wg_hp.checks", "wg_hp.cli", "wg_hp.svgplot", "wg_hp.forking"}


@pytest.mark.parametrize("svg", [False, True])
def test_a_convergence_run_loads_the_plot_only_for_svg(tmp_path, svg):
    argv = ["convergence", "--p-range", "1..2", "--out", str(tmp_path / "c.csv")]
    if svg:
        argv += ["--svg", str(tmp_path / "c.svg")]
    loaded = _loaded_after(f"from wg_hp.cli import main\nassert main({argv!r}) == 0")
    assert "wg_hp.checks" not in loaded
    assert ("wg_hp.svgplot" in loaded) == svg
