"""hp Weak Galerkin solver for two-parameter singularly perturbed problems.

Solves -eps1*u'' + eps2*b*u' + r*u = f on (0,1) with homogeneous Dirichlet
conditions, using a weak Galerkin discretization of degree p on spectral
boundary-layer meshes, and ships the verification harness (manufactured
solutions, reference solutions, convergence studies) that demonstrates
parameter-robust exponential convergence in p.

Importing the package pins OpenBLAS to one thread unless
OPENBLAS_NUM_THREADS is already set: the dense products and solves round
differently at other thread counts, and the CSV outputs are promised
byte-identical across reruns.  OpenBLAS reads the variable once, when numpy
is first imported, so if numpy was imported earlier this has no effect and
the import warns.

The public names load on first use (PEP 562): ``import wg_hp`` imports
neither numpy nor any submodule, and ``wg_hp.solve`` imports
``wg_hp.assembly`` and returns its ``solve``, looked up afresh on each
access rather than stored in this namespace.
"""

import importlib
import os
import sys
import warnings

if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" in sys.modules:
    warnings.warn(
        "numpy was imported before wg_hp, so OPENBLAS_NUM_THREADS=1 cannot take effect "
        "and outputs may change; import wg_hp first or set OPENBLAS_NUM_THREADS=1",
        RuntimeWarning,
    )
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# the public names, by the submodule each is loaded from
_HOMES = {
    "coeffexpr": ("Expr", "differentiate", "evaluate", "parse"),
    "problem": ("MuPair", "ProblemSpec", "Regime", "classify_regime", "compute_mu",
                "model_problem", "validate"),
    "slmesh": ("Mesh", "build_sbl_mesh", "user_mesh"),
    "polybasis": ("ElementPoly", "QuadRule", "gauss_rule", "interpolate", "l2_project",
                  "legendre_eval"),
    "weakspace": ("BrokenPoly", "WeakFunction", "default_penalties", "jump_seminorm",
                  "norm_broken", "norm_p", "stabilizer_S", "stabilizer_Sc",
                  "weak_convection_derivative", "weak_derivative"),
    "assembly": ("AssembledSystem", "DofMap", "assemble", "bilinear_apply", "solve"),
    "verify": ("ConvergenceRecord", "ManufacturedCase", "convergence_study",
               "convergence_sweep", "energy_error", "manufacture", "reference_solution"),
    "checks": ("SuiteResult", "run_check"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # not stored here: wg_hp.forking compares module namespaces to tell
    # whether its forked workers still hold what the caller does
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
