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
"""

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

from wg_hp.coeffexpr import Expr, differentiate, evaluate, parse
from wg_hp.problem import (
    MuPair,
    ProblemSpec,
    Regime,
    classify_regime,
    compute_mu,
    model_problem,
    validate,
)
from wg_hp.slmesh import Mesh, build_sbl_mesh, user_mesh
from wg_hp.polybasis import ElementPoly, QuadRule, gauss_rule, interpolate, l2_project, legendre_eval
from wg_hp.weakspace import (
    BrokenPoly,
    WeakFunction,
    default_penalties,
    jump_seminorm,
    norm_broken,
    norm_p,
    stabilizer_S,
    stabilizer_Sc,
    weak_convection_derivative,
    weak_derivative,
)
from wg_hp.assembly import AssembledSystem, DofMap, assemble, bilinear_apply, solve
from wg_hp.verify import (
    ConvergenceRecord,
    ManufacturedCase,
    convergence_study,
    energy_error,
    manufacture,
    reference_solution,
)
from wg_hp.checks import SuiteResult, run_check

__all__ = [
    "AssembledSystem",
    "BrokenPoly",
    "ConvergenceRecord",
    "DofMap",
    "ElementPoly",
    "Expr",
    "ManufacturedCase",
    "Mesh",
    "MuPair",
    "ProblemSpec",
    "QuadRule",
    "Regime",
    "WeakFunction",
    "assemble",
    "bilinear_apply",
    "build_sbl_mesh",
    "classify_regime",
    "compute_mu",
    "convergence_study",
    "default_penalties",
    "differentiate",
    "energy_error",
    "evaluate",
    "gauss_rule",
    "interpolate",
    "jump_seminorm",
    "l2_project",
    "legendre_eval",
    "manufacture",
    "model_problem",
    "norm_broken",
    "norm_p",
    "parse",
    "reference_solution",
    "run_check",
    "solve",
    "stabilizer_S",
    "SuiteResult",
    "stabilizer_Sc",
    "user_mesh",
    "validate",
    "weak_convection_derivative",
    "weak_derivative",
]

__version__ = "0.1.0"
