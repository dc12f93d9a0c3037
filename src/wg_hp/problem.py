"""The continuous two-parameter boundary-value problem.

-eps1*u'' + eps2*b(x)*u'(x) + r(x)*u(x) = f(x) on (0,1), u(0) = u(1) = 0,
with 0 < eps1, eps2 <= 1, b > 0, r >= 0 and r - eps2*b'/2 >= gamma > 0.
Characteristic roots give the layer-strength parameters mu0 <= mu1, and
(eps1, eps2) selects one of three asymptotic regimes, of which the mesh
builder tells only convection-diffusion apart.
"""

from __future__ import annotations

import enum
import warnings
from functools import cached_property

import numpy as np

from wg_hp._frozen import Frozen
from wg_hp.coeffexpr import EvalDomainError, Expr, differentiate, evaluate, parse


class AssumptionError(Exception):
    """A positivity/gamma assumption failed at a sample point."""


class Regime(enum.Enum):
    CONVECTION_DIFFUSION = "convection-diffusion"
    REACTION_CONVECTION_DIFFUSION = "reaction-convection-diffusion"
    REACTION_DIFFUSION = "reaction-diffusion"


class ProblemSpec(Frozen):
    """Coefficients and parameters of the continuous problem on (0,1);
    b_prime is derived from b when omitted."""

    _fields = ("eps1", "eps2", "b", "r", "f", "b_prime")

    def __init__(self, eps1: float, eps2: float, b: Expr, r: Expr, f: Expr,
                 b_prime: Expr | None = None):
        if not 0 < eps1 <= 1:
            raise ValueError(f"eps1 must lie in (0,1], got {eps1!r}")
        if not 0 < eps2 <= 1:
            raise ValueError(f"eps2 must lie in (0,1], got {eps2!r}")
        if b_prime is None:
            b_prime = differentiate(b)
        vars(self).update(eps1=eps1, eps2=eps2, b=b, r=r, f=f, b_prime=b_prime)

    @classmethod
    def from_strings(cls, eps1: float, eps2: float, b: str, r: str, f: str) -> "ProblemSpec":
        return cls(eps1, eps2, parse(b), parse(r), parse(f))

    # The set-up depends only on the problem, so each instance computes it
    # once; the constructor gives a fresh instance with a fresh set-up.
    # cached_property caches no exception: a failing validate raises on
    # every access.

    @cached_property
    def gamma_hat(self) -> float:
        """validate(self): the sampled minimum of r - eps2*b'/2."""
        return validate(self)

    @cached_property
    def regime(self) -> Regime:
        return classify_regime(self.eps1, self.eps2)

    @cached_property
    def mu(self) -> MuPair | None:
        """compute_mu(self) where the mesh reads it (every regime but
        convection-diffusion), else None."""
        if self.regime is Regime.CONVECTION_DIFFUSION:
            return None
        return compute_mu(self)


def model_problem(eps1: float, eps2: float) -> ProblemSpec:
    """-eps1*u'' + eps2*cos(x)*u' + (1+x)*u = exp(x), the stock test case."""
    return ProblemSpec.from_strings(eps1, eps2, "cos(x)", "1+x", "exp(x)")


def _sample_grid(samples: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, samples)


def _sample(name: str, expr: Expr, x: np.ndarray) -> np.ndarray:
    """expr on the grid x; a domain error names the coefficient."""
    try:
        return evaluate(expr, x)
    except EvalDomainError as exc:
        raise AssumptionError(f"coefficient {name}(x) cannot be evaluated on [0, 1]: {exc}") from exc


def validate(spec: ProblemSpec) -> float:
    """Check that b, b' and r are defined and finite, and b > 0, r >= 0
    and r - eps2*b'/2 > 0, on a 257-point grid that includes both ends, and
    that f is defined and finite on the grid's interior points.

    Returns gamma_hat, the sampled minimum of r - eps2*b'/2.  Sampled, not
    proved: a hard error on violation, a warning when gamma_hat is barely
    positive.
    """
    x = _sample_grid(257)
    # a coefficient that overflows is rejected below, by name, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bv = _sample("b", spec.b, x)
        rv = _sample("r", spec.r, x)
        bpv = _sample("b'", spec.b_prime, x)
        # f enters only through the Gauss points, which never reach an end
        # point, so an f singular only there (log(x), a manufactured
        # x^alpha solution's) is left to the solve
        fv = _sample("f", spec.f, x[1:-1])
        gv = rv - spec.eps2 * bpv / 2.0
    for name, grid, vals in (("b", x, bv), ("b'", x, bpv), ("r", x, rv), ("f", x[1:-1], fv)):
        finite = np.isfinite(vals)
        if not np.all(finite):
            i = int(np.argmin(finite))
            raise AssumptionError(
                f"coefficient {name}(x) is not finite at x = {grid[i]:.6g} (value {vals[i]:.6g})"
            )
    for name, vals, ok in (
        ("b(x) > 0", bv, bv > 0),
        ("r(x) >= 0", rv, rv >= 0),
        ("r - eps2*b'/2 > 0", gv, gv > 0),
    ):
        if not np.all(ok):
            i = int(np.argmin(ok))
            raise AssumptionError(
                f"assumption {name} violated at x = {x[i]:.6g} (value {vals[i]:.6g})"
            )
    gamma_hat = float(np.min(gv))
    if gamma_hat < 1e-8:
        warnings.warn(
            f"gamma_hat = {gamma_hat:.3g} is barely positive for eps1 = "
            f"{spec.eps1:g}, eps2 = {spec.eps2:g}; the problem is close to "
            "losing unique solvability",
            stacklevel=2,
        )
    return gamma_hat


class MuPair(Frozen):
    """Characteristic-root parameters; mu0 measures the layer at x=0 and
    mu1 the (stronger) layer at x=1."""

    _fields = ("mu0", "mu1")

    def __init__(self, mu0: float, mu1: float):
        if not 0 < mu0 <= mu1 * (1 + 1e-12):
            raise ValueError("need 0 < mu0 <= mu1")
        vars(self).update(mu0=mu0, mu1=mu1)


def _mu_values(spec: ProblemSpec, x: np.ndarray):
    bv = evaluate(spec.b, x)
    rv = evaluate(spec.r, x)
    root = np.sqrt((spec.eps2 * bv) ** 2 + 4.0 * spec.eps1 * rv)
    lam0 = (-spec.eps2 * bv + root) / (2.0 * spec.eps1)
    lam1 = (spec.eps2 * bv + root) / (2.0 * spec.eps1)
    return lam0, lam1


def compute_mu(spec: ProblemSpec, samples: int = 2049) -> MuPair:
    """Minimize the characteristic-root expressions over a sample grid,
    with one refinement pass around each argmin."""
    x = _sample_grid(samples)
    lam0, lam1 = _mu_values(spec, x)
    mus = []
    for lam in (lam0, lam1):
        i = int(np.argmin(lam))
        lo = x[max(i - 1, 0)]
        hi = x[min(i + 1, samples - 1)]
        xr = np.linspace(lo, hi, 129)
        l0r, l1r = _mu_values(spec, xr)
        refined = l0r if lam is lam0 else l1r
        mus.append(min(float(np.min(lam)), float(np.min(refined))))
    return MuPair(mus[0], mus[1])


# Thresholds are declared conventions; the continuous relations between
# eps1 and eps2 are asymptotic and carry no crisp numeric boundary.  Only
# CD_EPS2_THRESHOLD picks a mesh; RCD_RATIO just labels the regime.
CD_EPS2_THRESHOLD = 0.9
RCD_RATIO = 10.0


def classify_regime(eps1: float, eps2: float) -> Regime:
    if not (0 < eps1 <= 1 and 0 < eps2 <= 1):
        raise ValueError(f"eps1, eps2 must lie in (0,1], got eps1={eps1!r}, eps2={eps2!r}")
    if eps2 > CD_EPS2_THRESHOLD:
        return Regime.CONVECTION_DIFFUSION
    if eps1 <= eps2**2 / RCD_RATIO:
        return Regime.REACTION_CONVECTION_DIFFUSION
    return Regime.REACTION_DIFFUSION
