"""The named test cases that more than one test reads: the unit problem,
the criterion-6 eps pairs, the manufactured layer and oscillation cases,
and the closed-form two-layer case with the true error against it.

A closed-form case's solution is a function of points held as (x, 1 - x)
pairs, so a layer at x = 1 is evaluated in its distance to x = 1 and not
through the rounding of 1 - x, which near 1 is 1.1e-16 apart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp.problem import ProblemSpec

# eps1 = eps2 = 1 with b = r = f = 1
UNIT = ProblemSpec.from_strings(1.0, 1.0, "1", "1", "1")

# the (eps1, eps2) grid of acceptance criterion 6: one convection-diffusion,
# two reaction-convection-diffusion and two reaction-diffusion pairs
CRITERION_6_PAIRS = [(1e-8, 1.0), (1e-8, 1e-3), (1e-6, 1e-2), (1e-6, 1e-6), (1e-4, 1e-5)]


def outflow_layer(d: float) -> str:
    """x with a layer of width d at the outflow end x = 1."""
    return f"x - (exp(-(1-x)/{d!r}) - exp(-1/{d!r}))/(1 - exp(-1/{d!r}))"


def two_sided_layer(s: float) -> str:
    """1 with a layer of width s at both ends."""
    return f"1 - (exp(-x/{s!r}) + exp(-(1-x)/{s!r}))/(1 + exp(-1/{s!r}))"


# (name, eps1, eps2, exact solution) on the stock b = cos(x), r = 1 + x:
# five layers of the width each regime predicts, then two oscillations
LAYER_CASES = (
    ("cd-layer", 1e-6, 1.0, outflow_layer(1e-6)),
    ("rd-layer", 1e-8, 1e-4, two_sided_layer(1e-4)),
    ("rcd-layer-a", 1e-8, 1e-3, outflow_layer(1e-5)),
    ("rcd-layer-b", 1e-6, 1e-2, outflow_layer(1e-4)),
    ("rcd-layer-c", 1e-5, 1e-2, outflow_layer(1e-3)),
    ("rd-osc", 1e-8, 1e-4, "sin(20*3.141592653589793*x)"),
    ("cd-osc", 1e-6, 1.0, "sin(20*3.141592653589793*x)"),
)

# (eps1, eps2) pairs of the two-layer family in all three regimes:
# convection-diffusion, reaction-convection-diffusion and reaction-diffusion
TWO_LAYER_PAIRS = [(1e-8, 1.0), (1e-6, 1e-2), (1e-9, 0.1), (1e-8, 1e-8),
                   (1e-4, 1e-5), (1e-6, 1e-6), (1e-8, 1e-3)]

# the rate grid of the two-layer family, 25 pairs: eps1 and eps2 each on
# np.logspace(-10, 0, 5), that is 1e-10, 3.2e-8, 1e-5, 3.2e-3 and 1
RATE_PAIRS = list(itertools.product(np.logspace(-10, 0, 5).tolist(), repeat=2))

# the true-error quadrature: a grading of ratio 1/4 toward both ends, down
# to GRADING_MIN from either end, and p + EXTRA_POINTS Gauss points on each
# piece: at p <= 24 on TWO_LAYER_PAIRS it agreed with 120 points a piece
# to 4e-8 relative
GRADING_RATIO = 0.25
GRADING_MIN = 1e-14
EXTRA_POINTS = 10


@dataclass(frozen=True)
class TwoLayerCase:
    """-eps1 u'' + eps2 u' + u = 1 with u(0) = u(1) = 0, solved by
    u = 1 + a exp(-mu0 x) + b exp(-mu1 (1 - x))."""

    problem: ProblemSpec
    mu0: float
    mu1: float
    a: float
    b: float

    def u(self, x, xc):
        return 1.0 + self.a * np.exp(-self.mu0 * x) + self.b * np.exp(-self.mu1 * xc)

    def du(self, x, xc):
        left, right = self.a * np.exp(-self.mu0 * x), self.b * np.exp(-self.mu1 * xc)
        return self.mu1 * right - self.mu0 * left


def two_layer_case(eps1: float, eps2: float) -> TwoLayerCase:
    """The two-layer case: b = r = f = 1, whose characteristic roots are
    -mu0 and mu1 with s = sqrt(eps2^2 + 4 eps1), mu0 = 2/(eps2 + s) and
    mu1 = (eps2 + s)/(2 eps1); a and b solve the two boundary conditions."""
    s = math.sqrt(eps2**2 + 4.0 * eps1)
    mu0, mu1 = 2.0 / (eps2 + s), (eps2 + s) / (2.0 * eps1)
    e0, e1 = math.exp(-mu0), math.exp(-mu1)
    det = 1.0 - e0 * e1
    problem = ProblemSpec.from_strings(eps1, eps2, "1", "1", "1")
    return TwoLayerCase(problem, mu0, mu1, -(1.0 - e1) / det, -(1.0 - e0) / det)


def _graded_pieces(nodes) -> list:
    """The breakpoints of the mesh nodes and of the grading, as sorted
    (x, 1 - x) pairs; each grading point near 1 is exact in 1 - x."""
    grading = [0.5]
    while grading[-1] * GRADING_RATIO >= GRADING_MIN:
        grading.append(grading[-1] * GRADING_RATIO)
    pairs = {(g, 1.0 - g) for g in grading} | {(1.0 - g, g) for g in grading}
    pairs |= {(x, 1.0 - x) for x in nodes.tolist()}
    return sorted(pairs, key=lambda pair: (pair[0], -pair[1]))


def true_energy_error(case: TwoLayerCase, mesh, coeffs) -> float:
    """(eps1 ||(u - u0)'||^2 + ||u - u0||^2)^(1/2) over the elements of mesh,
    relative to the same norm of u, where u0 has the interior Legendre
    coefficients coeffs (N, p+1).  Each piece between breakpoints of the
    mesh and of the grading takes p + EXTRA_POINTS Gauss points."""
    p = coeffs.shape[1] - 1
    t, w = npleg.leggauss(p + EXTRA_POINTS)
    eps1 = case.problem.eps1
    nodes = mesh.nodes.tolist()
    err_sq = norm_sq = 0.0
    breaks = _graded_pieces(mesh.nodes)
    for (xa, ca), (xb, cb) in zip(breaks, breaks[1:]):
        # the width, and the points, in whichever of x and 1 - x is exact
        h = xb - xa if xa < 0.5 else ca - cb
        x = xa + 0.5 * h * (1.0 + t)
        xc = ca - 0.5 * h * (1.0 + t)
        j = max(i for i in range(len(nodes) - 1) if nodes[i] <= xa)
        lo, hi = nodes[j], nodes[j + 1]
        width = hi - lo
        # the element's reference coordinate, from the end nearer the piece
        tj = 2.0 * (x - lo) / width - 1.0 if xa < 0.5 else 1.0 - 2.0 * (xc - (1.0 - hi)) / width
        u0 = npleg.legval(tj, coeffs[j])
        du0 = npleg.legval(tj, npleg.legder(coeffs[j])) * (2.0 / width)
        u, du = case.u(x, xc), case.du(x, xc)
        scale = 0.5 * h * w
        err_sq += float(np.sum(scale * (eps1 * (du - du0) ** 2 + (u - u0) ** 2)))
        norm_sq += float(np.sum(scale * (eps1 * du**2 + u**2)))
    return math.sqrt(err_sq / norm_sq)
