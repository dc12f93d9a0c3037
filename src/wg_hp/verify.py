"""Manufactured solutions, reference solutions, energy-norm errors and the
p-convergence study.

The reference solution is the weak Galerkin solve at degree 2p on the same
mesh (penalties rescaled to the higher degree), so the difference lives in
one discrete space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp import coeffexpr as ce
from wg_hp.assembly import DofMap, assemble, solve
from wg_hp.coeffexpr import Expr, differentiate, evaluate, parse
from wg_hp.polybasis import gauss_rule, interpolant_coefficients, quad_order
from wg_hp.problem import ProblemSpec
from wg_hp.slmesh import Mesh, build_sbl_mesh
from wg_hp.weakspace import WeakFunction, _jumps, check_same_mesh, default_penalties, energy_norms


class BoundaryValueError(Exception):
    """A manufactured solution does not vanish at both endpoints."""


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with the right-hand side derived symbolically."""

    u_exact: Expr
    u_prime: Expr
    problem: ProblemSpec


def manufacture(u_text: str | Expr, problem: ProblemSpec) -> ManufacturedCase:
    """Attach f = -eps1*u'' + eps2*b*u' + r*u to the given coefficients."""
    u = parse(u_text) if isinstance(u_text, str) else u_text
    for endpoint in (0.0, 1.0):
        val = evaluate(u, endpoint)
        if abs(val) > 1e-13:
            raise BoundaryValueError(
                f"manufactured solution must vanish at x={endpoint:g}, got {val:.3g}"
            )
    du = differentiate(u)
    ddu = differentiate(du)
    f = ce.add(
        ce.add(
            ce.neg(ce.mul(ce.Num(problem.eps1), ddu)),
            ce.mul(ce.Num(problem.eps2), ce.mul(problem.b, du)),
        ),
        ce.mul(problem.r, u),
    )
    spec = ProblemSpec(problem.eps1, problem.eps2, problem.b, problem.r, f, problem.b_prime)
    return ManufacturedCase(u, du, spec)


def exact_weakfunction(case: ManufacturedCase, mesh: Mesh, p: int, nquad=None) -> WeakFunction:
    """Conforming representation of the exact solution (elementwise L2
    projection plus nodal values)."""
    y = ce.as_callable(case.u_exact)
    return WeakFunction.from_callable(mesh, p, y, nquad)


def _interpolant(mesh: Mesh, p: int, g, vb, nquad=None) -> WeakFunction:
    """The derivative-orthogonality interpolant of a function, from its
    values g on all elements' quadrature points, shape (N, nq), and vb on
    the nodes; one interpolant_coefficients call for all elements."""
    return WeakFunction(mesh, interpolant_coefficients(g, vb[:-1], vb[1:], p, nquad), vb)


def interpolant_weakfunction(case: ManufacturedCase, mesh: Mesh, p: int, nquad=None) -> WeakFunction:
    """The derivative-orthogonality interpolant of the exact solution as a
    conforming weak function."""
    rule = gauss_rule(quad_order(p, nquad))
    x, _ = rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    return _interpolant(
        mesh, p, evaluate(case.u_exact, x), evaluate(case.u_exact, mesh.nodes), nquad
    )


def error_equation_terms(
    case: ManufacturedCase, v: WeakFunction, nquad: int | None = None
) -> tuple[float, float, float]:
    """The three consistency-error terms of the discrete error equation by
    quadrature from their definitions; error_equation_values with k = 1."""
    terms, _ = error_equation_values(case, v.mesh, v.coeffs[None], v.vb[None], nquad)
    return tuple(terms[:, 0].tolist())


def error_equation_values(case: ManufacturedCase, mesh: Mesh, coeffs, vb, nquad=None) -> tuple:
    """(terms, iu): the terms (3, k) of error_equation_terms for k test functions
    stacked as for energy_norms, reduced as for k = 1, and the interpolant iu they use."""
    p = coeffs.shape[2] - 1
    prob = case.problem
    nq = quad_order(p, nquad)
    rule = gauss_rule(nq)
    # u on all elements' quadrature points, once for the interpolant and
    # for its error
    x, w = rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    uv = evaluate(case.u_exact, x)
    iu = _interpolant(mesh, p, uv, evaluate(case.u_exact, mesh.nodes), nq)
    up = evaluate(case.u_prime, mesh.nodes).tolist()

    # the interpolant's derivative at both ends of every element; the
    # ends map to t = -1 and t = 1 exactly
    scale = 2.0 / mesh.widths
    diu = npleg.legder(iu.coeffs, axis=1) * scale[:, None]
    d_left = npleg.legval(-1.0, diu.T).tolist()
    d_right = npleg.legval(1.0, diu.T).tolist()
    jl, jr = _jumps(coeffs, vb)

    # the coefficients, the interpolant's error, v0 and v0' on all
    # elements' quadrature points at once
    bv, bpv, rv = (evaluate(e, x) for e in (prob.b, prob.b_prime, prob.r))
    uerr = uv - npleg.legval(rule.nodes, iu.coeffs.T)
    v0 = npleg.legval(rule.nodes, np.moveaxis(coeffs, 2, 0))
    dv0 = npleg.legval(rule.nodes, np.moveaxis(npleg.legder(coeffs, axis=2), 2, 0)) * scale[:, None]
    e2_rows = (w * uerr * (bpv * v0 + bv * dv0)).sum(axis=2)
    e3_rows = (w * rv * (-uerr) * v0).sum(axis=2)
    terms = np.zeros((3, len(coeffs)))
    for j in range(mesh.n_elements):
        ends = (up[j + 1] - d_right[j]) * jr[:, j] - (up[j] - d_left[j]) * jl[:, j]
        terms += [prob.eps1 * ends, prob.eps2 * e2_rows[:, j], e3_rows[:, j]]
    return terms, iu


def reference_solution(
    problem: ProblemSpec, mesh: Mesh, p: int, nquad: int | None = None
) -> WeakFunction:
    """Weak Galerkin solve at degree 2p on the same mesh, used as the error
    reference."""
    return solve(assemble(problem, mesh, 2 * p, nquad=nquad))


def energy_error(
    u_hi: WeakFunction, u_lo: WeakFunction, problem: ProblemSpec
) -> tuple[float, float]:
    """Broken energy-norm difference between the reference and the
    approximation, with the default penalties at the higher degree.

    Returns (absolute, relative); relative is against the norm of u_hi.
    Both norms are norm_broken's, bit for bit, of u_hi - u_lo (u_lo padded
    with zero coefficients to u_hi's degree) and of u_hi, from one call of
    the stacked kernel.
    """
    if u_lo.degree > u_hi.degree:
        raise ValueError("u_lo must not have a higher degree than u_hi")
    check_same_mesh(u_hi, u_lo)
    coeffs = np.array([u_hi.coeffs, u_hi.coeffs])
    coeffs[0, :, : u_lo.degree + 1] -= u_lo.coeffs
    vb = np.array([u_hi.vb - u_lo.vb, u_hi.vb])
    sigmas = default_penalties(u_hi.mesh, u_hi.degree, problem.eps1)
    absolute, scale = energy_norms(u_hi.mesh, coeffs, vb, problem, sigmas).tolist()
    relative = absolute / scale if scale > 0 else (0.0 if absolute == 0 else np.inf)
    return absolute, relative


@dataclass(frozen=True)
class ConvergenceRecord:
    regime: str
    eps1: float
    eps2: float
    p: int
    n_elements: int
    dof: int
    err_rel: float  # fraction, not percent
    err_abs: float
    ref_degree: int
    wall_ms: float


@dataclass(frozen=True)
class CaseFailure:
    eps1: float
    eps2: float
    p: int
    message: str


def sbl_mesh(problem: ProblemSpec, p: int, kappa: float = 1.0) -> Mesh:
    """The layer-adapted mesh at degree p, from the regime and mu that the
    problem computes once."""
    return build_sbl_mesh(problem.regime, kappa, p, mu=problem.mu, eps1=problem.eps1)


def solve_on_sbl_mesh(problem: ProblemSpec, p: int, kappa: float = 1.0, nquad=None):
    """Validate, build the layer-adapted mesh, and solve; returns
    (regime, mesh, solution).  The problem is validated and set up once,
    on its first solve."""
    problem.gamma_hat  # validates, or raises AssumptionError
    mesh = sbl_mesh(problem, p, kappa)
    u_p = solve(assemble(problem, mesh, p, nquad=nquad))
    return problem.regime, mesh, u_p


def convergence_study(
    problem: ProblemSpec,
    p_range,
    kappa: float = 1.0,
    quad_double: bool = False,
) -> tuple[list[ConvergenceRecord], list[CaseFailure]]:
    """Solve at each p of p_range, compute the degree-2p reference, and
    record relative energy errors in p_range order; per-case failures are
    collected, not raised.  The problem is validated and set up once per
    instance (see ProblemSpec); quad_double uses 2*quad_order(p) Gauss
    points in both solves at degree p.
    """
    eps1, eps2 = problem.eps1, problem.eps2
    records: list[ConvergenceRecord] = []
    failures: list[CaseFailure] = []
    try:
        # validate and set up once: a failure here fails every p
        problem.gamma_hat, problem.mu
    except Exception as exc:  # noqa: BLE001 - sweep must not abort
        return records, [CaseFailure(eps1, eps2, p, str(exc)) for p in p_range]
    for p in p_range:
        start = time.perf_counter()
        try:
            nquad = 2 * quad_order(p) if quad_double else None
            mesh = sbl_mesh(problem, p, kappa)
            u_p = solve(assemble(problem, mesh, p, nquad=nquad))
            u_ref = reference_solution(problem, mesh, p, nquad=nquad)
            err_abs, err_rel = energy_error(u_ref, u_p, problem)
            wall_ms = (time.perf_counter() - start) * 1e3
            records.append(
                ConvergenceRecord(
                    regime=problem.regime.value,
                    eps1=eps1,
                    eps2=eps2,
                    p=p,
                    n_elements=mesh.n_elements,
                    dof=DofMap(mesh.n_elements, p).total,
                    err_rel=err_rel,
                    err_abs=err_abs,
                    ref_degree=2 * p,
                    wall_ms=wall_ms,
                )
            )
        except Exception as exc:  # noqa: BLE001 - sweep must not abort
            failures.append(CaseFailure(eps1, eps2, p, str(exc)))
    return records, failures
