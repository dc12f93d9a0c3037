"""Manufactured solutions, reference solutions, energy-norm errors, the
p-convergence study and the sweep that runs it over many problems.

The reference solution is the weak Galerkin solve at degree 2p on the same
mesh (penalties rescaled to the higher degree), so the difference lives in
one discrete space.

convergence_sweep spreads its (problem, p) cases over the usable CPUs: when
there are at least MIN_SHARE_CASES cases per share, it deals the degrees
into shares and runs all but one share in forked workers (wg_hp.forking).
Each share runs degree by degree: the problems whose meshes have the same
number of elements are assembled and solved together, in stacks of at most
STACK_MAX, by assembly.assemble_stack and solve_stack, whose systems are
bit for bit those of one problem alone; then the stack's errors come from
one weakspace.energy_norms call on its meshes, with each problem's
difference and reference read straight from the solution vectors, bit for
bit energy_error's.  Each case does the same arithmetic in whichever
process and stack runs it, so the records are identical for any worker
count and to convergence_study's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp import coeffexpr as ce
from wg_hp.assembly import DofMap, assemble, assemble_stack, solve, solve_stack
from wg_hp.coeffexpr import Expr, differentiate, evaluate, parse
from wg_hp.forking import run_shares, usable_cpus
from wg_hp.polybasis import interpolant_coefficients, l2_coefficients, quad_order
from wg_hp.problem import ProblemSpec
from wg_hp.slmesh import Mesh, build_sbl_mesh
from wg_hp.weakspace import (
    WeakFunction,
    _jumps,
    check_same_mesh,
    default_penalties,
    element_quadrature,
    energy_norms,
)


class BoundaryValueError(Exception):
    """A manufactured solution does not vanish, or cannot be evaluated, at
    an endpoint."""


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
        try:
            val = evaluate(u, endpoint)
        except ce.EvalDomainError as exc:
            raise BoundaryValueError(
                f"manufactured solution u cannot be evaluated at x={endpoint:g}: {exc}"
            ) from exc
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
    _, _, uv = element_quadrature(mesh.nodes, quad_order(p, nquad), case.u_exact)
    return WeakFunction(mesh, l2_coefficients(uv, p, nquad), evaluate(case.u_exact, mesh.nodes))


def _interpolant(mesh: Mesh, p: int, g, vb, nquad=None) -> WeakFunction:
    """The derivative-orthogonality interpolant of a function, from its
    values g on all elements' quadrature points, shape (N, nq), and vb on
    the nodes; one interpolant_coefficients call for all elements."""
    return WeakFunction(mesh, interpolant_coefficients(g, vb[:-1], vb[1:], p, nquad), vb)


def interpolant_weakfunction(case: ManufacturedCase, mesh: Mesh, p: int, nquad=None) -> WeakFunction:
    """The derivative-orthogonality interpolant of the exact solution as a
    conforming weak function."""
    _, _, uv = element_quadrature(mesh.nodes, quad_order(p, nquad), case.u_exact)
    return _interpolant(mesh, p, uv, evaluate(case.u_exact, mesh.nodes), nquad)


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
    # u and the coefficients on all elements' quadrature points, u once for
    # the interpolant and for its error
    t, w, uv, bv, bpv, rv = element_quadrature(
        mesh.nodes, nq, case.u_exact, prob.b, prob.b_prime, prob.r
    )
    iu = _interpolant(mesh, p, uv, evaluate(case.u_exact, mesh.nodes), nq)
    up = evaluate(case.u_prime, mesh.nodes).tolist()

    # the interpolant's derivative at both ends of every element; the
    # ends map to t = -1 and t = 1 exactly
    scale = 2.0 / mesh.widths
    diu = npleg.legder(iu.coeffs, axis=1) * scale[:, None]
    d_left = npleg.legval(-1.0, diu.T).tolist()
    d_right = npleg.legval(1.0, diu.T).tolist()
    jl, jr = _jumps(coeffs, vb)

    # the interpolant's error, v0 and v0' on all elements' quadrature
    # points at once
    uerr = uv - npleg.legval(t, iu.coeffs.T)
    v0 = npleg.legval(t, np.moveaxis(coeffs, 2, 0))
    dv0 = npleg.legval(t, np.moveaxis(npleg.legder(coeffs, axis=2), 2, 0)) * scale[:, None]
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

    With u_hi the degree-2p reference, relative estimates the true error
    (eps1 ||(u - u0)'||^2 + ||u - u0||^2)^(1/2) over the elements, relative
    to the same norm of the exact u, with u0 u_lo's interior polynomials.
    On the closed-form two-layer case of the tests it is 1.15 to 1.59 times
    that true error, at seven eps pairs in all three regimes and
    p = 4, 8, 16, 24.
    """
    if u_lo.degree > u_hi.degree:
        raise ValueError("u_lo must not have a higher degree than u_hi")
    check_same_mesh(u_hi, u_lo)
    coeffs = np.array([u_hi.coeffs, u_hi.coeffs])
    coeffs[0, :, : u_lo.degree + 1] -= u_lo.coeffs
    vb = np.array([u_hi.vb - u_lo.vb, u_hi.vb])
    sigmas = default_penalties(u_hi.mesh, u_hi.degree, problem.eps1)
    absolute, scale = energy_norms(u_hi.mesh, coeffs, vb, problem, sigmas).tolist()
    return absolute, _relative(absolute, scale)


def _relative(absolute: float, scale: float) -> float:
    """absolute / scale, with 0/0 = 0 and a nonzero error on a zero scale
    infinite."""
    return absolute / scale if scale > 0 else (0.0 if absolute == 0 else np.inf)


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


def case_nquad(p: int, quad_double: bool = False) -> int | None:
    """The nquad of both solves of a convergence case at degree p:
    2*quad_order(p) Gauss points with quad_double, else None (each solve's
    default)."""
    return 2 * quad_order(p) if quad_double else None


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
    points in both solves at degree p.  The one-problem call of the
    degree-by-degree loop that convergence_sweep runs, so a problem's
    records are bit for bit the same alone or in a sweep.
    """
    return _study([problem], p_range, kappa, quad_double)[0]


# The most problems of one degree and element count that are assembled and
# solved as one stack.  Stacking saves the fixed cost of each numpy call,
# but a large stack's arrays outgrow the caches.  Per problem, one degree
# (p and 2p) of a three-element stack cost, against k = 1 (2-vCPU Xeon):
# k = 4 saved 56-60% at p = 4, 21-25% at p = 20 and 0-6% at p = 40,
# while k = 6 or 8 lost from p = 20 on; at p = 64, k = 4 read from 3%
# faster to 20% slower across runs.  BENCH_25.json holds the curves.
STACK_MAX = 4


def _solve_stack(problems, meshes, p: int, nquad) -> np.ndarray:
    """The solution vectors (k, n) at degree p of problems stacked on their
    meshes, numbered as in DofMap.  A stack of one is solved by assemble
    without the stack axis, whose overhead slowed a one-pair study by about
    15%."""
    if len(problems) == 1:
        system = assemble(problems[0], meshes[0], p, nquad=nquad)
        return solve_stack(system.matrix, system.rhs)[None]
    return solve_stack(*assemble_stack(problems, meshes, p, nquad=nquad))


def _energy_errors(problems, meshes, p: int, x_lo, x_hi) -> list:
    """energy_error's (absolute, relative) of each problem of a stack, from
    its solution vectors at p and at 2p: one energy_norms call on each
    problem's difference u_2p - u_p (u_p padded with zero coefficients) and
    its u_2p, read straight from the vectors, bit for bit energy_error's."""
    k, N, q = len(meshes), meshes[0].n_elements, 2 * p + 1
    coeffs = np.empty((k, 2, N, q))
    coeffs[:] = x_hi[:, : N * q].reshape(k, 1, N, q)
    coeffs[:, 0, :, : p + 1] -= x_lo[:, : N * (p + 1)].reshape(k, N, p + 1)
    vb = np.zeros((k, 2, N + 1))
    vb[:, 1, 1:N] = x_hi[:, N * q :]
    vb[:, 0, 1:N] = vb[:, 1, 1:N] - x_lo[:, N * (p + 1) :]
    sigmas = [default_penalties(mesh, 2 * p, prob.eps1) for prob, mesh in zip(problems, meshes)]
    norms = energy_norms(meshes, coeffs, vb, problems, sigmas).tolist()
    return [(absolute, _relative(absolute, scale)) for absolute, scale in norms]


def _stack_errors(problems, meshes, p: int, nquad) -> list:
    """The (err_abs, err_rel) of each problem of a stack, from one stacked
    solve at p, one at 2p and one _energy_errors call, or the exception
    that its own steps raised.  When a stacked step raises, the stack runs
    again one problem at a time, so each failure is its own problem's, with
    the message of its own steps."""
    try:
        x_lo = _solve_stack(problems, meshes, p, nquad)
        x_hi = _solve_stack(problems, meshes, 2 * p, nquad)
        return _energy_errors(problems, meshes, p, x_lo, x_hi)
    except Exception as exc:  # noqa: BLE001 - sweep must not abort
        if len(problems) == 1:
            return [exc]
    return [_stack_errors([prob], [mesh], p, nquad)[0] for prob, mesh in zip(problems, meshes)]


def _degree_outcomes(problems, p: int, kappa: float, quad_double: bool) -> list:
    """The ConvergenceRecord, or the CaseFailure, of each set-up problem at
    degree p: every problem's mesh, then one _stack_errors call per stack
    of at most STACK_MAX problems with the same element count, in problem
    order."""
    nquad = case_nquad(p, quad_double)
    errors, meshes, stacks = [None] * len(problems), [None] * len(problems), {}
    for i, problem in enumerate(problems):
        try:
            meshes[i] = sbl_mesh(problem, p, kappa)
        except Exception as exc:  # noqa: BLE001 - sweep must not abort
            errors[i] = exc
            continue
        stacks.setdefault(meshes[i].n_elements, []).append(i)
    for members in stacks.values():
        for start in range(0, len(members), STACK_MAX):
            stack = members[start : start + STACK_MAX]
            stacked = [problems[i] for i in stack], [meshes[i] for i in stack]
            for i, error in zip(stack, _stack_errors(*stacked, p, nquad)):
                errors[i] = error
    outcomes = []
    for problem, mesh, error in zip(problems, meshes, errors):
        if isinstance(error, Exception):
            outcomes.append(CaseFailure(problem.eps1, problem.eps2, p, str(error)))
            continue
        outcomes.append(
            ConvergenceRecord(
                regime=problem.regime.value,
                eps1=problem.eps1,
                eps2=problem.eps2,
                p=p,
                n_elements=mesh.n_elements,
                dof=DofMap(mesh.n_elements, p).total,
                err_rel=error[1],
                err_abs=error[0],
                ref_degree=2 * p,
            )
        )
    return outcomes


def _study(problems, p_range, kappa: float = 1.0, quad_double: bool = False) -> list:
    """[(records, failures)] of each problem at the degrees of p_range, in
    p_range order, from one _degree_outcomes call per degree.  A problem
    that fails to validate or set up fails at every p, with that message."""
    results = [([], []) for _ in problems]
    ready = []
    for i, problem in enumerate(problems):
        try:
            problem.gamma_hat, problem.mu
        except Exception as exc:  # noqa: BLE001 - sweep must not abort
            eps1, eps2, message = problem.eps1, problem.eps2, str(exc)
            results[i][1].extend(CaseFailure(eps1, eps2, p, message) for p in p_range)
        else:
            ready.append(i)
    for p in p_range:
        outcomes = _degree_outcomes([problems[i] for i in ready], p, kappa, quad_double)
        for i, outcome in zip(ready, outcomes):
            results[i][isinstance(outcome, CaseFailure)].append(outcome)
    return results


# A fresh process forks its workers on its first call, at about 10 ms
# (copying the page tables and the pages both processes then write).  On
# the stacked path a low-p case costs about 0.29 ms (five pairs at
# p = 1..8, one process, 2-vCPU Xeon; 0.51 ms before stacking), so a
# sweep that forks cold breaks even at roughly 40 cases.  Later calls reuse
# the workers at about 0.15 ms a call: warm, one pair at p = 1..8 took
# 2.4 ms on 2 CPUs against 3.3 ms on one, five pairs at p = 1..4 (20
# cases) 4.6 ms either way, and one pair at p = 1..2 lost 0.3 ms.  The
# value stays until a small-sweep workload times both in one benchmark.
MIN_SHARE_CASES = 20


def _workers(n_degrees: int, n_cases: int) -> int:
    """The number of shares convergence_sweep deals n_degrees degrees
    (n_cases cases over all problems) into: forking.usable_cpus(), capped
    at n_degrees and at one per MIN_SHARE_CASES cases."""
    return max(1, min(usable_cpus(), n_degrees, n_cases // MIN_SHARE_CASES))


def convergence_sweep(
    problems,
    p_range,
    kappa: float = 1.0,
    quad_double: bool = False,
) -> tuple[list[ConvergenceRecord], list[CaseFailure]]:
    """convergence_study of every problem at every p of p_range, with the
    cases spread over _workers(len(p_range), len(problems) * len(p_range))
    processes.

    The parent validates and sets up each problem, so that the workers
    receive them set up and warn about none again.  It deals p_range
    round-robin, from the highest p down, into the shares, and runs them
    through forking.run_shares: share 0 itself, each other share in a
    persistent forked worker, which receives the problems pickled and
    builds its own basis tables.  A share runs its degrees one by one: at
    each, the problems whose meshes have the same number of elements are
    assembled and solved as stacks of at most STACK_MAX, at p and at 2p,
    and a stack whose step raises runs again one problem at a time, so
    each failure is recorded for its own case.  A worker that fails raises
    RuntimeError; its share is not rerun.  Records and failures come in
    problem order, then p_range order, bit for bit the same as
    convergence_study's of each problem, for any worker count.  p_range
    must not repeat a degree.
    """
    problems = list(problems)
    p_range = list(p_range)
    if len(set(p_range)) != len(p_range):
        raise ValueError("p_range must not repeat a degree")
    for problem in problems:
        try:
            problem.gamma_hat, problem.mu
        except Exception:  # noqa: BLE001 - _study records it for every p
            pass

    n_shares = _workers(len(p_range), len(problems) * len(p_range))
    shares = [[] for _ in range(n_shares)]
    for i, p in enumerate(sorted(p_range, reverse=True)):
        shares[i % n_shares].append(p)

    results = run_shares(partial(_study, problems, kappa=kappa, quad_double=quad_double), shares)

    rank = {p: i for i, p in enumerate(p_range)}
    records, failures = [], []
    for outcomes in zip(*results):  # one problem's (records, failures) from every share
        records += sorted((rec for recs, _ in outcomes for rec in recs), key=lambda r: rank[r.p])
        failures += sorted((f for _, fails in outcomes for f in fails), key=lambda f: rank[f.p])
    return records, failures
