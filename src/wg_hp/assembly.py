"""DOF numbering, assembly of the weak Galerkin bilinear form, and the
direct solve.

Unknowns are the N*(p+1) interior Legendre coefficients plus the N-1
interior node values; the boundary node values are eliminated exactly
(v_b at 0 and 1 is constrained to zero, not penalized).  Meshes have at
most three elements, so a dense factorization is all that is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp.coeffexpr import evaluate
from wg_hp.polybasis import basis_tables, gauss_rule, quad_order
from wg_hp.problem import ProblemSpec
from wg_hp.slmesh import Mesh
from wg_hp.weakspace import (
    WeakFunction,
    _alt_signs,
    _check_compatible,
    default_penalties,
    deriv_pairing_matrix,
    stabilizer_S,
    stabilizer_Sc,
    weak_convection_derivative,
    weak_derivative,
)


class SingularSystemError(Exception):
    """The assembled matrix could not be factorized or solved accurately."""


@dataclass(frozen=True)
class DofMap:
    """Global numbering: element coefficient blocks first, then interior
    node values."""

    n_elements: int
    degree: int

    @property
    def total(self) -> int:
        return self.n_elements * (self.degree + 1) + self.n_elements - 1

    def coeff_index(self, j: int, k: int) -> int:
        return j * (self.degree + 1) + k

    def node_index(self, node: int) -> int | None:
        """Global index of v_b at the given mesh node; None for the
        eliminated boundary nodes."""
        if node == 0 or node == self.n_elements:
            return None
        return self.n_elements * (self.degree + 1) + node - 1


@dataclass(frozen=True)
class AssembledSystem:
    matrix: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    mesh: Mesh
    degree: int
    sigmas: np.ndarray = field(repr=False)
    problem: ProblemSpec

    @property
    def dof_map(self) -> DofMap:
        return DofMap(self.mesh.n_elements, self.degree)


def assemble(
    problem: ProblemSpec,
    mesh: Mesh,
    p: int,
    sigmas=None,
    nquad: int | None = None,
) -> AssembledSystem:
    """Assemble the five-term bilinear form and the load vector."""
    if p < 1:
        raise ValueError("polynomial degree must be >= 1")
    if sigmas is None:
        sigmas = default_penalties(mesh, p, problem.eps1)
    sigmas = np.asarray(sigmas, dtype=float)
    rule, vander, dvander = basis_tables(p, quad_order(p, nquad))
    dof = DofMap(mesh.n_elements, p)
    n = dof.total
    A = np.zeros((n, n))
    rhs = np.zeros(n)

    alt = _alt_signs(p + 1)
    alt_lo = _alt_signs(p)
    B_lo = deriv_pairing_matrix(p, p + 1)  # tests of degree p-1
    ones_lo = np.ones(p)
    k_lo = np.arange(p)
    k_hi = np.arange(p + 1)

    # local dof order: coeffs 0..p, vb_left, vb_right
    nloc = p + 3
    C = np.zeros((p + 1, nloc))
    C[:, : p + 1] = np.eye(p + 1)

    for j in range(mesh.n_elements):
        a, bnd = mesh.element(j)
        h = bnd - a
        x, w = rule.mapped(a, bnd)
        bv = evaluate(problem.b, x)
        bpv = evaluate(problem.b_prime, x)
        rv = evaluate(problem.r, x)
        fv = evaluate(problem.f, x)
        b_left = evaluate(problem.b, a)
        b_right = evaluate(problem.b, bnd)

        # weak derivative: (p) x nloc map to D_{p-1} coefficients
        Dloc = np.zeros((p, nloc))
        Dloc[:, : p + 1] = -B_lo
        Dloc[:, p + 1] = -alt_lo  # vb_left
        Dloc[:, p + 2] = ones_lo  # vb_right
        Dloc *= ((2 * k_lo + 1) / h)[:, None]

        # weak convection derivative: (p+1) x nloc
        Dcloc = np.zeros((p + 1, nloc))
        Dcloc[:, : p + 1] = -((w * bpv)[None, :] * vander.T) @ vander - (
            (w * bv)[None, :] * dvander.T * (2.0 / h)
        ) @ vander
        Dcloc[:, p + 1] = -b_left * alt
        Dcloc[:, p + 2] = b_right * np.ones(p + 1)
        Dcloc *= ((2 * k_hi + 1) / h)[:, None]

        M_lo = np.diag(h / (2 * k_lo + 1))
        M_hi = np.diag(h / (2 * k_hi + 1))

        Aloc = problem.eps1 * Dloc.T @ M_lo @ Dloc
        Aloc += problem.eps2 * C.T @ M_hi @ Dcloc
        Aloc += C.T @ ((vander.T * (w * rv)) @ vander) @ C

        # stabilizers: jump row vectors (v0 - vb) at each end
        t_left = np.concatenate([alt, [-1.0, 0.0]])
        t_right = np.concatenate([np.ones(p + 1), [0.0, -1.0]])
        Aloc += sigmas[j] * (np.outer(t_right, t_right) + np.outer(t_left, t_left))
        Aloc += problem.eps2 * b_right * np.outer(t_right, t_right)

        floc = np.zeros(nloc)
        floc[: p + 1] = (vander.T * w) @ fv

        # boundary node values are eliminated: drop their local rows/columns
        gidx = [dof.coeff_index(j, k) for k in range(p + 1)]
        gidx += [dof.node_index(j), dof.node_index(j + 1)]
        keep = [il for il, ig in enumerate(gidx) if ig is not None]
        g = [gidx[il] for il in keep]
        A[np.ix_(g, g)] += Aloc[np.ix_(keep, keep)]
        rhs[g] += floc[keep]

    return AssembledSystem(A, rhs, mesh, p, sigmas, problem)


def vector_to_weakfunction(system: AssembledSystem, vec: np.ndarray) -> WeakFunction:
    p = system.degree
    N = system.mesh.n_elements
    coeffs = vec[: N * (p + 1)].reshape(N, p + 1)
    vb = np.zeros(N + 1)
    vb[1:N] = vec[N * (p + 1) :]
    return WeakFunction(system.mesh, coeffs, vb)


def weakfunction_to_vector(system: AssembledSystem, v: WeakFunction) -> np.ndarray:
    if abs(v.vb[0]) > 0 or abs(v.vb[-1]) > 0:
        raise ValueError("free vector requires vanishing boundary node values")
    return np.concatenate([v.coeffs.ravel(), v.vb[1:-1]])


def solve(system: AssembledSystem, residual_tol: float = 1e-10) -> WeakFunction:
    """Direct dense solve; checks the relative residual."""
    try:
        x = np.linalg.solve(system.matrix, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    scale = np.linalg.norm(system.rhs)
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    if scale > 0 and resid / scale > residual_tol:
        raise SingularSystemError(
            f"relative residual {resid / scale:.3g} exceeds {residual_tol:g}; "
            "the system is numerically singular"
        )
    return vector_to_weakfunction(system, x)


def bilinear_apply(
    u: WeakFunction,
    v: WeakFunction,
    problem: ProblemSpec,
    sigmas=None,
    nquad: int | None = None,
) -> float:
    """Evaluate the bilinear form directly by quadrature, without the
    assembled matrix; the independent path used by the self-consistency and
    coercivity checks."""
    _check_compatible(u, v)
    p = u.degree
    if sigmas is None:
        sigmas = default_penalties(u.mesh, p, problem.eps1)
    du = weak_derivative(u)
    dv = weak_derivative(v)
    dcu = weak_convection_derivative(u, problem.b, problem.b_prime, nquad)

    k_lo = np.arange(p)
    k_hi = np.arange(p + 1)
    widths = u.mesh.widths
    term1 = problem.eps1 * float(
        np.sum(du.coeffs * dv.coeffs * (widths[:, None] / (2 * k_lo + 1)))
    )
    term2 = problem.eps2 * float(
        np.sum(dcu.coeffs * v.coeffs * (widths[:, None] / (2 * k_hi + 1)))
    )

    rule = gauss_rule(quad_order(p, nquad))
    term3 = 0.0
    for j in range(u.mesh.n_elements):
        a, bnd = u.mesh.element(j)
        x, w = rule.mapped(a, bnd)
        u0 = npleg.legval(rule.nodes, u.coeffs[j])
        v0 = npleg.legval(rule.nodes, v.coeffs[j])
        rv = evaluate(problem.r, x)
        term3 += float(np.sum(w * rv * u0 * v0))

    return (
        term1
        + term2
        + term3
        + stabilizer_S(u, v, sigmas)
        + stabilizer_Sc(u, v, problem.b, problem.eps2)
    )


def load_apply(v: WeakFunction, problem: ProblemSpec, nquad: int | None = None) -> float:
    """(f, v0) by quadrature; companion to bilinear_apply."""
    rule = gauss_rule(quad_order(v.degree, nquad))
    total = 0.0
    for j in range(v.mesh.n_elements):
        a, bnd = v.mesh.element(j)
        x, w = rule.mapped(a, bnd)
        v0 = npleg.legval(rule.nodes, v.coeffs[j])
        fv = evaluate(problem.f, x)
        total += float(np.sum(w * fv * v0))
    return total
