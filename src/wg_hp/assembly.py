"""DOF numbering, assembly of the weak Galerkin bilinear form, and the
direct solve.

Unknowns are the N*(p+1) interior Legendre coefficients plus the N-1
interior node values; the boundary node values are eliminated exactly
(v_b at 0 and 1 is constrained to zero, not penalized).  Meshes have at
most three elements, so a dense factorization is all that is warranted.
The element matrices of the two weak derivatives come from weakspace;
assemble adds the mass products, the reaction mass and the stabilizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp.coeffexpr import evaluate
from wg_hp.polybasis import basis_tables, gauss_rule, quad_order
from wg_hp.problem import ProblemSpec
from wg_hp.slmesh import Mesh
from wg_hp.weakspace import (
    WeakFunction,
    _apply,
    _check_compatible,
    _convection_operator,
    _degree_tables,
    _derivative_operator,
    _jumps,
    default_penalties,
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

    @property
    def dof_map(self) -> DofMap:
        return DofMap(self.mesh.n_elements, self.degree)


@lru_cache(maxsize=None)
def _local_dofs(N: int, p: int):
    """(dof_index, t_left, t_right) for N elements of degree p, shared and
    read-only.  Row j of dof_index holds the global index of element j's
    local dofs [c_0..c_p, vb_left, vb_right]; the eliminated boundary node
    values get indices n and n+1 (n the number of unknowns), whose rows and
    columns assemble drops.  t_left and t_right are the jump row vectors
    (v0 - vb) at each end of an element, with P_k(-1) = (-1)^k."""
    n = DofMap(N, p).total
    node_index = np.concatenate([[n], N * (p + 1) + np.arange(N - 1), [n + 1]])
    dof_index = np.column_stack(
        [np.arange(N * (p + 1)).reshape(N, p + 1), node_index[:-1], node_index[1:]]
    )
    t_left = np.concatenate([(-1.0) ** np.arange(p + 1), [-1.0, 0.0]])
    t_right = np.concatenate([np.ones(p + 1), [0.0, -1.0]])
    for table in (dof_index, t_left, t_right):
        table.setflags(write=False)
    return dof_index, t_left, t_right


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
    rule, vander, _ = basis_tables(p, quad_order(p, nquad))
    N = mesh.n_elements
    n = DofMap(N, p).total
    dof_index, t_left, t_right = _local_dofs(N, p)

    # quadrature points of every element, one row each, and the
    # coefficients evaluated once per call
    x, w = rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    bv = evaluate(problem.b, x)
    bpv = evaluate(problem.b_prime, x)
    rv = evaluate(problem.r, x)
    fv = evaluate(problem.f, x)
    b_nodes = evaluate(problem.b, mesh.nodes)

    # the weak derivatives of every element, and the diagonal mass
    # matrices h/(2k+1)
    D = _derivative_operator(mesh, p)
    Dc = _convection_operator(mesh, p, w, bv, bpv, b_nodes)
    mass_hi = mesh.widths[:, None] / _degree_tables(p + 1)[2]
    mass_lo = mass_hi[:, :p]
    jump_right = t_right[:, None] * t_right
    jump_both = jump_right + t_left[:, None] * t_left

    # the element matrices of all elements, one (p+3, p+3) block each; the
    # mass matrices are diagonal, so their products are row scalings, and a
    # C-ordered left factor keeps the BLAS rounding of the dense form
    Aloc = np.ascontiguousarray(problem.eps1 * D.transpose(0, 2, 1) * mass_lo[:, None, :]) @ D
    Aloc[:, : p + 1] += (problem.eps2 * mass_hi)[:, :, None] * Dc
    Aloc[:, : p + 1, : p + 1] += (vander.T * (w * rv)[:, None, :]) @ vander
    Aloc += sigmas[:, None, None] * jump_both
    Aloc += (problem.eps2 * b_nodes[1:])[:, None, None] * jump_right
    load = (vander.T * w[:, None, :]) @ fv[:, :, None]

    # one scatter: bincount adds the blocks in element order, so an entry
    # shared by two elements is summed as an element-by-element scatter sums it
    flat = dof_index[:, :, None] * (n + 2) + dof_index[:, None, :]
    A = np.bincount(flat.ravel(), weights=Aloc.ravel(), minlength=(n + 2) ** 2)
    A = A.reshape(n + 2, n + 2)
    # added to zeros, not assigned, so a -0.0 load entry becomes 0.0
    rhs = np.zeros(n)
    rhs[: N * (p + 1)] += load.ravel()

    return AssembledSystem(A[:n, :n].copy(), rhs, mesh, p)


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


def bilinear_values(mesh: Mesh, u, v, problem: ProblemSpec, sigmas=None, nquad=None) -> np.ndarray:
    """B(u_i, v_i) of k pairs of weak functions by quadrature, without the
    assembled matrix.  u and v are (coeffs, vb) pairs stacked as for
    energy_norms; v is u pairs each function with itself, and a u of one
    function is paired with every v_i.  The coefficients,
    operators and jumps are formed once per call, and each function's terms
    are reduced as for k = 1, so B(u_i, v_i) does not depend on k."""
    (uc, ub), (vc, vb) = u, v
    p = uc.shape[2] - 1
    if p < 1:
        raise ValueError("weak derivative needs degree p >= 1")
    sig = default_penalties(mesh, p, problem.eps1) if sigmas is None else np.asarray(sigmas, float)
    rule, _, _ = basis_tables(p, quad_order(p, nquad))
    x, w = rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    bv, bpv, rv = (evaluate(e, x) for e in (problem.b, problem.b_prime, problem.r))
    b_nodes = evaluate(problem.b, mesh.nodes)
    D = _derivative_operator(mesh, p)
    du = _apply(D, uc, ub)
    dv = du if v is u else _apply(D, vc, vb)
    dcu = _apply(_convection_operator(mesh, p, w, bv, bpv, b_nodes), uc, ub)
    mass_hi = mesh.widths[:, None] / _degree_tables(p + 1)[2]
    term1 = problem.eps1 * (du * dv * mass_hi[:, :p]).reshape(len(vc), -1).sum(axis=1)
    term2 = problem.eps2 * (dcu * vc * mass_hi).reshape(len(vc), -1).sum(axis=1)
    # (r v0, u0) element by element, the rows added in element order
    u0 = npleg.legval(rule.nodes, np.moveaxis(uc, 2, 0))
    v0 = u0 if v is u else npleg.legval(rule.nodes, np.moveaxis(vc, 2, 0))
    rows = (w * rv * u0 * v0).sum(axis=2)
    term3 = np.zeros(len(rows))
    for j in range(rows.shape[1]):
        term3 += rows[:, j]
    # the stabilizers S and S_c, from one set of jumps per operand
    ul, ur = _jumps(uc, ub)
    vl, vr = (ul, ur) if v is u else _jumps(vc, vb)
    s = (sig * (ur * vr + ul * vl)).sum(axis=1)
    sc = (problem.eps2 * b_nodes[1:] * ur * vr).sum(axis=1)
    return term1 + term2 + term3 + s + sc


def bilinear_apply(
    u: WeakFunction,
    v: WeakFunction,
    problem: ProblemSpec,
    sigmas=None,
    nquad: int | None = None,
) -> float:
    """B(u, v) directly by quadrature, without the assembled matrix: the
    independent path of the self-consistency and coercivity checks;
    bilinear_values with k = 1."""
    _check_compatible(u, v)
    uu = (u.coeffs[None], u.vb[None])
    vv = uu if v is u else (v.coeffs[None], v.vb[None])
    return float(bilinear_values(u.mesh, uu, vv, problem, sigmas, nquad)[0])


def load_apply(v: WeakFunction, problem: ProblemSpec, nquad: int | None = None) -> float:
    """(f, v0) by quadrature; companion to bilinear_apply."""
    rule = gauss_rule(quad_order(v.degree, nquad))
    nodes = v.mesh.nodes
    x, w = rule.mapped(nodes[:-1, None], nodes[1:, None])
    fv = evaluate(problem.f, x)
    total = 0.0
    for row in (w * fv * npleg.legval(rule.nodes, v.coeffs.T)).sum(axis=1).tolist():
        total += row
    return total
