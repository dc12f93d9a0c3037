"""DOF numbering, assembly of the weak Galerkin bilinear form, and the
direct solve.

Unknowns are the N*(p+1) interior Legendre coefficients plus the N-1
interior node values; the boundary node values are eliminated exactly
(v_b at 0 and 1 is constrained to zero, not penalized).  Meshes have at
most three elements, so a dense factorization is all that is warranted.
The element matrices of the two weak derivatives come from weakspace;
assemble_stack adds the mass products, the reaction mass and the
stabilizers, for k problems at one degree at once, and solve_stack solves
them with one LAPACK call.  assemble and solve are their one-problem calls.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp._frozen import Frozen
from wg_hp.coeffexpr import evaluate
from wg_hp.polybasis import basis_tables, quad_order
from wg_hp.problem import ProblemSpec
from wg_hp.slmesh import Mesh
from wg_hp.weakspace import (
    WeakFunction,
    _apply,
    _check_compatible,
    _convection_operator,
    _degree_tables,
    _derivative_operator,
    _evaluate_stack,
    _jumps,
    default_penalties,
    element_quadrature,
)


RESIDUAL_TOL = 1e-10  # the largest relative residual solve accepts


class SingularSystemError(Exception):
    """The assembled matrix could not be factorized or solved accurately."""


class DofMap(Frozen):
    """Global numbering: element coefficient blocks first, then interior
    node values."""

    _fields = ("n_elements", "degree")

    def __init__(self, n_elements: int, degree: int):
        vars(self).update(n_elements=n_elements, degree=degree)

    @property
    def total(self) -> int:
        return self.n_elements * (self.degree + 1) + self.n_elements - 1

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(coeffs (..., N, p+1), vb (..., N+1)) of solution vectors x
        (..., n) in this numbering, the boundary node values zero: the one
        place that reads the layout of the unknowns, assembly's index
        tables included."""
        N, m = self.n_elements, self.n_elements * (self.degree + 1)
        vb = np.zeros(x.shape[:-1] + (N + 1,))
        vb[..., 1:N] = x[..., m:]
        return x[..., :m].reshape(x.shape[:-1] + (N, self.degree + 1)), vb


class AssembledSystem(Frozen):
    _fields = ("matrix", "rhs", "mesh", "degree")
    _hidden = ("matrix", "rhs")

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray, mesh: Mesh, degree: int):
        vars(self).update(matrix=matrix, rhs=rhs, mesh=mesh, degree=degree)

    @property
    def dof_map(self) -> DofMap:
        return DofMap(self.mesh.n_elements, self.degree)


@lru_cache(maxsize=None)
def _local_dofs(N: int, p: int):
    """(coeff_index, runs) for N elements of degree p, shared and read-only,
    both read from DofMap.split.  coeff_index holds the index of every
    interior coefficient, element by element.  runs holds, per element,
    a (local, global) pair of slices for each of its two runs of unknowns:
    its coefficients c_0..c_p and its interior node values, each contiguous
    in the local dofs [c_0..c_p, vb_left, vb_right] and in the global
    numbering; an eliminated boundary node value is in neither."""
    dof = DofMap(N, p)
    # unknown i split as the value i + 1, so an eliminated node reads -1
    coeffs, vb = dof.split(np.arange(1.0, dof.total + 1))
    index = np.column_stack([coeffs, vb[:-1], vb[1:]]).astype(int) - 1
    runs = []
    for row in index.tolist():
        own = []
        for lo, hi in ((0, p + 1), (p + 1, p + 3)):
            kept = [i for i in range(lo, hi) if row[i] >= 0]
            if kept:
                own.append((slice(kept[0], kept[-1] + 1), slice(row[kept[0]], row[kept[-1]] + 1)))
        runs.append(tuple(own))
    coeff_index = index[:, : p + 1].ravel()
    coeff_index.setflags(write=False)
    return coeff_index, tuple(runs)


@lru_cache(maxsize=None)
def _jump_blocks(p: int):
    """(jump_right, jump_both) of degree p, shared and read-only: the
    (p+3, p+3) blocks t_right t_right^T and that plus t_left t_left^T, with
    t the jump row vectors (v0 - vb) at each end of an element acting on its
    local dofs.  They do not depend on the element, so one pair serves every
    mesh."""
    alt, ones, _ = _degree_tables(p + 1)
    t_left = np.concatenate([alt, [-1.0, 0.0]])
    t_right = np.concatenate([ones, [0.0, -1.0]])
    jump_right = t_right[:, None] * t_right
    jump_both = jump_right + t_left[:, None] * t_left
    for block in (jump_right, jump_both):
        block.setflags(write=False)
    return jump_right, jump_both


def _assemble(nodes, widths, eps1, eps2, coefficients, sigmas, p: int, nquad) -> tuple:
    """(matrices, loads) of the five-term bilinear forms on meshes with
    nodes (..., N+1) and widths (..., N), for eps1 and eps2 of shape (...),
    coefficients (b, b', r, f), each one Expr or one per mesh (see
    weakspace._evaluate_stack), and penalties (..., N).  The leading axis,
    if any, stacks k systems; each numpy operation runs once on all of
    them, with the per-element shapes and operand orders of one system,
    and _scatter adds the element blocks into the global matrices."""
    if p < 1:
        raise ValueError("polynomial degree must be >= 1")
    nq = quad_order(p, nquad)
    _, vander, _ = basis_tables(p, nq)
    jump_right, jump_both = _jump_blocks(p)

    # the coefficients on every element's quadrature points, one row each,
    # evaluated once per call
    _, w, bv, bpv, rv, fv = element_quadrature(nodes, nq, *coefficients)
    b_nodes = _evaluate_stack(coefficients[0], nodes)

    # the weak derivatives of every element, and the diagonal mass
    # matrices h/(2k+1)
    D = _derivative_operator(widths, p)
    Dc = _convection_operator(widths, p, w, bv, bpv, b_nodes)
    mass_hi = widths[..., None] / _degree_tables(p + 1)[2]
    mass_lo = mass_hi[..., :p]

    # the element matrices of all elements, one (p+3, p+3) block each; the
    # mass matrices are diagonal, so their products are row scalings, and a
    # C-ordered left factor keeps the BLAS rounding of the dense form
    eps1, eps2 = eps1[..., None, None, None], eps2[..., None]
    Aloc = np.ascontiguousarray(eps1 * D.swapaxes(-1, -2) * mass_lo[..., None, :]) @ D
    Aloc[..., : p + 1, :] += (eps2[..., None] * mass_hi)[..., None] * Dc
    Aloc[..., : p + 1, : p + 1] += (vander.T * (w * rv)[..., None, :]) @ vander
    Aloc += sigmas[..., None, None] * jump_both
    Aloc += (eps2 * b_nodes[..., 1:])[..., None, None] * jump_right
    load = (vander.T * w[..., None, :]) @ fv[..., None]
    return _scatter(Aloc, load, widths.shape[-1], p)


def _scatter(blocks, loads, N: int, p: int) -> tuple:
    """(matrices (..., n, n), loads (..., n)) of the element blocks
    (..., N, p+3, p+3) and loads (..., N, p+1, 1) of N elements of degree p.
    Each block is added into zeros in element order, as one slice-add per
    pair of its runs (see _local_dofs), so a -0.0 becomes 0.0 and no array
    larger than the matrices is made."""
    lead, n = blocks.shape[:-3], DofMap(N, p).total
    coeff_index, runs = _local_dofs(N, p)
    A = np.zeros(lead + (n, n))
    for j, own in enumerate(runs):
        for rows, grows in own:
            for cols, gcols in own:
                part = A[..., grows, gcols]  # A[...] += would copy it back too
                part += blocks[..., j, rows, cols]
    rhs = np.zeros(lead + (n,))
    rhs[..., coeff_index] += loads.reshape(lead + (-1,))
    return A, rhs


def assemble_stack(problems, meshes, p: int, sigmas=None, nquad: int | None = None) -> tuple:
    """(matrices, loads): the five-term bilinear forms (k, n, n) and load
    vectors (k, n) of k problems, each on its own mesh, at degree p.  Every
    mesh must have the same number of elements; sigmas, if given, holds one
    row of penalties per problem.  Each numpy operation runs once on
    (k, N, ...) arrays, so system i is bit for bit what assemble gives for
    its problem alone: the same kernel without the stack axis.  A
    coefficient that is equal (==) across the problems is evaluated once on
    all their points.  The matrices take k*n*n*8 bytes, and the temporaries
    of the kernel grow with them; verify.STACK_BYTES bounds the stacks of
    the sweep."""
    if len({mesh.n_elements for mesh in meshes}) > 1:
        raise ValueError("the meshes of a stack must have the same number of elements")
    if sigmas is None:
        sigmas = [default_penalties(mesh, p, prob.eps1) for prob, mesh in zip(problems, meshes)]
    eps = np.array([(prob.eps1, prob.eps2) for prob in problems])
    coefficients = tuple(zip(*((prob.b, prob.b_prime, prob.r, prob.f) for prob in problems)))
    return _assemble(
        np.array([mesh.nodes for mesh in meshes]),
        np.array([mesh.widths for mesh in meshes]),
        eps[:, 0],
        eps[:, 1],
        coefficients,
        np.asarray(sigmas, dtype=float),
        p,
        nquad,
    )


def assemble(
    problem: ProblemSpec,
    mesh: Mesh,
    p: int,
    sigmas=None,
    nquad: int | None = None,
) -> AssembledSystem:
    """Assemble the five-term bilinear form and the load vector: the
    one-problem form of assemble_stack, by the same kernel."""
    if sigmas is None:
        sigmas = default_penalties(mesh, p, problem.eps1)
    A, rhs = _assemble(
        mesh.nodes,
        mesh.widths,
        np.asarray(problem.eps1, dtype=float),
        np.asarray(problem.eps2, dtype=float),
        (problem.b, problem.b_prime, problem.r, problem.f),
        np.asarray(sigmas, dtype=float),
        p,
        nquad,
    )
    return AssembledSystem(A, rhs, mesh, p)


def vector_to_weakfunction(system: AssembledSystem, vec: np.ndarray) -> WeakFunction:
    """The weak function of the system's degree on its mesh whose unknowns,
    numbered as in DofMap, are vec."""
    return WeakFunction(system.mesh, *system.dof_map.split(vec))


def solve_stack(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solutions (k, n) of k systems stacked (k, n, n) and (k, n), from
    one np.linalg.solve with the right-hand sides as (k, n, 1); without the
    stack axis, of one system.  Every solution must be finite and its
    relative residual at most RESIDUAL_TOL, else SingularSystemError (for
    a residual, the first too large).  Each solution, residual and norm is
    bit for bit that of its system solved alone; solve is the one-system
    call."""
    try:
        x = np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.isfinite(x).all():
        raise SingularSystemError("the solution is not finite; the data may overflow")
    residuals = (matrices @ x[..., None])[..., 0] - rhs
    # a row times its own column is the dot product np.linalg.norm takes
    scales = np.sqrt(rhs[..., None, :] @ rhs[..., None]).ravel().tolist()
    resids = np.sqrt(residuals[..., None, :] @ residuals[..., None]).ravel().tolist()
    for scale, resid in zip(scales, resids):
        if scale > 0 and not resid / scale <= RESIDUAL_TOL:
            raise SingularSystemError(
                f"relative residual {resid / scale:.3g} exceeds {RESIDUAL_TOL:g}; "
                "the system is numerically singular"
            )
    return x


def solve(system: AssembledSystem) -> WeakFunction:
    """Direct dense solve; the solution must be finite and its relative
    residual at most RESIDUAL_TOL.  The one-system call of solve_stack."""
    return vector_to_weakfunction(system, solve_stack(system.matrix, system.rhs))


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
    t, w, bv, bpv, rv = element_quadrature(
        mesh.nodes, quad_order(p, nquad), problem.b, problem.b_prime, problem.r
    )
    b_nodes = evaluate(problem.b, mesh.nodes)
    D = _derivative_operator(mesh.widths, p)
    du = _apply(D, uc, ub)
    dv = du if v is u else _apply(D, vc, vb)
    dcu = _apply(_convection_operator(mesh.widths, p, w, bv, bpv, b_nodes), uc, ub)
    mass_hi = mesh.widths[:, None] / _degree_tables(p + 1)[2]
    term1 = problem.eps1 * (du * dv * mass_hi[:, :p]).reshape(len(vc), -1).sum(axis=1)
    term2 = problem.eps2 * (dcu * vc * mass_hi).reshape(len(vc), -1).sum(axis=1)
    # (r v0, u0) element by element, the rows added in element order
    u0 = npleg.legval(t, np.moveaxis(uc, 2, 0))
    v0 = u0 if v is u else npleg.legval(t, np.moveaxis(vc, 2, 0))
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
    t, w, fv = element_quadrature(v.mesh.nodes, quad_order(v.degree, nquad), problem.f)
    total = 0.0
    for row in (w * fv * npleg.legval(t, v.coeffs.T)).sum(axis=1).tolist():
        total += row
    return total
