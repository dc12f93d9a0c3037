"""Weak functions, weak derivatives, stabilizers and discrete norms.

A weak function is a pair (v0, vb): per-element interior polynomials of
degree p plus separate values at the mesh nodes.  The weak derivative of
degree p-1 and the weak convection derivative of degree p are defined
elementwise by integration-by-parts duality against Legendre test
polynomials; both reduce to diagonal solves because the mapped Legendre
mass matrix is diag(h/(2k+1)).  This module is the one place where they
are defined: _derivative_operator and _convection_operator build them for
all elements at once, of one mesh or of a stack of meshes, as matrices
acting on each element's local dofs [c_0..c_p, vb_left, vb_right];
weak_derivative, weak_convection_derivative and assembly.assemble_stack
all apply these matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from wg_hp._frozen import Frozen
from wg_hp.coeffexpr import Expr, evaluate
from wg_hp.polybasis import ElementPoly, basis_tables, gauss_rule, quad_order
from wg_hp.slmesh import Mesh


class MeshMismatchError(Exception):
    """Operands live on different meshes or degrees."""


@lru_cache(maxsize=None)
def _degree_tables(n: int) -> tuple:
    """(P_k(-1), P_k(1), 2k+1) for k = 0..n-1, as float arrays, so that no
    hot path mixes int and float operands; shared and read-only."""
    tables = ((-1.0) ** np.arange(n), np.ones(n), 2.0 * np.arange(n) + 1)
    for table in tables:
        table.setflags(write=False)
    return tables


def element_quadrature(nodes, nq: int, *exprs) -> tuple:
    """(t, w, *values): the nq-point Gauss nodes t on [-1, 1], the weights
    w mapped onto every element of the mesh nodes (..., N+1), shape
    (..., N, nq), and each expression evaluated once on all elements'
    mapped points, in the order given.  nodes may stack k meshes on a
    leading axis, and an expression may then be one per mesh (see
    _evaluate_stack).  This is the one place where the quadrature rule
    meets the mesh."""
    rule = gauss_rule(nq)
    x, w = rule.mapped(nodes[..., :-1, None], nodes[..., 1:, None])
    return (rule.nodes, w, *(_evaluate_stack(e, x) for e in exprs))


def _evaluate_stack(expr, x) -> np.ndarray:
    """expr at the points x.  expr may instead be a sequence of k
    expressions, one per row of x's leading axis: they are evaluated once
    on all of x when they are all the same object or equal (==), else each
    on its own row.  Each point's value is the same either way."""
    if isinstance(expr, Expr):
        return evaluate(expr, x)
    first, *rest = expr
    if all(e is first or e == first for e in rest):
        return evaluate(first, x)
    return np.stack([evaluate(e, row) for e, row in zip(expr, x)])


def _jumps(coeffs, vb) -> tuple[np.ndarray, np.ndarray]:
    """(v0 - vb) at the left and right end of every element, from interior
    coefficients (..., N, P+1) and node values (..., N+1)."""
    alt, ones, _ = _degree_tables(coeffs.shape[-1])
    return coeffs @ alt - vb[..., :-1], coeffs @ ones - vb[..., 1:]


class BrokenPoly(Frozen):
    """Mesh-aligned per-element polynomials of one degree."""

    _fields = ("mesh", "coeffs")
    _hidden = ("coeffs",)

    def __init__(self, mesh: Mesh, coeffs: np.ndarray):
        c = np.array(coeffs, dtype=float)  # shape (N, degree+1)
        if c.ndim != 2 or c.shape[0] != mesh.n_elements:
            raise ValueError("coefficient block count must equal element count")
        c.setflags(write=False)
        vars(self).update(mesh=mesh, coeffs=c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def element_poly(self, j: int) -> ElementPoly:
        a, b = self.mesh.element(j)
        return ElementPoly(a, b, self.coeffs[j])

    def l2_norm_sq(self) -> float:
        odd = _degree_tables(self.coeffs.shape[1])[2]
        return float(np.sum(self.coeffs**2 * (self.mesh.widths[:, None] / odd)))


class WeakFunction(BrokenPoly):
    """Discrete unknown: the broken polynomial v0, interior coefficients
    (N, p+1), plus node values vb (N+1,)."""

    _fields = ("mesh", "coeffs", "vb")
    _hidden = ("coeffs", "vb")

    def __init__(self, mesh: Mesh, coeffs: np.ndarray, vb: np.ndarray):
        super().__init__(mesh, coeffs)
        v = np.array(vb, dtype=float)
        if v.shape != (mesh.n_elements + 1,):
            raise ValueError("vb length must equal node count")
        v.setflags(write=False)
        vars(self)["vb"] = v

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """(v0 - vb) at the left and right endpoint of every element."""
        return _jumps(self.coeffs, self.vb)


def check_same_mesh(u: WeakFunction, v: WeakFunction):
    """Raise MeshMismatchError unless u and v live on the same mesh."""
    if u.mesh.nodes.shape != v.mesh.nodes.shape or not np.array_equal(u.mesh.nodes, v.mesh.nodes):
        raise MeshMismatchError("weak functions live on different meshes")


def _check_compatible(u: WeakFunction, v: WeakFunction):
    check_same_mesh(u, v)
    if u.degree != v.degree:
        raise MeshMismatchError("weak functions have different degrees")


def default_penalties(mesh: Mesh, p: int, eps1: float) -> np.ndarray:
    """sigma_j = eps1 * p^2 / h_j."""
    return eps1 * p**2 / mesh.widths


def deriv_pairing_matrix(n_test: int, n_trial: int) -> np.ndarray:
    """B[k,m] = int_{-1}^{1} P_m(t) P_k'(t) dt = 2 for m < k with k-m odd."""
    k = np.arange(n_test)[:, None]
    m = np.arange(n_trial)[None, :]
    return np.where((m < k) & ((k - m) % 2 == 1), 2.0, 0.0)


@lru_cache(maxsize=None)
def _reference_derivative(p: int) -> np.ndarray:
    """The (p, p+3) duality of D_{p-1} against P_0..P_{p-1} on [-1, 1],
    int D q = -int v0 q' + vb_right q(1) - vb_left q(-1), as a map of the
    local dofs [c_0..c_p, vb_left, vb_right]; shared and read-only."""
    D = np.column_stack([-deriv_pairing_matrix(p, p + 1), -_degree_tables(p)[0], np.ones(p)])
    D.setflags(write=False)
    return D


def _derivative_operator(widths, p: int) -> np.ndarray:
    """D_{p-1} of every element of widths (..., N) as an (..., N, p, p+3)
    map of its local dofs: the reference duality times the inverse mass
    (2k+1)/h."""
    return _reference_derivative(p) * (_degree_tables(p)[2] / widths[..., None])[..., None]


def _convection_operator(widths, p: int, w, bv, bpv, b_nodes) -> np.ndarray:
    """The weak convection derivative of every element of widths (..., N)
    as an (..., N, p+1, p+3) map of its local dofs: the duality against
    P_0..P_p, int Dc q = -int v0 (b q)' + vb_right b q(1) - vb_left b q(-1),
    times the inverse mass (2k+1)/h.  w, bv and bpv hold the quadrature
    weights and b, b' at every element's quadrature points, one row per
    element, and b_nodes holds b at the mesh nodes."""
    _, vander, dvander = basis_tables(p, w.shape[-1])
    Dc = np.empty(w.shape[:-1] + (p + 1, p + 3))
    # int v0 (b q)' dx with q = P_k(t), so q' = P_k'(t) * 2/h
    Dc[..., : p + 1] = -((w * bpv)[..., None, :] * vander.T) @ vander - (
        (w * bv)[..., None, :] * dvander.T * (2.0 / widths)[..., None, None]
    ) @ vander
    alt, _, odd = _degree_tables(p + 1)
    Dc[..., p + 1] = -b_nodes[..., :-1, None] * alt
    Dc[..., p + 2] = b_nodes[..., 1:, None]
    Dc *= (odd / widths[..., None])[..., None]
    return Dc


def _apply(op: np.ndarray, coeffs, vb) -> np.ndarray:
    """An (N, rows, p+3) element operator applied to the local dofs of k
    stacked weak functions: (k, N, rows).  op is broadcast over k, so each
    element product keeps its (rows, p+3) @ (p+3, 1) shape and rounding."""
    local = np.concatenate([coeffs, vb[:, :-1, None], vb[:, 1:, None]], axis=2)
    return (op @ local[..., None])[..., 0]


def weak_derivative(v: WeakFunction) -> BrokenPoly:
    """Degree p-1 weak derivative (duality against q in P_{p-1})."""
    p = v.degree
    if p < 1:
        raise ValueError("weak derivative needs degree p >= 1")
    d = _apply(_derivative_operator(v.mesh.widths, p), v.coeffs[None], v.vb[None])
    return BrokenPoly(v.mesh, d[0])


def weak_convection_derivative(
    v: WeakFunction, b: Expr, b_prime: Expr, nquad: int | None = None
) -> BrokenPoly:
    """Degree p weak convection derivative (duality against (b*q)' terms)."""
    if v.degree < 1:
        raise ValueError("weak convection derivative needs degree p >= 1")
    dc = _convection_apply(v.mesh, v.coeffs[None], v.vb[None], b, b_prime, nquad)
    return BrokenPoly(v.mesh, dc[0])


def _convection_apply(mesh: Mesh, coeffs, vb, b: Expr, b_prime: Expr, nquad=None) -> np.ndarray:
    """The weak convection derivatives (k, N, p+1) of k weak functions
    stacked as for energy_norms, from one operator for all k."""
    p = coeffs.shape[2] - 1
    _, w, bv, bpv = element_quadrature(mesh.nodes, quad_order(p, nquad), b, b_prime)
    b_nodes = evaluate(b, mesh.nodes)
    return _apply(_convection_operator(mesh.widths, p, w, bv, bpv, b_nodes), coeffs, vb)


def stabilizer_S(u: WeakFunction, v: WeakFunction, sigmas) -> float:
    """sum_j sigma_j * [jump_u * jump_v at the right end + at the left end]."""
    _check_compatible(u, v)
    sig = np.asarray(sigmas, dtype=float)
    ul, ur = u.jumps()
    vl, vr = v.jumps()
    return float(np.sum(sig * (ur * vr + ul * vl)))


def stabilizer_Sc(u: WeakFunction, v: WeakFunction, b: Expr, eps2: float) -> float:
    """Outflow penalty: sum_j eps2 * b(x_j) * jump_u * jump_v at right ends only."""
    _check_compatible(u, v)
    bvals = evaluate(b, u.mesh.nodes[1:])
    _, ur = u.jumps()
    _, vr = v.jumps()
    return float(np.sum(eps2 * bvals * ur * vr))


def jump_seminorm(v: WeakFunction, b: Expr, eps2: float) -> float:
    """|v|_J with right-end jumps weighted by eps2*b, and weight 1/2 on the
    last element."""
    bvals = evaluate(b, v.mesh.nodes[1:])
    weights = np.ones(v.mesh.n_elements)
    weights[-1] = 0.5
    _, vr = v.jumps()
    return float(np.sqrt(np.sum(weights * eps2 * bvals * vr**2)))


def _legder_rows(c: np.ndarray) -> np.ndarray:
    """npleg.legder(c, axis=1), bit for bit, for rows of degree >= 1,
    without legder's Python loop over the degree, which dominates its cost
    at large p.  legder forms s_k = c_k + s_{k+2} from the top coefficient
    down and returns (2m+1) * s_{m+1}; a cumulative sum over each parity
    class, taken from the top, adds in the same order."""
    s = np.empty_like(c)
    s_top_down, c_top_down = s[:, ::-1], c[:, ::-1]
    s_top_down[:, 0::2] = np.cumsum(c_top_down[:, 0::2], axis=1)
    s_top_down[:, 1::2] = np.cumsum(c_top_down[:, 1::2], axis=1)
    return s[:, 1:] * _degree_tables(c.shape[1] - 1)[2]


def energy_norms(mesh, coeffs, vb, problem, sigmas, deriv_sq=None) -> np.ndarray:
    """The energy norms of k weak functions on one mesh, from their stacked
    interior coefficients (k, N, P+1) and node values (k, N+1).  mesh may
    instead be a sequence of m meshes with the same N, and problem one
    problem per mesh: the functions are then (m, k, N, P+1) and (m, k, N+1),
    the penalties (m, N) and the norms (m, k), and the widths, b at the
    nodes, eps1 and eps2 get the same leading axis, as in
    assembly._assemble.  Each function's norm is the same either way.

    deriv_sq holds the squared L2 norms of the derivatives, shaped as the
    norms; None takes the broken classical derivative of each v0.  The five
    terms repeat the arithmetic of
    eps1 * sum_j ElementPoly.derivative().l2_norm()**2,
    BrokenPoly.l2_norm_sq(), stabilizer_S(v, v), stabilizer_Sc(v, v) and
    jump_seminorm(v)**2, with the jumps, b at the nodes and the weights
    computed once, and one differentiation for all elements."""
    if isinstance(mesh, Mesh):
        nodes, widths, b = mesh.nodes, mesh.widths, problem.b
        eps1, eps2 = problem.eps1, problem.eps2
    else:
        nodes = np.array([one.nodes for one in mesh])
        widths = np.array([one.widths for one in mesh])
        b = [prob.b for prob in problem]
        eps1 = np.array([prob.eps1 for prob in problem])[:, None]
        eps2 = np.array([prob.eps2 for prob in problem])[:, None, None]
    *fns, n, cols = coeffs.shape
    widths = widths[..., None, :, None]
    left, right = _jumps(coeffs, vb)
    b_out = _evaluate_stack(b, nodes[..., 1:])[..., None, :]
    weights = np.ones(n)
    weights[-1] = 0.5
    sig = np.asarray(sigmas, dtype=float)[..., None, :]
    odd = _degree_tables(cols)[2]
    l2_sq = (coeffs**2 * (widths / odd)).reshape(*fns, -1).sum(axis=-1)
    if deriv_sq is None:
        dc = _legder_rows(coeffs.reshape(-1, cols)).reshape(*fns, n, cols - 1)
        dc *= 2.0 / widths
        # each element's norm is rounded, then squared as a Python float,
        # as ElementPoly.derivative().l2_norm() ** 2 is
        roots = np.sqrt((dc**2 * widths / odd[:-1]).sum(axis=-1)).reshape(-1, n).tolist()
        deriv_sq = []
        for fn_roots in roots:
            total = 0.0
            for root in fn_roots:
                total += root**2
            deriv_sq.append(total)
    jump_norm = np.sqrt((weights * eps2 * b_out * right**2).sum(axis=-1)).ravel().tolist()
    sq = (
        eps1 * np.array(deriv_sq).reshape(fns)
        + l2_sq
        + (sig * (right * right + left * left)).sum(axis=-1)
        + (eps2 * b_out * right * right).sum(axis=-1)
        + np.array([j**2 for j in jump_norm]).reshape(fns)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def norms_p(mesh: Mesh, coeffs, vb, problem, sigmas) -> np.ndarray:
    """norm_p of k weak functions stacked as for energy_norms, with one
    D_{p-1} for all k, each squared norm summed as BrokenPoly.l2_norm_sq."""
    k_fns, _, cols = coeffs.shape
    if cols < 2:
        raise ValueError("norm_p needs degree p >= 1")
    d = _apply(_derivative_operator(mesh.widths, cols - 1), coeffs, vb)
    deriv_sq = (d**2 * (mesh.widths[:, None] / _degree_tables(cols - 1)[2])).reshape(k_fns, -1)
    return energy_norms(mesh, coeffs, vb, problem, sigmas, deriv_sq.sum(axis=1))


def gram_rows(mesh: Mesh, coeffs, vb, problem, sigmas) -> tuple[np.ndarray, np.ndarray]:
    """Rows (k, m), linear in k weak functions stacked as for energy_norms,
    whose squared sums are the squared norms_p and energy_norms; on a basis,
    rows @ rows.T is the norm's Gram matrix.  The penalties must be >= 0."""
    k_fns, n, cols = coeffs.shape
    root_mass = np.sqrt(mesh.widths[:, None] / _degree_tables(cols)[2])
    left, right = _jumps(coeffs, vb)
    # S_c and |v|_J^2 weight right jumps by eps2*b, |v|_J^2 by half on the last element
    b_out = np.r_[np.full(n - 1, 2.0), 1.5] * problem.eps2 * evaluate(problem.b, mesh.nodes[1:])
    weights = np.sqrt(np.stack([np.asarray(sigmas, dtype=float)] * 2 + [b_out], axis=1))
    rest = [coeffs * root_mass, np.stack([left, right, right], axis=2) * weights]
    weak = _apply(_derivative_operator(mesh.widths, cols - 1), coeffs, vb)
    broken = _legder_rows(coeffs.reshape(-1, cols)).reshape(weak.shape) * (2 / mesh.widths[:, None])
    return tuple(np.concatenate([np.sqrt(problem.eps1) * d * root_mass[:, :-1]] + rest, axis=2)
                 .reshape(k_fns, -1) for d in (weak, broken))


def norm_p(v: WeakFunction, problem, sigmas) -> float:
    """Energy norm using the weak derivative D_{p-1}; norms_p with k = 1."""
    return float(norms_p(v.mesh, v.coeffs[None], v.vb[None], problem, sigmas)[0])


def norm_broken(v: WeakFunction, problem, sigmas) -> float:
    """Energy norm using the broken classical derivative of v0."""
    return float(energy_norms(v.mesh, v.coeffs[None], v.vb[None], problem, sigmas)[0])
