"""Legendre polynomials, Gauss quadrature, L2 projection, and the
derivative-orthogonality interpolant on an arbitrary interval.

Coefficients are always stored against the orthogonal (not orthonormal)
Legendre basis mapped affinely from [-1,1] onto the element, so the mass
matrix is diagonal with entries h/(2k+1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp._frozen import Frozen

DEFAULT_EXTRA_QUAD = 6  # n_q = p + 6 Gauss points for analytic integrands


def legendre_eval(k: int, t):
    """P_k(t) and P_k'(t) by the three-term recurrence; t scalar or array."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    t = np.asarray(t, dtype=float)
    p_prev = np.ones_like(t)
    d_prev = np.zeros_like(t)
    if k == 0:
        return p_prev, d_prev
    p_cur = t.copy()
    d_cur = np.ones_like(t)
    for n in range(2, k + 1):
        p_next = ((2 * n - 1) * t * p_cur - (n - 1) * p_prev) / n
        d_next = d_prev + (2 * n - 1) * p_cur
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
    return p_cur, d_cur


class QuadRule(Frozen):
    """Gauss-Legendre rule on the reference interval [-1,1]."""

    _fields = ("nodes", "weights")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        vars(self).update(nodes=nodes, weights=weights)

    def mapped(self, a: float, b: float):
        """Nodes and weights transported to (a,b)."""
        half = 0.5 * (b - a)
        return a + half * (self.nodes + 1.0), half * self.weights


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule; nodes are roots of P_n."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    t, _ = npleg.leggauss(n)
    # numpy's nodes are accurate to an ulp, but its weights are not: they
    # leave weak-derivative residuals near 1e-10, so recompute them
    _, dp = legendre_eval(n, t)
    w = 2.0 / ((1.0 - t**2) * dp**2)
    t.setflags(write=False)
    w.setflags(write=False)
    return QuadRule(t, w)


def quad_order(p: int, nquad: int | None = None) -> int:
    """Gauss points used at degree p: nquad if given, else the default."""
    return nquad if nquad is not None else p + DEFAULT_EXTRA_QUAD


@lru_cache(maxsize=None)
def basis_tables(p: int, nq: int):
    """(rule, V, dV) for the nq-point Gauss rule: V[:, k] = P_k(nodes) and
    dV[:, k] = P_k'(nodes) for k = 0..p.  The arrays are shared and read-only.

    dV runs legendre_eval's recurrence once over all columns, with the same
    floating-point operations, so each column equals legendre_eval(k, nodes)[1]
    bit for bit.
    """
    rule = gauss_rule(nq)
    t = rule.nodes
    vander = npleg.legvander(t, p)
    dvander = np.zeros((nq, p + 1))
    if p >= 1:
        dvander[:, 1] = 1.0
    p_prev, p_cur = np.ones_like(t), t.copy()
    for n in range(2, p + 1):
        dvander[:, n] = dvander[:, n - 2] + (2 * n - 1) * p_cur
        p_prev, p_cur = p_cur, ((2 * n - 1) * t * p_cur - (n - 1) * p_prev) / n
    vander.setflags(write=False)
    dvander.setflags(write=False)
    return rule, vander, dvander


class ElementPoly(Frozen):
    """Polynomial on (a,b) in mapped-Legendre coefficients."""

    _fields = ("a", "b", "coeffs")
    _hidden = ("coeffs",)

    def __init__(self, a: float, b: float, coeffs: np.ndarray):
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        c = np.array(coeffs, dtype=float)
        c.setflags(write=False)
        vars(self).update(a=a, b=b, coeffs=c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def width(self) -> float:
        return self.b - self.a

    def to_reference(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.a) / self.width - 1.0

    def __call__(self, x):
        return npleg.legval(self.to_reference(x), self.coeffs)

    def derivative(self) -> "ElementPoly":
        if self.degree == 0:
            return ElementPoly(self.a, self.b, np.zeros(1))
        dc = npleg.legder(self.coeffs) * (2.0 / self.width)
        return ElementPoly(self.a, self.b, dc)

    def l2_norm(self) -> float:
        k = np.arange(len(self.coeffs))
        return float(np.sqrt(np.sum(self.coeffs**2 * self.width / (2 * k + 1))))


def l2_project(y, p: int, interval, nquad: int | None = None) -> ElementPoly:
    """L2-orthogonal projection of the callable y onto P_p on the interval."""
    a, b = interval
    x, _ = gauss_rule(quad_order(p, nquad)).mapped(a, b)
    return ElementPoly(a, b, l2_coefficients(y(x), p, nquad))


def l2_coefficients(fx, p: int, nquad: int | None = None) -> np.ndarray:
    """Coefficients of the L2 projection onto P_p of the function whose
    values at one element's quad_order(p, nquad) mapped Gauss points are
    fx.  fx may stack the values of several elements, shape (..., nq); the
    projector is built once and applied to each element's row with the
    same matrix-vector product."""
    if p < 0:
        raise ValueError("degree must be >= 0")
    scale, projector = _l2_projector(p, quad_order(p, nquad))
    fx = np.asarray(fx, dtype=float)
    fx = np.broadcast_to(fx, fx.shape[:-1] + projector.shape[1:])
    return scale * (projector @ fx[..., None])[..., 0]


@lru_cache(maxsize=None)
def _l2_projector(p: int, nq: int):
    """(scale, projector) of l2_coefficients for the nq-point Gauss rule:
    scale[k] = (2k+1)/2 and projector[k] = P_k(nodes) * weights, k = 0..p.
    The arrays are shared and read-only."""
    rule, vander, _ = basis_tables(p, nq)
    k = np.arange(p + 1)
    scale = (2 * k + 1) / 2.0
    projector = vander.T * rule.weights
    scale.setflags(write=False)
    projector.setflags(write=False)
    return scale, projector


def interpolate(y, p: int, interval, nquad: int | None = None) -> ElementPoly:
    """Interpolant of degree p matching y at both endpoints with
    derivative orthogonal to P_{p-1}'."""
    a, b = interval
    x, _ = gauss_rule(quad_order(p, nquad)).mapped(a, b)
    return ElementPoly(a, b, interpolant_coefficients(y(x), y(a), y(b), p, nquad))


def interpolant_coefficients(g, ya, yb, p: int, nquad: int | None = None) -> np.ndarray:
    """Coefficients of the interpolant of degree p of the function whose
    values are g at one element's quad_order(p, nquad) mapped Gauss points
    and ya, yb at its endpoints.  g may stack the values of several
    elements, shape (..., nq), with ya and yb of shape (...); each element's
    coefficients come out bit for bit as from a call with its row alone.

    Equivalent to endpoint value plus the integral of the degree-(p-1)
    Legendre truncation of y'; the truncation coefficients are obtained
    from values of y alone via integration by parts.
    """
    if p < 1:
        raise ValueError("interpolation needs degree p >= 1")
    rule, _, dvander = basis_tables(p, quad_order(p, nquad))
    g = np.asarray(g, dtype=float)
    g = np.broadcast_to(g, g.shape[:-1] + rule.nodes.shape)
    ya = np.asarray(ya, dtype=float)[..., None]
    yb = np.asarray(yb, dtype=float)[..., None]
    # e_k = (2k+1)/2 * int_{-1}^{1} g'(t) P_k(t) dt, by parts in t
    # row sums over contiguous rows of P_k'(nodes), not a matrix product:
    # the error-equation check's residual is sensitive to the rounding of
    # these moments
    wg = rule.weights * g
    moments = (wg[..., None, :] * np.ascontiguousarray(dvander[:, :p].T)).sum(axis=-1)
    k = np.arange(p)
    sign = np.where(k % 2, -1.0, 1.0)
    e = (2 * k + 1) / 2.0 * (yb - ya * sign - moments)
    # e holds the Legendre coefficients of d/dt of y(x(t)), so the plain
    # antiderivative in t recovers the interpolant; legint shortens an
    # all-zero series (y(a) == y(b) at p = 1) to one term, so it is copied
    # into p + 1 coefficients
    integral = npleg.legint(e, lbnd=-1.0, axis=-1)
    c = np.zeros(e.shape[:-1] + (p + 1,))
    c[..., : integral.shape[-1]] = integral
    c[..., :1] += ya
    return c
