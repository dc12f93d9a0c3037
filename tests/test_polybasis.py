"""Legendre evaluation, Gauss rules, L2 projection and the
derivative-orthogonality interpolant."""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from wg_hp.polybasis import (
    ElementPoly,
    basis_tables,
    gauss_rule,
    interpolant_coefficients,
    interpolate,
    l2_project,
    legendre_eval,
    quad_order,
)


def test_legendre_at_one():
    p, d = legendre_eval(2, 1.0)
    assert p == pytest.approx(1.0)
    assert d == pytest.approx(3.0)


def test_legendre_constant():
    p, d = legendre_eval(0, 0.3)
    assert p == 1.0 and d == 0.0


def test_legendre_p5_exact_expansion():
    # P5(t) = (63 t^5 - 70 t^3 + 15 t) / 8
    for t in (-0.9, -0.25, 0.0, 0.5, 0.77):
        expect = (63 * t**5 - 70 * t**3 + 15 * t) / 8.0
        dexpect = (315 * t**4 - 210 * t**2 + 15) / 8.0
        p, d = legendre_eval(5, t)
        assert p == pytest.approx(expect, abs=1e-15)
        assert d == pytest.approx(dexpect, abs=1e-13)


def test_legendre_array_input():
    t = np.linspace(-1, 1, 11)
    p, d = legendre_eval(3, t)
    np.testing.assert_allclose(p, 0.5 * (5 * t**3 - 3 * t), atol=1e-15)
    np.testing.assert_allclose(d, 0.5 * (15 * t**2 - 3), atol=1e-14)


def test_gauss_one_point():
    rule = gauss_rule(1)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-16)
    np.testing.assert_allclose(rule.weights, [2.0], atol=1e-15)


def test_gauss_two_point():
    rule = gauss_rule(2)
    np.testing.assert_allclose(rule.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-14)


def test_gauss_six_point_t10():
    rule = gauss_rule(6)
    val = float(np.sum(rule.weights * rule.nodes**10))
    assert val == pytest.approx(2.0 / 11.0, abs=1e-13)


@pytest.mark.parametrize("n", range(1, 21))
def test_gauss_exactness_degree_2n_minus_1(n):
    rule = gauss_rule(n)
    for m in range(0, 2 * n):
        exact = 0.0 if m % 2 else 2.0 / (m + 1)
        got = float(np.sum(rule.weights * rule.nodes**m))
        assert got == pytest.approx(exact, abs=1e-13)


def test_gauss_integrates_legendre_products_up_to_200_points():
    # int P_k P_m = 2/(2k+1) delta_km for k < n, m <= n: degree <= 2n-1
    worst = 0.0
    for n in range(1, 201):
        rule = gauss_rule(n)
        vander = npleg.legvander(rule.nodes, n)
        gram = vander[:, :n].T @ (rule.weights[:, None] * vander)
        exact = np.zeros((n, n + 1))
        exact[np.arange(n), np.arange(n)] = 2.0 / (2 * np.arange(n) + 1)
        worst = max(worst, float(np.max(np.abs(gram - exact))))
    assert worst <= 1e-14


def test_basis_tables_match_legvander_and_legendre_eval():
    for p in range(65):
        nq = quad_order(p)
        rule, vander, dvander = basis_tables(p, nq)
        assert rule is gauss_rule(nq)
        np.testing.assert_array_equal(vander, npleg.legvander(rule.nodes, p))
        for k in range(p + 1):
            np.testing.assert_array_equal(dvander[:, k], legendre_eval(k, rule.nodes)[1])


def test_basis_tables_are_read_only():
    rule, vander, dvander = basis_tables(4, 10)
    for arr in (rule.nodes, rule.weights, vander, dvander):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_mapped_rule_integrates_constant():
    x, w = gauss_rule(4).mapped(0.25, 0.75)
    assert np.all((x > 0.25) & (x < 0.75))
    assert float(np.sum(w)) == pytest.approx(0.5, abs=1e-15)


def test_projection_reproduces_cubic():
    proj = l2_project(lambda t: t**3, 3, (-1.0, 1.0))
    # t^3 = (3/5) P1 + (2/5) P3
    np.testing.assert_allclose(proj.coeffs, [0.0, 0.6, 0.0, 0.4], atol=1e-14)


def test_projection_of_cubic_onto_linears():
    proj = l2_project(lambda t: t**3, 1, (-1.0, 1.0))
    np.testing.assert_allclose(proj.coeffs, [0.0, 0.6], atol=1e-14)


def test_projection_orthogonality():
    proj = l2_project(np.exp, 4, (0.0, 1.0))
    rule = gauss_rule(30)
    x, w = rule.mapped(0.0, 1.0)
    err = np.exp(x) - proj(x)
    for k in range(5):
        basis = legendre_eval(k, rule.nodes)[0]
        assert float(np.sum(w * err * basis)) == pytest.approx(0.0, abs=1e-14)


def test_projection_l2_bound_exp():
    # ||y - Pi_4 y||^2 <= ((b-a)/2)^(2s) * (p+1-s)!/(p+1+s)! * |y|_s^2, s = 4
    p, s = 4, 4
    proj = l2_project(np.exp, p, (-1.0, 1.0))
    rule = gauss_rule(40)
    x, w = rule.mapped(-1.0, 1.0)
    lhs = float(np.sum(w * (np.exp(x) - proj(x)) ** 2))
    seminorm_sq = float(np.sum(w * np.exp(x) ** 2))  # every derivative of exp is exp
    rhs = math.factorial(p + 1 - s) / math.factorial(p + 1 + s) * seminorm_sq
    assert lhs <= rhs * (1 + 1e-8)


@pytest.mark.parametrize("p", range(1, 9))
def test_interpolant_reproduces_polynomials(p):
    rng = np.random.default_rng(100 + p)
    c = rng.standard_normal(p + 1)
    poly = ElementPoly(0.2, 0.9, c)
    iy = interpolate(poly, p, (0.2, 0.9))
    np.testing.assert_allclose(iy.coeffs, c, atol=1e-12)


def test_interpolant_matches_endpoints():
    y = lambda x: np.sin(np.pi * x)
    iy = interpolate(y, 3, (0.0, 1.0))
    assert abs(iy(0.0) - y(0.0)) <= 1e-12
    assert abs(iy(1.0) - y(1.0)) <= 1e-12


def test_interpolant_derivative_orthogonality():
    # int (Iy - y)' q' = 0 for q in P_p, i.e. (Iy)' is the L2 truncation of y'
    p = 5
    y = np.exp
    iy = interpolate(y, p, (0.0, 1.0), nquad=40)
    diy = iy.derivative()
    rule = gauss_rule(40)
    x, w = rule.mapped(0.0, 1.0)
    scale = float(np.sum(w * np.exp(x) ** 2))
    for k in range(p):
        dq = legendre_eval(k + 1, rule.nodes)[1]  # q' for q = P_{k+1}
        resid = float(np.sum(w * (diy(x) - np.exp(x)) * dq))
        assert abs(resid) <= 1e-12 * scale


@pytest.mark.parametrize("p", [1, 2, 5])
def test_interpolant_of_a_constant_keeps_its_degree(p):
    # at p = 1 the derivative series is zero, which legint shortens to one
    # term; the interpolant is still a polynomial of degree p
    iy = interpolate(lambda x: np.full_like(x, 2.0), p, (0.2, 0.5))
    assert iy.degree == p
    np.testing.assert_allclose(iy.coeffs, np.r_[2.0, np.zeros(p)], atol=1e-14)


def _interpolant_coefficients_per_column(g, ya, yb, p, nquad=None):
    # interpolant_coefficients of one element, with one np.sum per moment
    # and a 1-D legint, as it was before it took stacked rows: the oracle
    # for its bits
    rule, _, dvander = basis_tables(p, quad_order(p, nquad))
    g = np.broadcast_to(np.asarray(g, dtype=float), rule.nodes.shape)
    ya = float(ya)
    yb = float(yb)
    wg = rule.weights * g
    moments = np.array([np.sum(wg * dvander[:, k]) for k in range(p)])
    k = np.arange(p)
    sign = np.where(k % 2, -1.0, 1.0)
    e = (2 * k + 1) / 2.0 * (yb - ya * sign - moments)
    c = np.zeros(p + 1)
    integral = npleg.legint(e, lbnd=-1.0)
    c[: len(integral)] = integral
    c[0] += ya
    return c


def test_stacked_interpolant_matches_the_per_element_calls_bit_for_bit():
    rng = np.random.default_rng(29)
    for p in range(1, 13):
        for nquad in (None, 2 * quad_order(p)):
            nq = quad_order(p, nquad)
            for n in (1, 2, 3):
                g = rng.standard_normal((n, nq))
                ends = rng.standard_normal((2, n))
                if p == 1:
                    ends[1, 0] = ends[0, 0]  # y(a) == y(b): a zero derivative series
                stacked = interpolant_coefficients(g, ends[0], ends[1], p, nquad)
                assert stacked.shape == (n, p + 1)
                for j in range(n):
                    expect = _interpolant_coefficients_per_column(g[j], ends[0, j], ends[1, j], p, nquad)
                    assert stacked[j].tobytes() == expect.tobytes(), (p, nquad, n, j)
                    one = interpolant_coefficients(g[j], ends[0, j], ends[1, j], p, nquad)
                    assert one.tobytes() == expect.tobytes(), (p, nquad, n, j)
    # every row with y(a) == y(b) at p = 1, where legint shortens the series
    g = np.full((3, 7), 2.0)
    y = np.array([2.0, -1.0, 0.5])
    stacked = interpolant_coefficients(g, y, y, 1)
    for j in range(3):
        expect = _interpolant_coefficients_per_column(g[j], y[j], y[j], 1)
        assert stacked[j].tobytes() == expect.tobytes()


@pytest.mark.parametrize("p", range(2, 9))
def test_interpolant_h1_error_bound_sin(p):
    # |y - Iy|_1 <= ((b-a)/2)^s sqrt((p-s)!/(p+s)!) |y|_{s+1} with s = p;
    # |sin(pi x)|_{s+1}^2 = pi^(2s+2)/2 on (0,1)
    y = lambda x: np.sin(np.pi * x)
    iy = interpolate(y, p, (0.0, 1.0), nquad=50)
    diy = iy.derivative()
    rule = gauss_rule(50)
    x, w = rule.mapped(0.0, 1.0)
    lhs = math.sqrt(float(np.sum(w * (np.pi * np.cos(np.pi * x) - diy(x)) ** 2)))
    s = p
    rhs = 0.5**s * math.sqrt(math.factorial(p - s) / math.factorial(p + s)) * math.sqrt(
        np.pi ** (2 * s + 2) / 2.0
    )
    assert lhs <= rhs * (1 + 1e-8)


def test_element_poly_basics():
    poly = ElementPoly(0.0, 2.0, [1.0, 1.0])  # 1 + t, t = x - 1
    assert poly(1.0) == pytest.approx(1.0)
    assert poly(2.0) == pytest.approx(2.0)
    assert poly.derivative()(0.5) == pytest.approx(1.0)
    assert poly.l2_norm() == pytest.approx(math.sqrt(2.0 + 2.0 / 3.0), abs=1e-14)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)
    with pytest.raises(ValueError):
        l2_project(np.exp, -1, (0.0, 1.0))
    with pytest.raises(ValueError):
        interpolate(np.exp, 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        ElementPoly(1.0, 0.0, [1.0])
