"""Weak derivatives, stabilizers and the two energy norms."""

import itertools

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from wg_hp.coeffexpr import evaluate, parse
from wg_hp.polybasis import gauss_rule, l2_project
from wg_hp.problem import ProblemSpec
from wg_hp.slmesh import user_mesh
from wg_hp.weakspace import (
    BrokenPoly,
    MeshMismatchError,
    WeakFunction,
    _degree_tables,
    _legder_rows,
    default_penalties,
    deriv_pairing_matrix,
    element_quadrature,
    energy_norms,
    jump_seminorm,
    norm_broken,
    norm_p,
    norms_p,
    stabilizer_S,
    stabilizer_Sc,
    weak_convection_derivative,
    weak_derivative,
)

from cases import UNIT

MODEL = ProblemSpec.from_strings(1e-5, 1e-2, "cos(x)", "1+x", "exp(x)")
DEGREES = (1, 3, 8, 16, 32, 64)
MESHES = (user_mesh([0.0, 1.0]), user_mesh([0.0, 0.6, 1.0]), user_mesh([0.0, 0.3, 0.85, 1.0]))


def _conforming_poly(mesh, p, poly_coeffs):
    """Global polynomial (power basis) as a conforming weak function."""
    poly = np.polynomial.Polynomial(poly_coeffs)
    coeffs = np.empty((mesh.n_elements, p + 1))
    for j in range(mesh.n_elements):
        coeffs[j] = l2_project(poly, p, mesh.element(j), nquad=p + 8).coeffs
    return WeakFunction(mesh, coeffs, poly(mesh.nodes))


def test_pairing_matrix_values():
    B = deriv_pairing_matrix(4, 5)
    expect = np.zeros((4, 5))
    for k in range(4):
        for m in range(k):
            if (k - m) % 2 == 1:
                expect[k, m] = 2.0
    np.testing.assert_array_equal(B, expect)
    # cached per shape and shared, so callers cannot write to it
    assert deriv_pairing_matrix(4, 5) is B
    assert not B.flags.writeable


def test_weak_derivative_of_linear():
    # single element (0,1), p=1, v0 = x, vb = (0,1) -> D = 1
    mesh = user_mesh([0.0, 1.0])
    v = WeakFunction(mesh, [[0.5, 0.5]], [0.0, 1.0])
    d = weak_derivative(v)
    np.testing.assert_allclose(d.coeffs, [[1.0]], atol=1e-14)


def test_weak_derivative_sees_node_values():
    # v0 = 1 with vb = 0: classical derivative is 0 but the duality picks
    # up the boundary mismatch; with p=1 the single test q=1 gives 0
    mesh = user_mesh([0.0, 1.0])
    v = WeakFunction(mesh, [[1.0, 0.0]], [0.0, 0.0])
    d = weak_derivative(v)
    np.testing.assert_allclose(d.coeffs, [[0.0]], atol=1e-14)


def test_weak_derivative_exact_on_conforming_polynomials():
    rng = np.random.default_rng(11)
    for p, mesh in itertools.product(DEGREES, MESHES):
        c = rng.standard_normal(p + 1)
        v = _conforming_poly(mesh, p, c)
        d = weak_derivative(v)
        dpoly = np.polynomial.Polynomial(c).deriv()
        for j in range(mesh.n_elements):
            expect = l2_project(dpoly, p - 1, mesh.element(j), nquad=p + 8).coeffs
            # the duality cancels terms of size (2k+1)/h, so rounding grows with p
            atol = 1e-11 * max(1, p / 10) ** 3 * max(1, np.abs(c).max())
            np.testing.assert_allclose(d.coeffs[j], expect, rtol=0, atol=atol)


def test_convection_derivative_constant_b_matches_weak_derivative_of_conforming():
    mesh = user_mesh([0.0, 0.4, 1.0])
    rng = np.random.default_rng(3)
    p = 4
    v = _conforming_poly(mesh, p, rng.standard_normal(p + 1))
    dc = weak_convection_derivative(v, UNIT.b, UNIT.b_prime)
    # for conforming v with b=1 this is the classical derivative elementwise
    for j in range(mesh.n_elements):
        dpoly = v.element_poly(j).derivative()
        got = dc.element_poly(j)
        xs = np.linspace(*mesh.element(j), 7)
        np.testing.assert_allclose(got(xs), dpoly(xs), atol=1e-11)


def test_convection_derivative_duality_with_variable_b():
    # duality residual check with b = cos x: for every test q in P_p,
    # int Dc q = -int v0 (b q)' + vb(b) b(b) q(b) - vb(a) b(a) q(a)
    spec = ProblemSpec.from_strings(1e-3, 1e-3, "cos(x)", "1+x", "1")
    rng = np.random.default_rng(71)
    for p, mesh in itertools.product(DEGREES, MESHES):
        n = mesh.n_elements
        v = WeakFunction(mesh, rng.standard_normal((n, p + 1)), rng.standard_normal(n + 1))
        dc = weak_convection_derivative(v, spec.b, spec.b_prime)
        rule = gauss_rule(p + 20)
        for j in range(n):
            a, b = mesh.element(j)
            h = b - a
            x, w = rule.mapped(a, b)
            v0 = npleg.legval(rule.nodes, v.coeffs[j])
            for k in range(p + 1):
                q = npleg.legval(rule.nodes, np.eye(p + 1)[k])
                dq = npleg.legval(rule.nodes, npleg.legder(np.eye(p + 1)[k])) * (2.0 / h)
                lhs = float(np.sum(w * npleg.legval(rule.nodes, dc.coeffs[j]) * q))
                volume = w * v0 * (-np.sin(x) * q + np.cos(x) * dq)
                rhs = (
                    -float(np.sum(volume))
                    + v.vb[j + 1] * np.cos(b) * 1.0
                    - v.vb[j] * np.cos(a) * (-1.0) ** k
                )
                # rounding grows like p^2 times the size of the terms
                scale = float(np.sum(np.abs(volume))) + abs(v.vb[j + 1]) + abs(v.vb[j])
                assert lhs == pytest.approx(rhs, abs=1e-14 * max(p, 3) ** 2 * scale)


def test_weak_convection_derivative_evaluates_coefficients_once(monkeypatch):
    import wg_hp.weakspace as weakspace

    calls = []
    real = weakspace.evaluate

    def counting_evaluate(expr, x):
        calls.append(expr)
        return real(expr, x)

    monkeypatch.setattr(weakspace, "evaluate", counting_evaluate)
    mesh = MESHES[2]
    v = WeakFunction(mesh, np.ones((3, 5)), np.ones(4))
    weak_convection_derivative(v, MODEL.b, MODEL.b_prime)
    # b and b' on all elements' quadrature points, and b at the nodes
    assert len(calls) == 3


def test_convection_derivative_of_conforming_constant_vanishes():
    # conforming v = 1: int Dc q = -[b q] + [b q] = 0 for every q
    spec = ProblemSpec.from_strings(1e-3, 1e-3, "cos(x)", "1+x", "1")
    mesh = user_mesh([0.0, 0.6, 1.0])
    p = 3
    v = WeakFunction(mesh, np.hstack([np.ones((2, 1)), np.zeros((2, p))]), np.ones(3))
    dc = weak_convection_derivative(v, spec.b, spec.b_prime)
    np.testing.assert_allclose(dc.coeffs, 0.0, atol=1e-13)


def test_stabilizer_vanishes_on_conforming():
    mesh = user_mesh([0.0, 0.5, 1.0])
    u = _conforming_poly(mesh, 3, [0.0, 1.0, -1.0])
    rng = np.random.default_rng(5)
    v = WeakFunction(mesh, rng.standard_normal((2, 4)), rng.standard_normal(3))
    sig = default_penalties(mesh, 3, 1.0)
    assert stabilizer_S(u, v, sig) == pytest.approx(0.0, abs=1e-12)
    assert stabilizer_Sc(u, v, UNIT.b, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert jump_seminorm(u, UNIT.b, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_stabilizer_symmetry():
    mesh = user_mesh([0.0, 0.2, 0.7, 1.0])
    rng = np.random.default_rng(17)
    u = WeakFunction(mesh, rng.standard_normal((3, 3)), rng.standard_normal(4))
    v = WeakFunction(mesh, rng.standard_normal((3, 3)), rng.standard_normal(4))
    sig = rng.uniform(0.5, 2.0, 3)
    assert stabilizer_S(u, v, sig) == pytest.approx(stabilizer_S(v, u, sig), rel=1e-13)
    assert stabilizer_Sc(u, v, MODEL.b, 1e-2) == pytest.approx(
        stabilizer_Sc(v, u, MODEL.b, 1e-2), rel=1e-13
    )


def test_stabilizer_hand_example():
    # single element, p=1, v0 = x, vb = (0,0): jumps are (0, 1)
    mesh = user_mesh([0.0, 1.0])
    v = WeakFunction(mesh, [[0.5, 0.5]], [0.0, 0.0])
    s = 3.7
    assert stabilizer_S(v, v, [s]) == pytest.approx(s, abs=1e-14)
    assert stabilizer_Sc(v, v, UNIT.b, 1.0) == pytest.approx(1.0, abs=1e-14)
    # weight 1/2 on the last element jump
    assert jump_seminorm(v, UNIT.b, 1.0) ** 2 == pytest.approx(0.5, abs=1e-14)


def test_jump_seminorm_below_outflow_stabilizer():
    mesh = user_mesh([0.0, 0.3, 1.0])
    rng = np.random.default_rng(23)
    for _ in range(10):
        v = WeakFunction(mesh, rng.standard_normal((2, 3)), rng.standard_normal(3))
        assert jump_seminorm(v, MODEL.b, 1e-2) ** 2 <= stabilizer_Sc(
            v, v, MODEL.b, 1e-2
        ) * (1 + 1e-12)


def test_norm_p_hand_value():
    # conforming v0 = x(1-x), eps1 = 1, one element, p = 2:
    # norm^2 = int (1-2x)^2 + int x^2(1-x)^2 = 1/3 + 1/30
    mesh = user_mesh([0.0, 1.0])
    v = _conforming_poly(mesh, 2, [0.0, 1.0, -1.0])
    sig = default_penalties(mesh, 2, 1.0)
    assert norm_p(v, UNIT, sig) == pytest.approx(np.sqrt(1 / 3 + 1 / 30), rel=1e-12)
    assert norm_broken(v, UNIT, sig) == pytest.approx(np.sqrt(1 / 3 + 1 / 30), rel=1e-12)


def test_norms_agree_on_conforming_polynomials():
    mesh = user_mesh([0.0, 0.25, 0.8, 1.0])
    rng = np.random.default_rng(31)
    for p in (1, 3, 6):
        v = _conforming_poly(mesh, p, rng.standard_normal(p + 1))
        sig = default_penalties(mesh, p, MODEL.eps1)
        assert norm_p(v, MODEL, sig) == pytest.approx(norm_broken(v, MODEL, sig), rel=1e-10)


def test_norm_zero_and_lower_bound():
    mesh = user_mesh([0.0, 0.5, 1.0])
    z = WeakFunction.zeros(mesh, 3)
    sig = default_penalties(mesh, 3, 1.0)
    assert norm_p(z, UNIT, sig) == 0.0
    assert norm_broken(z, UNIT, sig) == 0.0
    rng = np.random.default_rng(41)
    for _ in range(10):
        v = WeakFunction(mesh, rng.standard_normal((2, 4)), rng.standard_normal(3))
        l2 = np.sqrt(sum(v.element_poly(j).l2_norm() ** 2 for j in range(2)))
        assert norm_p(v, UNIT, sig) >= l2 * (1 - 1e-12)


def test_legder_rows_matches_numpy_legder_bit_for_bit():
    rng = np.random.default_rng(61)
    for p in range(1, 131):
        for n in (1, 2, 3):
            c = rng.standard_normal((n, p + 1)) * 10.0 ** rng.uniform(-12, 12, (n, p + 1))
            expect = npleg.legder(c, axis=1)
            got = _legder_rows(c)
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_norms_equal_the_five_public_terms():
    # the batched energy norm must reproduce, bit for bit, the sum of the
    # public oracle terms: derivative, L2, S, S_c and |.|_J^2
    rng = np.random.default_rng(59)
    meshes = [user_mesh([0.0, 1.0]), user_mesh([0.0, 0.35, 1.0]), user_mesh([0.0, 1e-3, 0.9, 1.0])]
    for p in range(1, 65):
        for mesh in meshes:
            n = mesh.n_elements
            v = WeakFunction(mesh, rng.standard_normal((n, p + 1)), rng.standard_normal(n + 1))
            sig = rng.uniform(0.1, 10.0, n)
            broken_sq = 0.0
            for j in range(n):
                broken_sq += v.element_poly(j).derivative().l2_norm() ** 2
            for norm, deriv_sq in ((norm_broken, broken_sq), (norm_p, weak_derivative(v).l2_norm_sq())):
                sq = (
                    MODEL.eps1 * deriv_sq
                    + BrokenPoly(mesh, v.coeffs).l2_norm_sq()
                    + stabilizer_S(v, v, sig)
                    + stabilizer_Sc(v, v, MODEL.b, MODEL.eps2)
                    + jump_seminorm(v, MODEL.b, MODEL.eps2) ** 2
                )
                assert norm(v, MODEL, sig) == float(np.sqrt(sq))


def _norm_p_per_call(v, problem, sigmas):
    # norm_p as it was before the stacked path, one weak derivative and one
    # BrokenPoly.l2_norm_sq per function: the oracle for the bits of norms_p
    deriv_sq = [weak_derivative(v).l2_norm_sq()]
    return float(energy_norms(v.mesh, v.coeffs[None], v.vb[None], problem, sigmas, deriv_sq)[0])


def _apply_per_function(op, v):
    # the element operator product of one function, from its column-stacked
    # local dofs, as weak_derivative formed it before stacking
    local = np.column_stack([v.coeffs, v.vb[:-1], v.vb[1:]])
    return (op @ local[:, :, None])[:, :, 0]


@pytest.mark.parametrize("bs", [("cos(x)",) * 3, ("cos(x)", "1+x", "2")], ids=["same-b", "own-b"])
def test_norms_on_a_stack_of_meshes_match_the_one_mesh_norms_bit_for_bit(bs):
    # m meshes with the same N and one problem each: each function's norm,
    # with or without deriv_sq, is its one-mesh norm
    rng = np.random.default_rng(41)
    problems = [ProblemSpec.from_strings(eps1, eps2, b, "1+x", "exp(x)")
                for (eps1, eps2), b in zip(((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0)), bs)]
    for nodes, p in itertools.product(
        (([0.0, 1.0],) * 3, ([0.0, 1e-3, 0.9, 1.0], [0.0, 0.2, 0.7, 1.0], [0.0, 0.25, 0.75, 1.0])),
        (1, 4, 17),
    ):
        meshes = [user_mesh(one) for one in nodes]
        n = meshes[0].n_elements
        coeffs = rng.standard_normal((3, 4, n, p + 1))
        vb = rng.standard_normal((3, 4, n + 1))
        deriv_sq = rng.random((3, 4))
        sig = np.array([default_penalties(mesh, p, q.eps1) for q, mesh in zip(problems, meshes)])
        for given in (None, deriv_sq):
            stacked = energy_norms(meshes, coeffs, vb, problems, sig, given)
            assert stacked.shape == (3, 4)
            for i, (prob, mesh) in enumerate(zip(problems, meshes)):
                one_sq = None if given is None else given[i]
                one = energy_norms(mesh, coeffs[i], vb[i], prob, sig[i], one_sq)
                assert stacked[i].tolist() == one.tolist(), (n, p, i)


def test_stacked_norms_match_the_per_call_norms_bit_for_bit():
    import wg_hp.weakspace as weakspace

    rng = np.random.default_rng(97)
    meshes = (user_mesh([0.0, 1.0]), user_mesh([0.0, 0.35, 1.0]), user_mesh([0.0, 1e-3, 0.9, 1.0]))
    problems = [
        ProblemSpec.from_strings(eps1, eps2, "cos(x)", "1+x", "exp(x)")
        for eps1, eps2 in ((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0))
    ]
    for prob, mesh, p in itertools.product(problems, meshes, range(1, 13)):
        n = mesh.n_elements
        vs = [WeakFunction(mesh, rng.standard_normal((n, p + 1)), rng.standard_normal(n + 1))
              for _ in range(5)]
        sig = default_penalties(mesh, p, prob.eps1)
        coeffs, vb = np.stack([v.coeffs for v in vs]), np.stack([v.vb for v in vs])
        weak = [_norm_p_per_call(v, prob, sig) for v in vs]
        broken = [norm_broken(v, prob, sig) for v in vs]
        for k in range(1, 6):
            where = (prob.eps1, n, p, k)
            assert norms_p(mesh, coeffs[:k], vb[:k], prob, sig).tolist() == weak[:k], where
            assert energy_norms(mesh, coeffs[:k], vb[:k], prob, sig).tolist() == broken[:k], where
        assert [norm_p(v, prob, sig) for v in vs] == weak
        # both weak derivatives equal the one-function operator product
        D = weakspace._derivative_operator(mesh.widths, p)
        for v in vs:
            assert weak_derivative(v).coeffs.tobytes() == _apply_per_function(D, v).tobytes()
        x, w = gauss_rule(p + 6).mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
        b = weakspace.evaluate(prob.b, x), weakspace.evaluate(prob.b_prime, x)
        Dc = weakspace._convection_operator(mesh.widths, p, w, *b, weakspace.evaluate(prob.b, mesh.nodes))
        got = weak_convection_derivative(vs[0], prob.b, prob.b_prime).coeffs
        assert got.tobytes() == _apply_per_function(Dc, vs[0]).tobytes()


def test_degree_tables_are_shared_read_only_floats():
    for n in (1, 2, 7):
        tables = _degree_tables(n)
        assert all(a is b for a, b in zip(tables, _degree_tables(n)))
        for table in tables:
            assert table.dtype == np.float64 and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
        alt, ones, odd = tables
        assert alt.tolist() == [(-1.0) ** k for k in range(n)]
        assert ones.tolist() == [1.0] * n
        assert odd.tolist() == [2.0 * k + 1 for k in range(n)]


def test_norm_ratio_finite_positive_for_random_v():
    mesh = user_mesh([0.0, 0.1, 0.9, 1.0])
    rng = np.random.default_rng(53)
    for p in (1, 2, 5):
        sig = default_penalties(mesh, p, MODEL.eps1)
        for _ in range(5):
            v = WeakFunction(mesh, rng.standard_normal((3, p + 1)), rng.standard_normal(4))
            ratio = norm_p(v, MODEL, sig) / norm_broken(v, MODEL, sig)
            assert np.isfinite(ratio) and ratio > 0


def test_jumps_and_traces():
    mesh = user_mesh([0.0, 0.5, 1.0])
    v = WeakFunction(mesh, [[1.0, 1.0], [2.0, -1.0]], [0.5, 1.5, 2.5])
    left, right = v.jumps()
    np.testing.assert_allclose(left, [-0.5, 1.5])
    np.testing.assert_allclose(right, [0.5, -1.5])


def test_mesh_mismatch_raises():
    u = WeakFunction.zeros(user_mesh([0.0, 0.5, 1.0]), 2)
    v = WeakFunction.zeros(user_mesh([0.0, 0.4, 1.0]), 2)
    with pytest.raises(MeshMismatchError):
        _ = u + v
    w = WeakFunction.zeros(user_mesh([0.0, 0.5, 1.0]), 3)
    with pytest.raises(MeshMismatchError):
        _ = u - w


def test_a_weak_function_never_equals_a_broken_polynomial():
    mesh = user_mesh([0.0, 0.5, 1.0])
    coeffs = np.zeros((2, 3))
    v, poly = WeakFunction(mesh, coeffs, np.zeros(3)), BrokenPoly(mesh, coeffs)
    assert v != poly and poly != v
    assert not v == poly and not poly == v


def test_pad_to_degree():
    mesh = user_mesh([0.0, 1.0])
    v = WeakFunction(mesh, [[1.0, 2.0]], [0.0, 3.0])
    w = v.pad_to_degree(4)
    assert w.degree == 4
    xs = np.linspace(0, 1, 9)
    np.testing.assert_allclose(w.element_poly(0)(xs), v.element_poly(0)(xs))
    with pytest.raises(ValueError):
        w.pad_to_degree(2)


@pytest.mark.parametrize("nodes", [[0.0, 1e-3, 0.9, 1.0], [0.0, 1.0]])
def test_element_quadrature_maps_the_rule_onto_each_element(nodes):
    # w and the values equal the rule mapped onto each element on its own
    # and evaluated there, bit for bit
    mesh = user_mesh(nodes)
    exprs = [parse("exp(-x/1e-3) + cos(x)"), parse("1+x"), parse("2")]
    for nq in (1, 7, 24):
        t, w, *values = element_quadrature(mesh.nodes, nq, *exprs)
        rule = gauss_rule(nq)
        assert t is rule.nodes and w.shape == (mesh.n_elements, nq)
        assert len(values) == len(exprs)
        for j in range(mesh.n_elements):
            x, wj = rule.mapped(*mesh.element(j))
            assert w[j].tobytes() == wj.tobytes()
            for e, vals in zip(exprs, values):
                assert vals.shape == w.shape
                assert vals[j].tobytes() == evaluate(e, x).tobytes()
