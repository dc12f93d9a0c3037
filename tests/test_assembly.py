"""Assembly of the bilinear form, DOF numbering and the direct solve."""

import itertools

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from wg_hp.assembly import (
    AssembledSystem,
    DofMap,
    SingularSystemError,
    _local_dofs,
    assemble,
    assemble_stack,
    bilinear_apply,
    bilinear_values,
    load_apply,
    solve,
    solve_stack,
    vector_to_weakfunction,
)
from wg_hp.coeffexpr import evaluate
from wg_hp.polybasis import gauss_rule, quad_order
from wg_hp.problem import ProblemSpec, classify_regime, compute_mu, model_problem
from wg_hp.slmesh import build_sbl_mesh, user_mesh
from wg_hp.problem import Regime
from wg_hp.verify import manufacture, sbl_mesh
from wg_hp.weakspace import (
    WeakFunction,
    default_penalties,
    stabilizer_S,
    stabilizer_Sc,
    weak_convection_derivative,
    weak_derivative,
)

from cases import UNIT


def test_solve_rejects_a_non_finite_solution():
    system = assemble(UNIT, user_mesh([0.0, 0.5, 1.0]), 2)
    rhs = system.rhs.copy()
    rhs[0] = np.inf
    with pytest.raises(SingularSystemError, match="not finite"):
        solve(AssembledSystem(system.matrix, rhs, system.mesh, system.degree))


def test_dofmap_counts():
    dof = DofMap(3, 4)
    assert dof.total == 17
    coeffs, vb = dof.split(np.arange(dof.total))
    assert coeffs.shape == (3, 5) and coeffs[2, 4] == 14
    # the interior node values follow the coefficients; the boundary node
    # values are eliminated, and split gives them as zero
    np.testing.assert_array_equal(vb, [0, 15, 16, 0])


def test_matrix_dimensions_match_dofmap():
    mesh = user_mesh([0.0, 0.3, 0.7, 1.0])
    system = assemble(model_problem(1e-4, 1e-3), mesh, 4)
    assert system.matrix.shape == (17, 17)
    assert system.rhs.shape == (17,)


def test_single_element_p1_galerkin_residual():
    # smallest possible system: one element, p=1, all coefficients 1
    mesh = user_mesh([0.0, 1.0])
    system = assemble(UNIT, mesh, 1)
    assert system.matrix.shape == (2, 2)
    u_p = solve(system)
    # residual of the variational identity against each basis function
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        phi = vector_to_weakfunction(system, e)
        resid = bilinear_apply(u_p, phi, UNIT) - load_apply(phi, UNIT)
        assert abs(resid) <= 1e-12


def _rel_gap(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-30)


def test_matrix_path_matches_direct_path():
    rng = np.random.default_rng(13)
    cases = [
        (1e-4, 1e-2, [0.0, 0.2, 0.75, 1.0]),
        # None: the layer-adapted mesh of the pair's regime
        (1e-6, 1.0, None),  # convection-diffusion
        (1e-5, 1e-2, None),  # reaction-convection-diffusion
        (1e-4, 1e-5, None),  # reaction-diffusion
    ]
    for (eps1, eps2, nodes), p in itertools.product(cases, (1, 3, 5, 16, 40, 64)):
        prob = model_problem(eps1, eps2)
        if nodes is not None:
            mesh = user_mesh(nodes)
        else:
            regime = classify_regime(eps1, eps2)
            mesh = build_sbl_mesh(regime, 1.0, p, mu=compute_mu(prob), eps1=eps1)
        system = assemble(prob, mesh, p)
        n = system.dof_map.total
        for _ in range(5):
            xu = rng.standard_normal(n)
            xv = rng.standard_normal(n)
            u = vector_to_weakfunction(system, xu)
            v = vector_to_weakfunction(system, xv)
            assert _rel_gap(float(xv @ system.matrix @ xu), bilinear_apply(u, v, prob)) <= 1e-10
            assert _rel_gap(float(xv @ system.rhs), load_apply(v, prob)) <= 1e-10


def test_bilinear_form_linear_in_first_argument():
    mesh = user_mesh([0.0, 0.5, 1.0])
    rng = np.random.default_rng(29)
    p = 3
    u1 = WeakFunction(mesh, rng.standard_normal((2, 4)), np.r_[0.0, rng.standard_normal(1), 0.0])
    u2 = WeakFunction(mesh, rng.standard_normal((2, 4)), np.r_[0.0, rng.standard_normal(1), 0.0])
    v = WeakFunction(mesh, rng.standard_normal((2, 4)), np.r_[0.0, rng.standard_normal(1), 0.0])
    lhs = bilinear_apply(u1 + u2, v, UNIT)
    rhs = bilinear_apply(u1, v, UNIT) + bilinear_apply(u2, v, UNIT)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    z = WeakFunction.zeros(mesh, p)
    assert bilinear_apply(z, v, UNIT) == 0.0


def test_stabilizer_block_scales_with_eps1():
    mesh = user_mesh([0.0, 0.5, 1.0])
    prob1 = ProblemSpec.from_strings(1e-4, 1e-8, "1", "1", "1")
    prob2 = ProblemSpec.from_strings(2e-4, 1e-8, "1", "1", "1")
    p = 2
    s1 = assemble(prob1, mesh, p)
    s2 = assemble(prob2, mesh, p)
    # with eps2 negligible the interior-node diagonal is pure penalty,
    # sigma_j = eps1 p^2 / h, so doubling eps1 doubles it
    _, vb = s1.dof_map.split(np.arange(s1.dof_map.total))
    i = int(vb[1])  # the first interior node value
    assert s2.matrix[i, i] == pytest.approx(2 * s1.matrix[i, i], rel=1e-5)


def test_zero_load_gives_zero_solution():
    prob = ProblemSpec.from_strings(1e-5, 1e-2, "cos(x)", "1+x", "0")
    mesh = build_sbl_mesh(Regime.REACTION_DIFFUSION, 1.0, 3, mu=compute_mu(prob))
    u_p = solve(assemble(prob, mesh, 3))
    np.testing.assert_allclose(u_p.coeffs, 0.0, atol=1e-14)
    np.testing.assert_allclose(u_p.vb, 0.0, atol=1e-14)


def test_solution_jumps_small_but_nonzero():
    # the computed solution is genuinely nonconforming, with interior
    # jumps well below the solution scale
    prob = model_problem(1e-5, 1e-2)
    from wg_hp.verify import solve_on_sbl_mesh

    _, mesh, u_p = solve_on_sbl_mesh(prob, 4)
    left, right = u_p.jumps()
    interior = np.concatenate([left[1:], right[:-1]])
    scale = float(np.max(np.abs(u_p.vb)))
    assert np.max(np.abs(interior)) > 0
    # pinned from the computed solution: largest interior jump is ~0.031
    # against a solution scale of ~1.32
    assert np.max(np.abs(interior)) <= 5e-2 * scale


def test_coercivity_quadratic_form_identity():
    # integration-by-parts identity for the quadratic form:
    # A(v,v) = eps1*||Dv||^2 + ((r - eps2 b'/2) v0, v0) + S(v,v)
    #          + sum_j eps2 b(x_j)/2 * (right jump at j)^2
    #          + sum_{j internal} eps2 b(x_j)/2 * (left jump at j)^2
    #          + eps2 b(0)/2 * (left jump at 0)^2
    prob = model_problem(1e-4, 1e-2)
    mesh = user_mesh([0.0, 0.15, 0.85, 1.0])
    rng = np.random.default_rng(37)
    for p in (1, 2, 4):
        sig = default_penalties(mesh, p, prob.eps1)
        rule = gauss_rule(p + 8)
        for _ in range(5):
            v = WeakFunction(
                mesh,
                rng.standard_normal((3, p + 1)),
                np.r_[0.0, rng.standard_normal(2), 0.0],
            )
            quad = bilinear_apply(v, v, prob, sig)
            d = weak_derivative(v)
            expect = prob.eps1 * d.l2_norm_sq()
            for j in range(3):
                a, b = mesh.element(j)
                x, w = rule.mapped(a, b)
                v0 = npleg.legval(rule.nodes, v.coeffs[j])
                gam = evaluate(prob.r, x) - prob.eps2 * evaluate(prob.b_prime, x) / 2.0
                expect += float(np.sum(w * gam * v0**2))
            left, right = v.jumps()
            bv = evaluate(prob.b, mesh.nodes)
            expect += float(np.sum(sig * (left**2 + right**2)))
            expect += float(np.sum(prob.eps2 * bv[1:] / 2.0 * right**2))
            expect += float(np.sum(prob.eps2 * bv[:-1] / 2.0 * left**2))
            assert quad == pytest.approx(expect, rel=1e-9)


def weakfunction_to_vector(system: AssembledSystem, v: WeakFunction) -> np.ndarray:
    """The inverse of vector_to_weakfunction: the unknowns of v, whose
    boundary node values must vanish."""
    if abs(v.vb[0]) > 0 or abs(v.vb[-1]) > 0:
        raise ValueError("free vector requires vanishing boundary node values")
    return np.concatenate([v.coeffs.ravel(), v.vb[1:-1]])


def test_vector_round_trip():
    mesh = user_mesh([0.0, 0.4, 1.0])
    system = assemble(UNIT, mesh, 2)
    rng = np.random.default_rng(43)
    x = rng.standard_normal(system.dof_map.total)
    v = vector_to_weakfunction(system, x)
    np.testing.assert_allclose(weakfunction_to_vector(system, v), x)
    bad = WeakFunction(mesh, np.zeros((2, 3)), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        weakfunction_to_vector(system, bad)


def test_local_dof_tables_are_shared_and_read_only():
    tables = _local_dofs(3, 4)
    assert all(a is b for a, b in zip(tables, _local_dofs(3, 4)))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    coeff_index, flat, jump_right, jump_both = tables
    dof = DofMap(3, 4)
    n = dof.total
    coeffs, vb = dof.split(np.arange(n))
    np.testing.assert_array_equal(coeff_index, coeffs.ravel())
    assert flat.shape == (3, 7, 7)
    # element 1: its coefficients, then the two interior node values, each
    # pair of them at its row-major index of the n x n matrix
    dofs = np.concatenate([coeffs[1], vb[1:3]])
    np.testing.assert_array_equal(flat[1], dofs[:, None] * n + dofs)
    # the eliminated boundary node values' rows and columns go to the spare bin
    assert (flat[0, 5] == n * n).all() and (flat[0, :, 5] == n * n).all()
    assert (flat[2, 6] == n * n).all() and (flat[2, :, 6] == n * n).all()
    assert np.count_nonzero(flat == n * n) == 2 * (2 * 7 - 1)
    t_left = np.array([1, -1, 1, -1, 1, -1, 0.0])
    t_right = np.array([1, 1, 1, 1, 1, 0, -1.0])
    np.testing.assert_array_equal(jump_right, np.outer(t_right, t_right))
    np.testing.assert_array_equal(jump_both, np.outer(t_right, t_right) + np.outer(t_left, t_left))


def _padded_scatter(blocks, N, p):
    # the scatter into an (n+2) x (n+2) matrix that assemble used before it
    # indexed the n x n matrix directly: the eliminated boundary node values
    # get indices n and n+1, whose rows and columns are dropped
    n = DofMap(N, p).total
    node_index = np.concatenate([[n], N * (p + 1) + np.arange(N - 1), [n + 1]])
    dof_index = np.column_stack(
        [np.arange(N * (p + 1)).reshape(N, p + 1), node_index[:-1], node_index[1:]]
    )
    flat = dof_index[:, :, None] * (n + 2) + dof_index[:, None, :]
    A = np.bincount(flat.ravel(), weights=blocks.ravel(), minlength=(n + 2) ** 2)
    return A.reshape(n + 2, n + 2)[:n, :n]


@pytest.mark.parametrize("p", [1, 2, 40, 64])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_assemble_scatters_as_the_padded_scatter_bit_for_bit(monkeypatch, N, p):
    # the element blocks assemble hands to bincount, scattered by the oracle
    blocks = []
    real_bincount = np.bincount

    def recording_bincount(x, weights=None, minlength=0):
        blocks.append(weights.reshape(N, p + 3, p + 3))
        return real_bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", recording_bincount)
    nodes = {1: [0.0, 1.0], 2: [0.0, 0.35, 1.0], 3: [0.0, 1e-3, 0.9, 1.0], 4: [0.0, 0.3, 0.65, 0.99, 1.0]}
    mesh = user_mesh(nodes[N])
    for prob in (UNIT, model_problem(1e-6, 1e-2), model_problem(1e-4, 1e-5)):
        for sigmas in (None, np.zeros(N)):
            blocks.clear()
            system = assemble(prob, mesh, p, sigmas=sigmas)
            (element_blocks,) = blocks
            expect = _padded_scatter(element_blocks, N, p)
            assert system.matrix.shape == expect.shape
            assert system.matrix.tobytes() == expect.tobytes(), (N, p, prob.eps1, sigmas)


def test_oracle_paths_evaluate_coefficients_once(monkeypatch):
    import wg_hp.assembly as assembly
    import wg_hp.checks as checks
    import wg_hp.verify as verify
    import wg_hp.weakspace as weakspace

    calls = []
    real = assembly.evaluate

    def counting_evaluate(expr, x):
        calls.append((expr, np.shape(x)))
        return real(expr, x)

    for module in (assembly, checks, verify, weakspace):
        monkeypatch.setattr(module, "evaluate", counting_evaluate)
    prob = model_problem(1e-4, 1e-2)
    mesh = user_mesh([0.0, 0.2, 0.75, 1.0])
    rng = np.random.default_rng(5)
    u = WeakFunction(mesh, rng.standard_normal((3, 5)), [0.0, 0.3, -0.2, 0.0])
    v = WeakFunction(mesh, rng.standard_normal((3, 5)), [0.0, -0.1, 0.4, 0.0])
    # b, b' and r on all elements' quadrature points at once, and b at the
    # nodes; then f on the points
    pts, nodes = (3, 10), (4,)
    bilinear_apply(u, v, prob)
    assert calls == [(prob.b, pts), (prob.b_prime, pts), (prob.r, pts), (prob.b, nodes)]
    calls.clear()
    load_apply(v, prob)
    assert calls == [(prob.f, pts)]

    # the error-equation terms: u (shared by the interpolant and its error),
    # b, b' and r on the quadrature points, then u and u' on the nodes
    case = manufacture("sin(3.141592653589793*x)", prob)
    calls.clear()
    verify.error_equation_terms(case, v)
    assert calls == [
        (case.u_exact, pts), (prob.b, pts), (prob.b_prime, pts), (prob.r, pts),
        (case.u_exact, nodes), (case.u_prime, nodes),
    ]

    # the definition residuals: per case, b and b' on all elements'
    # quadrature points and b on the nodes for the convection derivative,
    # then the same on the finer rule of the residuals
    cases = checks._case_list()
    calls.clear()
    checks.suite_definition_residuals(cases)
    expect = []
    for c, m, p, *_ in cases:
        nodes = (m.n_elements + 1,)
        for nq in (quad_order(p), quad_order(p) + p):
            expect += [(c.b, (m.n_elements, nq)), (c.b_prime, (m.n_elements, nq)), (c.b, nodes)]
    assert calls == expect


def _bilinear_apply_per_element(u, v, problem, sigmas=None, nquad=None):
    # bilinear_apply with one legval per element and function, as it was
    # before its element loop was batched: the oracle for the bits of
    # bilinear_apply and of the stacked bilinear_values
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
    nodes = u.mesh.nodes
    x, w = rule.mapped(nodes[:-1, None], nodes[1:, None])
    rv = evaluate(problem.r, x)
    term3 = 0.0
    for j in range(u.mesh.n_elements):
        u0 = npleg.legval(rule.nodes, u.coeffs[j])
        v0 = npleg.legval(rule.nodes, v.coeffs[j])
        term3 += float(np.sum(w[j] * rv[j] * u0 * v0))
    return (
        term1
        + term2
        + term3
        + stabilizer_S(u, v, sigmas)
        + stabilizer_Sc(u, v, problem.b, problem.eps2)
    )


def _load_apply_per_element(v, problem, nquad=None):
    # load_apply's element loop before batching, kept as its bitwise oracle
    rule = gauss_rule(quad_order(v.degree, nquad))
    nodes = v.mesh.nodes
    x, w = rule.mapped(nodes[:-1, None], nodes[1:, None])
    fv = evaluate(problem.f, x)
    total = 0.0
    for j in range(v.mesh.n_elements):
        v0 = npleg.legval(rule.nodes, v.coeffs[j])
        total += float(np.sum(w[j] * fv[j] * v0))
    return total


ORACLE_MESHES = (
    user_mesh([0.0, 1.0]),
    user_mesh([0.0, 0.35, 1.0]),
    user_mesh([0.0, 1e-3, 0.9, 1.0]),
    user_mesh([0.0, 0.3, 0.65, 1.0]),
)


def test_batched_oracle_paths_match_the_per_element_loops_bit_for_bit():
    rng = np.random.default_rng(83)
    for (eps1, eps2), mesh, p in itertools.product(
        ((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0)), ORACLE_MESHES, range(1, 13)
    ):
        prob = model_problem(eps1, eps2)
        n = mesh.n_elements
        u, v = (
            WeakFunction(mesh, rng.standard_normal((n, p + 1)), rng.standard_normal(n + 1))
            for _ in range(2)
        )
        for nquad in (None, 2 * quad_order(p)):
            where = (eps1, n, p, nquad)
            expect = _bilinear_apply_per_element(u, v, prob, nquad=nquad)
            assert bilinear_apply(u, v, prob, nquad=nquad) == expect, where
            expect = _bilinear_apply_per_element(v, v, prob, nquad=nquad)
            assert bilinear_apply(v, v, prob, nquad=nquad) == expect, where
            assert load_apply(v, prob, nquad) == _load_apply_per_element(v, prob, nquad), where


def test_stacked_bilinear_values_match_the_per_call_form_bit_for_bit():
    # B(u_i, v_i) from one stacked call equals, bit for bit, the old
    # one-function-at-a-time bilinear_apply in its per-element form, for any
    # k and either operand form
    rng = np.random.default_rng(89)
    for (eps1, eps2), mesh, p in itertools.product(
        ((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0)), ORACLE_MESHES, range(1, 13)
    ):
        prob = model_problem(eps1, eps2)
        n = mesh.n_elements
        us, vs = (
            [WeakFunction(mesh, rng.standard_normal((n, p + 1)), rng.standard_normal(n + 1))
             for _ in range(5)]
            for _ in range(2)
        )
        u_all = (np.stack([w.coeffs for w in us]), np.stack([w.vb for w in us]))
        v_all = (np.stack([w.coeffs for w in vs]), np.stack([w.vb for w in vs]))
        for nquad in (None, 2 * quad_order(p)):
            uv = [_bilinear_apply_per_element(a, b, prob, nquad=nquad) for a, b in zip(us, vs)]
            vv = [_bilinear_apply_per_element(b, b, prob, nquad=nquad) for b in vs]
            for k in range(1, 6):
                where = (eps1, n, p, k, nquad)
                u, v = (u_all[0][:k], u_all[1][:k]), (v_all[0][:k], v_all[1][:k])
                assert bilinear_values(mesh, u, v, prob, nquad=nquad).tolist() == uv[:k], where
                assert bilinear_values(mesh, v, v, prob, nquad=nquad).tolist() == vv[:k], where


def test_bilinear_apply_of_v_with_itself_takes_one_weak_derivative(monkeypatch):
    import wg_hp.assembly as assembly

    calls = []
    real = assembly._apply

    def counting_apply(op, coeffs, vb):
        calls.append((op.shape[1], coeffs))
        return real(op, coeffs, vb)

    monkeypatch.setattr(assembly, "_apply", counting_apply)
    prob = model_problem(1e-4, 1e-2)
    mesh = user_mesh([0.0, 0.2, 0.75, 1.0])
    rng = np.random.default_rng(9)
    u = WeakFunction(mesh, rng.standard_normal((3, 5)), [0.0, 0.3, -0.2, 0.0])
    v = WeakFunction(mesh, rng.standard_normal((3, 5)), [0.0, -0.1, 0.4, 0.0])
    # D_{p-1} has p = 4 rows per element, the convection derivative p + 1
    bilinear_apply(v, v, prob)
    assert [rows for rows, _ in calls] == [4, 5]
    assert all(np.array_equal(c[0], v.coeffs) for _, c in calls)
    calls.clear()
    bilinear_apply(u, v, prob)
    assert [rows for rows, _ in calls] == [4, 4, 5]
    assert [np.array_equal(c[0], u.coeffs) for _, c in calls] == [True, False, True]


def test_bilinear_apply_evaluates_b_at_the_nodes_once_and_takes_no_jumps(monkeypatch):
    # both stabilizers share one set of jumps per operand and one b at the
    # nodes, so neither WeakFunction.jumps nor the per-function stabilizers,
    # which call it, run
    import wg_hp.assembly as assembly
    import wg_hp.weakspace as weakspace

    calls = []
    real = assembly.evaluate

    def counting_evaluate(expr, x):
        calls.append((expr, np.shape(x)))
        return real(expr, x)

    def forbidden(*args, **kwargs):
        raise AssertionError("bilinear_apply called WeakFunction.jumps")

    monkeypatch.setattr(assembly, "evaluate", counting_evaluate)
    monkeypatch.setattr(weakspace, "evaluate", counting_evaluate)
    monkeypatch.setattr(WeakFunction, "jumps", forbidden)
    prob = model_problem(1e-6, 1.0)
    mesh = user_mesh([0.0, 0.4, 1.0])
    rng = np.random.default_rng(13)
    u, v = (WeakFunction(mesh, rng.standard_normal((2, 4)), [0.0, 0.7, 0.0]) for _ in range(2))
    for a, b in ((u, v), (v, v)):
        calls.clear()
        bilinear_apply(a, b, prob)
        assert [(e, shape) for e, shape in calls if shape == (3,)] == [(prob.b, (3,))]
        assert len(calls) == 4


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        assemble(UNIT, user_mesh([0.0, 1.0]), 0)


# the two-sided reaction-diffusion layer of width 1e-4 as a manufactured f
LAYER_U = "1 - (exp(-x/1e-4) + exp(-(1-x)/1e-4))/(1 + exp(-1/1e-4))"

# (trace(A), |A @ 1|, |A.T @ 1|, |rhs|) on the layer-adapted mesh, pinned
# from the dense-product form of the element matrices (C.T @ X @ C, with
# the diagonal mass matrices as dense factors); the row-scaled form must
# reproduce it.  The reaction-diffusion keys whose widths are not capped
# (all but 0.0001:1e-05 at p = 40) are pinned from assemble on the mesh of
# widths kappa*p/mu0 and kappa*p/mu1; the matrix that bilinear_apply
# builds entry by entry gives the same fingerprint to 3e-16
ASSEMBLED_BASELINE = {
    ((1e-08, 1.0, None), 1): (11.46505816588984, 5.340206156804353, 5.301611850121533, 1.741222981908518),
    ((1e-08, 1.0, None), 4): (80.1792972016238, 62.78918361227473, 62.29429238312405, 1.741448716037673),
    ((1e-08, 1.0, None), 16): (944.9590317826669, 1653.9802397974602, 1651.1951953148807, 1.741448380054946),
    ((1e-08, 1.0, None), 40): (5553.171164932848, 15710.452211006219, 15700.565702614465, 1.7414477080753978),
    ((1e-08, 0.001, None), 1): (2.009975078286862, 1.7944623713031713, 1.7933791010021083, 1.7401062403626757),
    ((1e-08, 0.001, None), 4): (2.7354029423445723, 1.8959769086918803, 1.8936533704839726, 1.7369755267835367),
    ((1e-08, 0.001, None), 16): (4.176182001011432, 2.1545042149519458, 2.1414223060818145, 1.7235235442810453),
    ((1e-08, 0.001, None), 40): (7.570948837690632, 9.276599540203936, 9.257801597964242, 1.6964871446400167),
    ((1e-06, 0.01, None), 1): (2.0997610036693644, 1.7895128340118742, 1.778636958433383, 1.7300398556487064),
    ((1e-06, 0.01, None), 4): (3.2257390214027675, 1.905869162422842, 1.8805612677156407, 1.6964871446353746),
    ((1e-06, 0.01, None), 16): (9.397690436515438, 9.803365497427533, 9.744693149487311, 1.5598564178504688),
    ((1e-06, 0.01, None), 40): (37.99038956156411, 90.80726709344013, 90.68816200558, 1.4542695234420913),
    ((1e-06, 1e-06, None), 1): (2.012014485126493, 1.7910436302545216, 1.7910425449740046, 1.7373712854905305),
    ((1e-06, 1e-06, None), 4): (2.821280433152984, 1.8838967077998328, 1.8838942342551683, 1.7260757402488682),
    ((1e-06, 1e-06, None), 16): (5.4493949032246265, 2.9757494676580514, 2.9757323630177512, 1.680648719503115),
    ((1e-06, 1e-06, None), 40): (15.488277634136, 22.132626096484906, 22.13259325587402, 1.5930154659455837),
    ((0.0001, 1e-05, None), 1): (2.1208812436343805, 1.7559164963700422, 1.7559054234100293, 1.7030272038501713),
    ((0.0001, 1e-05, None), 4): (4.115002538268459, 1.9611961751238922, 1.9611585947933712, 1.5930154659426972),
    ((0.0001, 1e-05, None), 16): (24.193381381253637, 23.503039606084776, 23.502907685471975, 1.230687016670163),
    ((0.0001, 1e-05, None), 40): (224.65886668063507, 373.21776406180766, 373.21742173659874, 1.0684633886893011),
    ((1e-08, 0.0001, LAYER_U), 1): (2.0019882423623936, 1.7947526891748087, 1.7946443991199301, 1.508938971611931),
    ((1e-08, 0.0001, LAYER_U), 4): (2.697957939592169, 1.89761737345337, 1.897386356175385, 1.5080633499568201),
    ((1e-08, 0.0001, LAYER_U), 16): (3.8072118015760608, 1.954289137923365, 1.952907397338211, 1.5045615985937428),
    ((1e-08, 0.0001, LAYER_U), 40): (5.498275404210186, 3.3392115168300958, 3.335221325734902, 1.497561869485341),
}


# the same fingerprint on user meshes: at p = 64 on 2 and 3 elements, which
# no SBL mesh above has, pinned from the per-element assembly loop; and at
# p = 40 on the one element [0, 1], pinned when the SBL mesh of these two
# eps pairs still fell back to it there
USER_MESH_BASELINE = {
    ((1e-08, 1.0, None), (0.0, 0.3, 1.0), 64): (118.45819230572216, 338.45618852597596, 326.6418719986415, 1.4214388893980143),
    ((1e-06, 0.01, None), (0.0, 0.001, 0.7, 1.0), 64): (900.7686222727439, 3192.9664181978846, 3192.4445033348334, 1.239770802987062),
    ((1e-06, 0.01, None), (0.0, 1.0), 40): (4.796574421066833, 2.992059056046897, 2.7019358769906896, 1.7414488280415414),
    ((0.0001, 1e-05, None), (0.0, 1.0), 40): (25.91415234199785, 63.5866560248814, 63.58654552794687, 1.7414488280415414),
}


@pytest.mark.parametrize(
    "key, p, nodes",
    [(key, p, None) for key, p in ASSEMBLED_BASELINE]
    + [(key, p, nodes) for key, nodes, p in USER_MESH_BASELINE],
    ids=[f"{e1:g}:{e2:g}{':layer' if u else ''}-p{p}" for (e1, e2, u), p in ASSEMBLED_BASELINE]
    + [f"{e1:g}:{e2:g}-N{len(nodes) - 1}-p{p}" for (e1, e2, _), nodes, p in USER_MESH_BASELINE],
)
def test_assemble_matches_pinned_baseline(key, p, nodes):
    eps1, eps2, u_text = key
    prob = model_problem(eps1, eps2)
    if u_text is not None:
        prob = manufacture(u_text, prob).problem
    if nodes is None:
        mesh, expected = sbl_mesh(prob, p), ASSEMBLED_BASELINE[key, p]
    else:
        mesh, expected = user_mesh(nodes), USER_MESH_BASELINE[key, nodes, p]
    system = assemble(prob, mesh, p)
    ones = np.ones(system.dof_map.total)
    got = (
        np.trace(system.matrix),
        np.linalg.norm(system.matrix @ ones),
        np.linalg.norm(system.matrix.T @ ones),
        np.linalg.norm(system.rhs),
    )
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)


# five problems for the stacks: four regimes' worth of eps pairs on the
# stock coefficients, one with its own f and one with its own b, r and f
STACK_PROBLEMS = (
    model_problem(1e-8, 1e-3),
    model_problem(1e-6, 1e-2),
    manufacture("x*(1-x)*exp(x)", model_problem(1e-4, 1e-5)).problem,
    ProblemSpec.from_strings(0.5, 0.25, "2+x", "3", "1"),
    model_problem(1e-6, 1e-6),
)
STACK_NODES = {
    2: ([0.0, 0.4, 1.0], [0.0, 0.9, 1.0], [0.0, 1.0 - 1e-6, 1.0], [0.0, 0.5, 1.0], [0.0, 0.1, 1.0]),
    3: ([0.0, 0.2, 0.75, 1.0], [0.0, 1e-3, 0.9, 1.0], [0.0, 0.25, 0.75, 1.0],
        [0.0, 1e-7, 1.0 - 1e-7, 1.0], [0.0, 0.3, 0.35, 1.0]),
}


def test_stacked_assembly_and_solve_match_one_system_at_a_time_bit_for_bit():
    # stacks of 1 to 5 problems with 2 and 3 elements at every p = 1..40,
    # with the default and a doubled quadrature and a penalty override
    systems = 0
    for p in range(1, 41):
        for N in (2, 3):
            k = 1 + (p + N) % 5
            probs = STACK_PROBLEMS[:k]
            meshes = [user_mesh(nodes) for nodes in STACK_NODES[N][:k]]
            nquad = None if p % 2 else 2 * quad_order(p)
            sigmas = None if p % 3 else np.linspace(0.5, 2.0, k * N).reshape(k, N)
            matrices, rhs = assemble_stack(probs, meshes, p, sigmas, nquad)
            solutions = solve_stack(matrices, rhs)
            assert matrices.shape == (k, DofMap(N, p).total, DofMap(N, p).total)
            for i, (prob, mesh) in enumerate(zip(probs, meshes)):
                where = (p, N, k, i)
                system = assemble(prob, mesh, p, None if sigmas is None else sigmas[i], nquad)
                assert matrices[i].tobytes() == system.matrix.tobytes(), where
                assert rhs[i].tobytes() == system.rhs.tobytes(), where
                u = solve(system)
                got = vector_to_weakfunction(system, solutions[i])
                assert got.coeffs.tobytes() == u.coeffs.tobytes(), where
                assert got.vb.tobytes() == u.vb.tobytes(), where
                systems += 1
    assert systems == 240


def test_stacked_solve_raises_as_the_first_failing_system_would():
    probs = STACK_PROBLEMS[:3]
    meshes = [user_mesh(nodes) for nodes in STACK_NODES[3][:3]]
    matrices, rhs = assemble_stack(probs, meshes, 4)
    bad = rhs.copy()
    bad[1, 0] = np.inf
    with pytest.raises(SingularSystemError, match="not finite"):
        solve_stack(matrices, bad)
    singular = matrices.copy()
    singular[2] = 0.0
    with pytest.raises(SingularSystemError, match="Singular matrix"):
        solve_stack(singular, rhs)
    # the stack is unchanged by the failed solves
    assert solve_stack(matrices, rhs).shape == rhs.shape


def test_stacked_assembly_evaluates_an_equal_coefficient_once(monkeypatch):
    import wg_hp.assembly as assembly
    import wg_hp.weakspace as weakspace

    calls = []
    real = weakspace.evaluate

    def counting_evaluate(expr, x):
        calls.append((expr, np.shape(x)))
        return real(expr, x)

    monkeypatch.setattr(weakspace, "evaluate", counting_evaluate)
    monkeypatch.setattr(assembly, "evaluate", counting_evaluate)
    # equal, not identical, coefficients: each problem parsed on its own
    probs = [model_problem(eps1, 1e-2) for eps1 in (1e-6, 1e-5, 1e-4)]
    assert probs[0].b is not probs[1].b and probs[0].b == probs[1].b
    meshes = [user_mesh(nodes) for nodes in STACK_NODES[3][:3]]
    pts, nodes = (3, 3, 10), (3, 4)
    assemble_stack(probs, meshes, 4)
    assert calls == [(probs[0].b, pts), (probs[0].b_prime, pts), (probs[0].r, pts),
                     (probs[0].f, pts), (probs[0].b, nodes)]
    # a coefficient that differs within the stack is evaluated problem by problem
    calls.clear()
    case = manufacture("x*(1-x)", probs[1])
    assemble_stack([probs[0], case.problem, probs[2]], meshes, 4)
    row = (3, 10)
    assert calls[3:6] == [(probs[0].f, row), (case.problem.f, row), (probs[2].f, row)]
    assert [c for c in calls if c not in calls[3:6]] == [
        (probs[0].b, pts), (probs[0].b_prime, pts), (probs[0].r, pts), (probs[0].b, nodes)]


def test_stacked_assembly_compares_no_tree_of_a_shared_coefficient(monkeypatch):
    from wg_hp._frozen import Frozen

    # the problems share one object per coefficient, as the CLI's eps pairs do
    first = model_problem(1e-6, 1e-2)
    shared = [first] + [ProblemSpec(eps1, 1e-2, first.b, first.r, first.f, first.b_prime)
                        for eps1 in (1e-5, 1e-4)]
    meshes = [user_mesh(nodes) for nodes in STACK_NODES[3][:3]]
    expected = assemble_stack([model_problem(prob.eps1, prob.eps2) for prob in shared], meshes, 4)
    compared = []
    real_eq = Frozen.__eq__
    monkeypatch.setattr(Frozen, "__eq__", lambda a, b: compared.append(a) or real_eq(a, b))
    got = assemble_stack(shared, meshes, 4)
    assert compared == []
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


def test_stacked_assembly_rejects_meshes_of_different_sizes():
    meshes = [user_mesh(STACK_NODES[2][0]), user_mesh(STACK_NODES[3][0])]
    with pytest.raises(ValueError, match="same number of elements"):
        assemble_stack(STACK_PROBLEMS[:2], meshes, 3)
