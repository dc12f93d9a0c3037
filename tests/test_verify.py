"""Manufactured solutions, reference solutions and the convergence study."""

import os
import re
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import wg_hp.assembly as assembly
import wg_hp.verify as verify
from wg_hp.coeffexpr import evaluate, parse
from wg_hp.polybasis import gauss_rule, interpolant_coefficients, interpolate, l2_project, quad_order
from wg_hp.problem import ProblemSpec, Regime, model_problem
from wg_hp.slmesh import MeshDegeneracyError, build_sbl_mesh, user_mesh
from wg_hp.verify import (
    BoundaryValueError,
    CaseFailure,
    _workers,
    convergence_study,
    convergence_sweep,
    energy_error,
    error_equation_terms,
    exact_weakfunction,
    interpolant_weakfunction,
    manufacture,
    reference_solution,
    sbl_mesh,
    solve_on_sbl_mesh,
)
from wg_hp.assembly import assemble, bilinear_apply, solve
from wg_hp.weakspace import MeshMismatchError, WeakFunction, default_penalties, norm_broken

from cases import (
    CRITERION_6_PAIRS,
    LAYER_CASES,
    TWO_LAYER_PAIRS,
    UNIT,
    true_energy_error,
    two_layer_case,
)


def test_manufactured_rhs_hand_computed():
    # u = x(1-x), b = r = 1, eps1 = eps2 = 1 -> f = 2 + (1-2x) + x(1-x)
    case = manufacture("x*(1-x)", UNIT)
    xs = np.linspace(0, 1, 21)
    expect = 2.0 + (1.0 - 2.0 * xs) + xs * (1.0 - xs)
    np.testing.assert_allclose(evaluate(case.problem.f, xs), expect, atol=1e-13)


def test_manufactured_accepts_sine():
    case = manufacture("sin(3.141592653589793*x)", UNIT)
    assert abs(evaluate(case.u_exact, 0.0)) <= 1e-13
    assert abs(evaluate(case.u_exact, 1.0)) <= 1e-13


def test_manufactured_rejects_nonzero_boundary():
    with pytest.raises(BoundaryValueError):
        manufacture("x", UNIT)


def test_manufacture_accepts_parsed_expression():
    case = manufacture(parse("x*(1-x)*exp(x)"), UNIT)
    assert evaluate(case.u_prime, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_reference_reproduces_polynomial_solution():
    case = manufacture("x*(1-x)", UNIT)
    mesh = user_mesh([0.0, 0.4, 1.0])
    p = 3
    ref = reference_solution(case.problem, mesh, p)
    assert ref.degree == 2 * p
    u_star = exact_weakfunction(case, mesh, 2 * p)
    _, rel = energy_error(u_star, ref.pad_to_degree(2 * p), case.problem)
    assert rel <= 1e-9


def test_reference_beats_degree_p_error():
    case = manufacture("sin(3.141592653589793*x)", model_problem(1e-4, 1e-2))
    prob = case.problem
    _, mesh, u_p = solve_on_sbl_mesh(prob, 3)
    ref = reference_solution(prob, mesh, 3)
    u_star = exact_weakfunction(case, mesh, 8, nquad=30)
    _, rel_ref = energy_error(u_star.pad_to_degree(8), ref.pad_to_degree(8), prob)
    _, rel_p = energy_error(u_star.pad_to_degree(8), u_p.pad_to_degree(8), prob)
    assert rel_ref < rel_p


@pytest.mark.parametrize(
    "eps1, eps2, u_text", [pytest.param(*case[1:], id=case[0]) for case in LAYER_CASES[:5]]
)
def test_reference_error_tracks_true_error_on_layer_solutions(eps1, eps2, u_text):
    """Effectivity of the degree-2p estimate against the projection error:
    the broken energy-norm distance from u_p to the degree-2p projection of
    the exact solution on the same mesh, which is not the true error of
    tests/cases.py.  Each layer here is as wide as its regime predicts.

    A layer wider than the problem's own is the estimate's blind spot.  At
    (1e-9, 0.1), whose layer scale is about 1e-8, an outflow layer of width
    1e-8 gives a ratio of 1.000 at p = 4..16; one of width 1e-7 reaches
    past the layer element into the interior one, both solves miss its tail
    together, and the ratio is 0.025 at p = 4, 8e-4 at p = 8 and below 1e-4
    at p = 12 and 16."""
    case = manufacture(u_text, model_problem(eps1, eps2))
    prob = case.problem
    for p in (4, 8, 12, 16):
        _, mesh, u_p = solve_on_sbl_mesh(prob, p)
        estimate, _ = energy_error(reference_solution(prob, mesh, p), u_p, prob)
        projected, _ = energy_error(exact_weakfunction(case, mesh, 2 * p), u_p, prob)
        assert 0.8 <= estimate / projected <= 1.25, (p, estimate, projected)


def test_two_layer_case_vanishes_at_both_ends_and_its_true_error_is_relative():
    for eps1, eps2 in TWO_LAYER_PAIRS:
        case = two_layer_case(eps1, eps2)
        assert abs(case.u(0.0, 1.0)) <= 1e-15 and abs(case.u(1.0, 0.0)) <= 1e-15
        # u0 = 0 leaves all of u: a relative error of 1
        mesh = sbl_mesh(case.problem, 4)
        zero = np.zeros((mesh.n_elements, 5))
        assert true_energy_error(case, mesh, zero) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("eps1, eps2", TWO_LAYER_PAIRS)
def test_energy_error_bounds_the_true_error_of_the_two_layer_case(eps1, eps2):
    """The degree-2p estimate against the closed-form two-layer solution,
    in the true error of true_energy_error: it overestimates by a narrow
    factor that does not depend on eps (1.15 to 1.59 measured) and never
    underestimates, wherever the true error is above the 1e-13 floor."""
    case = two_layer_case(eps1, eps2)
    prob = case.problem
    assert prob.mu is None or (prob.mu.mu0, prob.mu.mu1) == pytest.approx((case.mu0, case.mu1))
    for p in (4, 8, 16, 24):
        _, mesh, u_p = solve_on_sbl_mesh(prob, p)
        true = true_energy_error(case, mesh, u_p.coeffs)
        if true <= 1e-13:
            continue
        _, estimate = energy_error(reference_solution(prob, mesh, p), u_p, prob)
        assert 1.0 <= estimate / true <= 2.0, (p, estimate, true)


def test_energy_error_zero_and_homogeneity():
    prob = model_problem(1e-4, 1e-3)
    _, mesh, u_p = solve_on_sbl_mesh(prob, 2)
    ref = reference_solution(prob, mesh, 2)
    assert energy_error(ref, ref, prob) == (0.0, 0.0)
    a1, r1 = energy_error(ref, u_p, prob)
    a2, r2 = energy_error(3.0 * ref, 3.0 * u_p, prob)
    assert a2 == pytest.approx(3.0 * a1, rel=1e-12)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_energy_error_is_norm_broken_of_the_padded_difference():
    # the stacked estimate reproduces, bit for bit, norm_broken of
    # u_hi - u_lo.pad_to_degree(P) and its ratio to norm_broken(u_hi)
    prob = model_problem(1e-5, 1e-2)
    rng = np.random.default_rng(61)
    meshes = [user_mesh([0.0, 1.0]), user_mesh([0.0, 0.35, 1.0]), user_mesh([0.0, 1e-3, 0.9, 1.0])]
    for P in range(1, 65):
        for mesh in meshes:
            n = mesh.n_elements
            sigmas = default_penalties(mesh, P, prob.eps1)
            u_hi = WeakFunction(mesh, rng.standard_normal((n, P + 1)), rng.standard_normal(n + 1))
            for lo_degree in (P, P // 2):
                u_lo = WeakFunction(
                    mesh, rng.standard_normal((n, lo_degree + 1)), rng.standard_normal(n + 1)
                )
                absolute, relative = energy_error(u_hi, u_lo, prob)
                expect = norm_broken(u_hi - u_lo.pad_to_degree(P), prob, sigmas)
                assert absolute == expect, (P, n, lo_degree)
                assert relative == expect / norm_broken(u_hi, prob, sigmas), (P, n, lo_degree)


def test_energy_error_rejects_other_meshes_and_a_higher_degree_u_lo():
    prob = model_problem(1e-5, 1e-2)
    mesh = user_mesh([0.0, 0.5, 1.0])
    u = WeakFunction(mesh, np.ones((2, 5)), [0.0, 1.0, 0.0])
    for other in (user_mesh([0.0, 0.4, 1.0]), user_mesh([0.0, 0.2, 0.6, 1.0])):
        with pytest.raises(MeshMismatchError):
            energy_error(u, WeakFunction.zeros(other, 2), prob)
    with pytest.raises(ValueError):
        energy_error(u, WeakFunction.zeros(mesh, 5), prob)
    # a zero reference norm gives a relative error of 0 or inf
    zero = WeakFunction.zeros(mesh, 4)
    assert energy_error(zero, WeakFunction.zeros(mesh, 2), prob) == (0.0, 0.0)
    absolute, relative = energy_error(zero, u, prob)
    assert absolute > 0 and relative == np.inf


def test_error_equation_identity():
    case = manufacture("sin(3.141592653589793*x)", model_problem(1e-5, 1e-2))
    prob = case.problem
    rng = np.random.default_rng(19)
    for p in (2, 4):
        regime, mesh, u_p = solve_on_sbl_mesh(prob, p)
        iu = interpolant_weakfunction(case, mesh, p)
        v = type(iu)(
            mesh,
            rng.standard_normal((mesh.n_elements, p + 1)),
            np.r_[0.0, rng.standard_normal(mesh.n_elements - 1), 0.0],
        )
        lhs = bilinear_apply(iu - u_p, v, prob)
        e1, e2, e3 = error_equation_terms(case, v)
        scale = max(abs(lhs), abs(e1) + abs(e2) + abs(e3))
        assert abs(lhs - (e1 + e2 + e3)) <= 1e-8 * scale


def _error_equation_terms_per_element(case, v, nquad=None):
    # error_equation_terms with one interpolant, ElementPoly derivative and
    # legval per element, as it was before its element loops were batched:
    # the oracle for its bits
    mesh = v.mesh
    p = v.degree
    prob = case.problem
    nq = quad_order(p, nquad)
    rule = gauss_rule(nq)
    x, w = rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    uv = evaluate(case.u_exact, x)
    vb = evaluate(case.u_exact, mesh.nodes)
    coeffs = [interpolant_coefficients(uv[j], vb[j], vb[j + 1], p, nq) for j in range(len(uv))]
    iu = WeakFunction(mesh, coeffs, vb)
    up = evaluate(case.u_prime, mesh.nodes).tolist()
    e1 = 0.0
    jl, jr = v.jumps()
    for j in range(mesh.n_elements):
        dpoly = iu.element_poly(j).derivative()
        xl, xr = mesh.element(j)
        err_d_right = up[j + 1] - float(dpoly(xr))
        err_d_left = up[j] - float(dpoly(xl))
        e1 += prob.eps1 * (err_d_right * jr[j] - err_d_left * jl[j])
    bv = evaluate(prob.b, x)
    bpv = evaluate(prob.b_prime, x)
    rv = evaluate(prob.r, x)
    e2 = 0.0
    e3 = 0.0
    for j in range(mesh.n_elements):
        h = mesh.widths[j]
        uerr = uv[j] - npleg.legval(rule.nodes, iu.coeffs[j])
        v0 = npleg.legval(rule.nodes, v.coeffs[j])
        dv0 = npleg.legval(rule.nodes, npleg.legder(v.coeffs[j])) * (2.0 / h)
        e2 += prob.eps2 * float(np.sum(w[j] * uerr * (bpv[j] * v0 + bv[j] * dv0)))
        e3 += float(np.sum(w[j] * rv[j] * (-uerr) * v0))
    return e1, e2, e3


def test_error_equation_terms_match_the_per_element_loops_bit_for_bit():
    rng = np.random.default_rng(47)
    meshes = [
        user_mesh(nodes)
        for nodes in ([0.0, 1.0], [0.0, 0.35, 1.0], [0.0, 1e-3, 0.9, 1.0], [0.0, 0.3, 0.65, 1.0])
    ]
    for eps1, eps2 in ((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0)):
        case = manufacture("sin(3.141592653589793*x)*exp(x)", model_problem(eps1, eps2))
        for mesh in meshes:
            n = mesh.n_elements
            for p in range(1, 13):
                v = WeakFunction(mesh, rng.standard_normal((n, p + 1)), rng.standard_normal(n + 1))
                for nquad in (None, 2 * quad_order(p)):
                    expect = _error_equation_terms_per_element(case, v, nquad)
                    assert error_equation_terms(case, v, nquad) == expect, (eps1, n, p, nquad)


def test_projections_evaluate_the_exact_solution_twice(monkeypatch):
    # once on all elements' quadrature points, once on the nodes; the
    # per-element projections reproduce l2_project and interpolate exactly
    import wg_hp.coeffexpr as coeffexpr
    import wg_hp.verify as verify
    import wg_hp.weakspace as weakspace

    calls = []
    real = coeffexpr.evaluate

    def counting_evaluate(expr, x):
        calls.append((expr, np.shape(x)))
        return real(expr, x)

    case = manufacture("x*(1-x)*exp(x) + sin(3.141592653589793*x)", model_problem(1e-6, 1e-2))
    mesh = user_mesh([0.0, 1e-3, 0.7, 1.0])

    def y(x):
        return real(case.u_exact, x)

    for p, nquad in ((1, None), (6, None), (6, 19)):
        nq = p + 6 if nquad is None else nquad
        for project, per_element in (
            (exact_weakfunction, l2_project),
            (interpolant_weakfunction, interpolate),
        ):
            calls.clear()
            with monkeypatch.context() as m:
                for module in (coeffexpr, verify, weakspace):
                    m.setattr(module, "evaluate", counting_evaluate)
                w = project(case, mesh, p, nquad)
            assert calls == [(case.u_exact, (3, nq)), (case.u_exact, (4,))]
            for j in range(3):
                expect = per_element(y, p, mesh.element(j), nquad).coeffs
                assert w.coeffs[j].tobytes() == expect.tobytes()
            assert w.vb.tolist() == [evaluate(case.u_exact, t) for t in mesh.nodes]


def test_study_empty_range():
    records, failures = convergence_study(model_problem(1e-4, 1e-3), [])
    assert records == [] and failures == []


def test_study_cardinality_sorting_and_determinism():
    grid = [(1e-4, 1e-4), (1e-5, 1e-2)]
    recs1, fails1, recs2 = [], [], []
    for eps1, eps2 in grid:
        recs, fails = convergence_study(model_problem(eps1, eps2), [2, 1])
        recs1 += recs
        fails1 += fails
        recs2 += convergence_study(model_problem(eps1, eps2), [2, 1])[0]
    assert len(recs1) == 4 and fails1 == []
    # records come back in p_range order, one problem at a time
    keys = [(r.eps1, r.eps2, r.p) for r in recs1]
    assert keys == [(eps1, eps2, p) for eps1, eps2 in grid for p in (2, 1)]
    for a, b in zip(recs1, recs2):
        assert a.err_rel == b.err_rel and a.err_abs == b.err_abs
    for rec in recs1:
        assert rec.dof == rec.n_elements * (rec.p + 1) + rec.n_elements - 1
        assert rec.ref_degree == 2 * rec.p


def test_study_collects_failures_instead_of_raising():
    bad = ProblemSpec.from_strings(1e-4, 1e-3, "-1", "1", "1")  # violates b > 0
    records, failures = convergence_study(bad, [2, 3])
    assert records == []
    assert [f.p for f in failures] == [2, 3]
    assert all("b" in f.message for f in failures)


def test_study_sets_up_each_eps_pair_once(monkeypatch):
    import wg_hp.problem as problem_mod

    setups = []
    validations = []
    mu_calls = []
    real_classify = problem_mod.classify_regime
    real_validate = problem_mod.validate
    real_mu = problem_mod.compute_mu

    def counting_classify_regime(eps1, eps2):
        setups.append((eps1, eps2))
        return real_classify(eps1, eps2)

    def counting_validate(spec):
        validations.append((spec.eps1, spec.eps2))
        return real_validate(spec)

    def counting_compute_mu(spec):
        mu_calls.append((spec.eps1, spec.eps2))
        return real_mu(spec)

    monkeypatch.setattr(problem_mod, "classify_regime", counting_classify_regime)
    monkeypatch.setattr(problem_mod, "validate", counting_validate)
    monkeypatch.setattr(problem_mod, "compute_mu", counting_compute_mu)
    grid = [(1e-5, 1e-2), (1e-4, 1e-4)]
    records, failures = [], []
    for eps1, eps2 in grid:
        recs, fails = convergence_study(model_problem(eps1, eps2), [1, 2, 3])
        records += recs
        failures += fails
    assert failures == [] and len(records) == 6
    assert setups == grid
    assert validations == grid
    # neither pair is convection-diffusion, so each pair's mesh reads mu
    assert mu_calls == grid


forks = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "fork")),
    reason="convergence_sweep forks on Linux only",
)


def use_cpus(monkeypatch, n):
    """Let convergence_sweep see n usable CPUs and fork for any number of
    cases."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(verify, "MIN_SHARE_CASES", 1)


@forks
def test_sweep_forks_one_share_per_cpu_and_per_min_share_cases(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert verify.MIN_SHARE_CASES == 20
    assert _workers(20, 100) == 5  # the criterion-6 sweep, capped by its cases
    assert _workers(3, 100) == 3  # capped by its degrees
    assert _workers(20, 20) == 1 and _workers(2, 10) == 1  # too few cases to fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _workers(20, 100) == 1  # taskset -c 0


@forks
@pytest.mark.parametrize("quad_double", [False, True])
def test_sweep_gives_the_same_records_for_any_worker_count(monkeypatch, quad_double):
    p_range = range(1, 9)
    serial_records, serial_failures = [], []
    for eps1, eps2 in CRITERION_6_PAIRS:
        recs, fails = convergence_study(model_problem(eps1, eps2), p_range, quad_double=quad_double)
        serial_records += recs
        serial_failures += fails
    assert len(serial_records) == 40 and serial_failures == []
    for workers in (1, 2, 3):
        use_cpus(monkeypatch, workers)
        assert _workers(len(p_range), 40) == workers  # 2 and 3 really fork
        problems = [model_problem(eps1, eps2) for eps1, eps2 in CRITERION_6_PAIRS]
        records, failures = convergence_sweep(problems, p_range, quad_double=quad_double)
        assert records == serial_records and failures == []


def test_sweep_keeps_p_range_order_and_rejects_a_repeated_degree(monkeypatch):
    use_cpus(monkeypatch, 2)
    prob = model_problem(1e-5, 1e-2)
    records, failures = convergence_sweep([prob], [3, 1, 4, 2])
    assert [r.p for r in records] == [3, 1, 4, 2] and failures == []
    assert records == convergence_study(prob, [3, 1, 4, 2])[0]
    with pytest.raises(ValueError, match="repeat"):
        convergence_sweep([prob], [2, 3, 2])


@forks
def test_sweep_fails_an_invalid_problem_at_every_p_in_every_share(monkeypatch):
    bad = ProblemSpec.from_strings(1e-4, 1e-3, "-1", "1", "1")  # violates b > 0
    message = convergence_study(bad, [1])[1][0].message
    expected_records = convergence_study(model_problem(1e-6, 1e-2), range(1, 6))[0]
    for workers in (1, 2, 3):
        use_cpus(monkeypatch, workers)
        problems = [model_problem(1e-6, 1e-2), bad]
        records, failures = convergence_sweep(problems, range(1, 6))
        assert records == expected_records
        assert failures == [CaseFailure(1e-4, 1e-3, p, message) for p in range(1, 6)]


@forks
def test_sweep_raises_when_a_worker_dies_and_leaves_no_child(monkeypatch):
    parent = os.getpid()
    real_degree = verify._degree_outcomes

    def degree_that_kills_the_children(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real_degree(*args, **kwargs)

    monkeypatch.setattr(verify, "_degree_outcomes", degree_that_kills_the_children)
    use_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="exited with status 3$"):
        convergence_sweep([model_problem(1e-6, 1e-2)], range(1, 7))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks
def test_sweep_reaps_workers_blocked_on_a_full_pipe_after_a_failure(monkeypatch):
    # shares [4], [3], [2], [1]: the first child dies while the two after it
    # block writing more than a pipe buffer holds, so the parent must break
    # both pipes before it waits for either child
    # (the workers receive _study pickled by name, so the test patches the
    # per-degree function it calls, which each worker reads as forked)
    parent = os.getpid()
    real_degree = verify._degree_outcomes

    def degree(problems, p, kappa, quad_double):
        if os.getpid() == parent:
            return real_degree(problems, p, kappa, quad_double)
        if p == 3:
            os._exit(3)
        return ["x" * (1 << 20)]

    def timed_out(signum, frame):
        raise TimeoutError("convergence_sweep hung reaping its workers")

    monkeypatch.setattr(verify, "_degree_outcomes", degree)
    use_cpus(monkeypatch, 4)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="exited with status 3$"):
            convergence_sweep([model_problem(1e-6, 1e-2)], range(1, 5))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


MIXED_GRID = [(1e-13, 1.0), (1e-8, 1.0), (1e-8, 1e-3), (1e-6, 1e-6)]


@forks
def test_sweep_of_a_mixed_grid_matches_per_problem_studies(monkeypatch):
    # the first pair's mesh degenerates at p <= 9, inside the two-problem
    # stack of the convection-diffusion pairs, and joins it from p = 10 on
    p_range = range(6, 13)
    expected_records, expected_failures = [], []
    for eps1, eps2 in MIXED_GRID:
        recs, fails = convergence_study(model_problem(eps1, eps2), p_range)
        expected_records += recs
        expected_failures += fails
    assert [(f.eps1, f.p) for f in expected_failures] == [(1e-13, p) for p in range(6, 10)]
    assert all("too thin to resolve the layer" in f.message for f in expected_failures)
    assert len(expected_records) == 4 * 7 - 4
    for workers in (1, 2):
        use_cpus(monkeypatch, workers)
        problems = [model_problem(eps1, eps2) for eps1, eps2 in MIXED_GRID]
        records, failures = convergence_sweep(problems, p_range)
        assert records == expected_records and failures == expected_failures


# six three-element pairs and two two-element ones, interleaved
STACKED_GRID = [(1e-8, 1e-3), (1e-8, 1.0), (1e-6, 1e-2), (1e-6, 1e-6), (1e-4, 1e-5),
                (1e-6, 1.0), (1e-5, 1e-2), (1e-4, 1e-4)]


def test_degree_stacks_problems_by_element_count_within_the_byte_budget(monkeypatch):
    stacks = []
    real_stack, real_one = verify.assemble_stack, verify.assemble

    def recording_assemble_stack(problems, meshes, p, sigmas=None, nquad=None):
        stacks.append((p, [(prob.eps1, prob.eps2) for prob in problems]))
        return real_stack(problems, meshes, p, sigmas, nquad)

    def recording_assemble(problem, mesh, p, sigmas=None, nquad=None):
        stacks.append((p, [(problem.eps1, problem.eps2)]))
        return real_one(problem, mesh, p, sigmas, nquad)

    monkeypatch.setattr(verify, "assemble_stack", recording_assemble_stack)
    monkeypatch.setattr(verify, "assemble", recording_assemble)
    grid = STACKED_GRID
    problems = [model_problem(eps1, eps2) for eps1, eps2 in grid]
    three = [grid[i] for i in (0, 2, 3, 4, 6, 7)]
    two = [grid[i] for i in (1, 5)]
    # three-element systems: n = 3p + 5 unknowns, n*n*8 bytes each
    assert [verify.STACK_BYTES // (8 * (3 * p + 5) ** 2) for p in (6, 12, 24, 30)] == [
        33, 10, 2, 1]
    for p, expected in [
        # every stack within the budget
        (3, [(3, three), (6, three), (3, two), (6, two)]),
        # the 2p stack cut in pairs
        (12, [(12, three), (24, three[:2]), (24, three[2:4]), (24, three[4:]),
              (12, two), (24, two)]),
        # the 2p stack over the budget for two: one problem at a time
        (15, [(15, three)] + [(30, [pair]) for pair in three] + [(15, two), (30, two)]),
    ]:
        stacks.clear()
        outcomes = verify._degree_outcomes(problems, p, 1.0, False)
        assert stacks == expected, p
        # each outcome is the one-problem study's
        assert outcomes == [convergence_study(prob, [p])[0][0] for prob in problems]


@forks
@pytest.mark.parametrize("quad_double", [False, True], ids=["plain", "quad-double"])
def test_sweep_errors_are_energy_error_of_one_problem_solves(monkeypatch, quad_double):
    # the oracle is each case alone, through the public one-problem calls:
    # solve(assemble(...)) at p and 2p and energy_error on their weak
    # functions, none of which the stacked error step runs
    problems = [model_problem(eps1, eps2) for eps1, eps2 in STACKED_GRID]
    p_range = [1, 4, 7]
    expected = []
    for prob in problems:
        for p in p_range:
            mesh = sbl_mesh(prob, p)
            nquad = 2 * quad_order(p) if quad_double else None
            u_hi = solve(assemble(prob, mesh, 2 * p, nquad=nquad))
            u_lo = solve(assemble(prob, mesh, p, nquad=nquad))
            err_abs, err_rel = energy_error(u_hi, u_lo, prob)
            expected.append((prob.eps1, prob.eps2, p, mesh.n_elements, err_abs, err_rel))
    # the six three-element pairs are one stack at every p and 2p
    assert verify.STACK_BYTES >= 6 * 8 * assembly.DofMap(3, 14).total ** 2
    assert sorted(n for _, _, p, n, _, _ in expected if p == 4) == [2, 2] + [3] * 6

    def per_case(*args, **kwargs):
        raise AssertionError("the sweep built a per-case weak function or error")

    monkeypatch.setattr(verify, "energy_error", per_case)
    monkeypatch.setattr(assembly, "vector_to_weakfunction", per_case)
    for workers in (1, 2):
        use_cpus(monkeypatch, workers)
        records, failures = convergence_sweep(problems, p_range, quad_double=quad_double)
        assert failures == []
        got = [(r.eps1, r.eps2, r.p, r.n_elements, r.err_abs, r.err_rel) for r in records]
        assert got == expected


def test_a_failed_stacked_solve_is_recorded_for_its_own_case_only(monkeypatch):
    # a stacked np.linalg.solve raises when any system in it is singular;
    # the stack then runs one problem at a time, and only the singular
    # problem's case fails, with the message of its own solve
    grid = [(1e-8, 1e-3), (1e-6, 1e-2), (1e-6, 1e-6), (1e-4, 1e-5)]
    p_range = [4, 5, 6]
    expected = [convergence_study(model_problem(eps1, eps2), p_range) for eps1, eps2 in grid]
    bad = model_problem(1e-6, 1e-6)
    bad_matrix = assemble(bad, sbl_mesh(bad, 5), 5).matrix.tobytes()
    real_solve = np.linalg.solve
    calls = []

    def solve_failing_on_the_bad_system(a, b):
        stack = a if a.ndim == 3 else [a]
        calls.append(len(stack))
        if any(m.tobytes() == bad_matrix for m in stack):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve_failing_on_the_bad_system)
    use_cpus(monkeypatch, 1)
    problems = [model_problem(eps1, eps2) for eps1, eps2 in grid]
    records, failures = convergence_sweep(problems, p_range)
    assert failures == [CaseFailure(1e-6, 1e-6, 5, "Singular matrix")]
    kept = [rec for recs, _ in expected for rec in recs if (rec.eps2, rec.p) != (1e-6, 5)]
    assert records == kept and len(kept) == 11
    # p = 4 and 6: two stacked solves each; p = 5: the failed stacked solve,
    # then the four problems one at a time, the bad one failing at degree p
    assert calls == [4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 4, 4]


def test_sweep_runs_in_one_process_while_a_second_thread_is_alive(monkeypatch):
    def no_fork():
        raise AssertionError("forked with a second thread alive")

    expected = convergence_study(model_problem(1e-6, 1e-2), range(1, 5))
    monkeypatch.setattr(os, "fork", no_fork)
    use_cpus(monkeypatch, 4)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _workers(4, 4) == 1
        got = convergence_sweep([model_problem(1e-6, 1e-2)], range(1, 5))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == expected


@pytest.mark.parametrize(
    "eps1, eps2, mu_calls",
    [
        (1e-6, 1.0, 0),  # convection-diffusion
        (1e-5, 1e-2, 1),  # reaction-convection-diffusion
        (1e-4, 1e-4, 1),  # reaction-diffusion
    ],
)
def test_sbl_setup_computes_mu_only_where_the_mesh_reads_it(monkeypatch, eps1, eps2, mu_calls):
    import wg_hp.problem as problem_mod

    calls = []
    real = problem_mod.compute_mu

    def counting_compute_mu(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(problem_mod, "compute_mu", counting_compute_mu)
    prob = model_problem(eps1, eps2)
    assert (prob.mu is None) == (mu_calls == 0)
    assert len(calls) == mu_calls
    mu = real(prob)
    for p in (1, 4, 16, 40):
        expect = build_sbl_mesh(prob.regime, 1.0, p, mu=mu, eps1=eps1)
        assert np.array_equal(sbl_mesh(prob, p).nodes, expect.nodes)
    assert len(calls) == mu_calls


def test_solve_on_sbl_mesh_sets_up_each_problem_once(monkeypatch):
    import wg_hp.problem as problem_mod

    calls = {"validate": 0, "compute_mu": 0}
    for name in calls:
        real = getattr(problem_mod, name)

        def counting(spec, _real=real, _name=name):
            calls[_name] += 1
            return _real(spec)

        monkeypatch.setattr(problem_mod, name, counting)
    # reaction-convection-diffusion, so the mesh reads mu
    case = manufacture("x*(1 - exp(-(1-x)/1e-4))", model_problem(1e-6, 1e-2))
    for p in (8, 16, 24):
        regime, _, _ = solve_on_sbl_mesh(case.problem, p)
    assert regime is Regime.REACTION_CONVECTION_DIFFUSION
    assert calls == {"validate": 1, "compute_mu": 1}


def test_barely_positive_gamma_hat_warns_once_per_problem():
    # b' = 0, so gamma_hat is r = 1e-10
    prob = ProblemSpec.from_strings(1e-4, 1e-2, "1", "1e-10", "1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for p in (2, 4, 6):
            solve_on_sbl_mesh(prob, p)
    assert [str(w.message) for w in caught if "barely positive" in str(w.message)] == [
        "gamma_hat = 1e-10 is barely positive for eps1 = 0.0001, eps2 = 0.01; the problem is "
        "close to losing unique solvability"
    ]


@pytest.mark.parametrize(
    "eps1, eps2, regime",
    [
        # layer width kappa*p*eps1 = 8e-13
        (1e-13, 1.0, Regime.CONVECTION_DIFFUSION),
        # layer width kappa*p/mu1 with mu1 about eps2*cos(1)/eps1
        (1e-16, 1e-2, Regime.REACTION_CONVECTION_DIFFUSION),
    ],
)
def test_layer_too_thin_to_resolve_fails_instead_of_collapsing(eps1, eps2, regime):
    prob = model_problem(eps1, eps2)
    assert prob.regime is regime
    message = rf"^{regime.value} mesh: layer element width [0-9.e-]+ is below 1e-12"
    with pytest.raises(MeshDegeneracyError, match=message):
        solve_on_sbl_mesh(prob, 8)
    records, failures = convergence_study(prob, [4, 8])
    assert records == []
    assert [f.p for f in failures] == [4, 8]
    for failure in failures:
        assert re.match(message, failure.message)


def test_study_accurate_beyond_110_quadrature_points():
    # the degree-2p reference solve uses 2p+6 >= 116 Gauss points here
    records, failures = convergence_study(model_problem(1e-8, 1.0), [55, 60])
    assert failures == []
    assert [r.p for r in records] == [55, 60]
    assert all(r.err_rel < 1e-10 for r in records)


@pytest.mark.parametrize(
    "eps1, eps2",
    # the criterion-6 grid, then two pairs whose x = 0 layer outgrows the
    # width cap of 1/4 while the x = 1 layer stays thin
    [*CRITERION_6_PAIRS, (1e-5, 1e-2), (1e-9, 0.1)],
)
def test_error_does_not_grow_with_p_until_roundoff(eps1, eps2):
    # the central claim: exponential convergence in p on the layer-adapted
    # mesh, for every eps pair; a mesh that drops a layer makes it rise
    records, failures = convergence_study(model_problem(eps1, eps2), range(2, 41, 2))
    assert failures == []
    for lo, hi in zip(records, records[1:]):
        if lo.err_rel > 1e-12:
            assert hi.err_rel <= lo.err_rel, (lo.p, lo.err_rel, hi.p, hi.err_rel)


def test_solve_on_sbl_mesh_regimes():
    regime, mesh, _ = solve_on_sbl_mesh(model_problem(1e-5, 1e-2), 2)
    assert regime is Regime.REACTION_CONVECTION_DIFFUSION
    assert mesh.n_elements == 3
    regime, mesh, _ = solve_on_sbl_mesh(model_problem(1e-6, 1.0), 2)
    assert regime is Regime.CONVECTION_DIFFUSION
    assert mesh.n_elements == 2
