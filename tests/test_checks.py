"""The property suites behind the check command."""

import os
import re
import sys

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import wg_hp.checks as checks
import wg_hp.forking as forking
import wg_hp.problem as problem
from wg_hp.checks import run_check
from wg_hp.coeffexpr import evaluate
from wg_hp.polybasis import gauss_rule, legendre_eval, quad_order
from wg_hp.slmesh import user_mesh
from wg_hp.weakspace import (
    WeakFunction,
    default_penalties,
    energy_norms,
    gram_rows,
    norms_p,
    weak_convection_derivative,
    weak_derivative,
)

MESHES = [
    user_mesh(nodes)
    for nodes in ([0.0, 1.0], [0.0, 0.35, 1.0], [0.0, 1e-3, 0.9, 1.0], [0.0, 0.3, 0.65, 1.0])
]


def test_default_run_all_suites_pass():
    results = run_check()
    names = [r.name for r in results]
    assert names == [
        "definition-residuals",
        "coercivity-solve",
        "norm-equivalence",
        "error-equation",
        "polynomial-reproduction",
    ]
    for res in results:
        assert res.passed, res.line()
        assert res.n_failed == 0
        assert res.n_checks > 0


def test_zero_penalty_fails_coercivity_suite():
    results = run_check(sigma_override=0.0)
    by_name = {r.name: r for r in results}
    assert not by_name["coercivity-solve"].passed
    assert "penalty condition" in by_name["coercivity-solve"].detail


@pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.1])
def test_weak_penalties_fail_norm_equivalence(sigma):
    # the exact least norm_p / norm_broken is 2.0e-4, 0.0129 and 0.127 there
    # (CD, p = 6), below the envelope's 1/2
    result = run_check(sigma_override=sigma)[2]
    assert result.name == "norm-equivalence" and not result.passed, result.line()


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_case_list_rejects_a_negative_or_non_finite_penalty(sigma):
    with pytest.raises(ValueError, match="sigma_override"):
        checks._case_list(sigma)


def test_the_printed_constants_are_the_sharp_ones():
    # the least coercivity constant is convection-diffusion's at p = 6
    by_name = {r.name: r.detail for r in run_check()}
    constant = re.search(r"min constant ([0-9.e+-]+)", by_name["coercivity-solve"]).group(1)
    lo, hi = re.search(r"ratio range \[([^,]+), ([^\]]+)\]", by_name["norm-equivalence"]).groups()
    assert float(constant) == pytest.approx(0.279, abs=1e-3)
    assert float(lo) == pytest.approx(0.581, abs=1e-3)
    assert float(hi) == pytest.approx(1.72, abs=1e-3)


def test_gram_rows_square_to_the_squared_norms():
    rng = np.random.default_rng(53)
    for prob in checks._problems():
        for mesh in MESHES[:3]:
            n = mesh.n_elements
            for p in range(1, 13):
                stack = rng.standard_normal((4, n, p + 1)), rng.standard_normal((4, n + 1))
                for sigmas in (default_penalties(mesh, p, prob.eps1), np.zeros(n)):
                    rows_p, rows_broken = gram_rows(mesh, *stack, prob, sigmas)
                    expect_p = norms_p(mesh, *stack, prob, sigmas) ** 2
                    expect_b = energy_norms(mesh, *stack, prob, sigmas) ** 2
                    np.testing.assert_allclose((rows_p**2).sum(axis=1), expect_p, rtol=1e-13)
                    np.testing.assert_allclose((rows_broken**2).sum(axis=1), expect_b, rtol=1e-13)


def test_quad_double_adds_stability_suite():
    results = run_check(quad_double=True)
    assert results[-1].name == "quadrature-stability"
    assert results[-1].passed, results[-1].line()


def test_result_line_format():
    res = run_check()[0]
    line = res.line()
    assert line.startswith("[pass]") or line.startswith("[FAIL]")
    assert f"{res.n_checks - res.n_failed}/{res.n_checks}" in line


def test_one_run_sets_up_each_problem_once(monkeypatch):
    # the three problems are built once per run and shared by every suite,
    # so mu of the one reaction-convection-diffusion pair is computed once
    built, mu_calls = [], []
    real_model_problem, real_compute_mu = problem.model_problem, problem.compute_mu

    def counting_model_problem(*args):
        built.append(args)
        return real_model_problem(*args)

    def counting_compute_mu(spec, *args):
        mu_calls.append((spec.eps1, spec.eps2))
        return real_compute_mu(spec, *args)

    monkeypatch.setattr(checks, "model_problem", counting_model_problem)
    monkeypatch.setattr(problem, "compute_mu", counting_compute_mu)
    results = run_check(quad_double=True)
    assert all(r.passed for r in results)
    assert built == list(checks.EPS_PAIRS)
    assert mu_calls == [(1e-5, 1e-2)]


def _definition_residuals_per_degree(prob, mesh, p, v):
    # the residual suite's loops over elements and test degrees, with one
    # legval and legendre_eval per element and degree, as they were before
    # they were batched: the oracle for the bits of _definition_residuals
    d = weak_derivative(v)
    dc = weak_convection_derivative(v, prob.b, prob.b_prime)
    rule = gauss_rule(quad_order(p) + p)
    x, w = rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    bv = evaluate(prob.b, x)
    bpv = evaluate(prob.b_prime, x)
    b_nodes = evaluate(prob.b, mesh.nodes)
    d_rows, dc_rows = [], []
    for j in range(mesh.n_elements):
        h = mesh.widths[j]
        v0 = npleg.legval(rule.nodes, v.coeffs[j])
        scale = max(1.0, float(np.max(np.abs(v.coeffs[j]))) + abs(v.vb[j]) + abs(v.vb[j + 1]))
        d_rows.append([])
        for k in range(p):
            q = npleg.legval(rule.nodes, np.eye(p)[k])
            dq = legendre_eval(k, rule.nodes)[1] * (2.0 / h)
            lhs = float(np.sum(w[j] * npleg.legval(rule.nodes, d.coeffs[j]) * q))
            rhs = -float(np.sum(w[j] * v0 * dq)) + v.vb[j + 1] * 1.0 - v.vb[j] * (-1.0) ** k
            d_rows[-1].append(float(abs(lhs - rhs) / scale))
        dc_rows.append([])
        for k in range(p + 1):
            q = npleg.legval(rule.nodes, np.eye(p + 1)[k])
            dq = legendre_eval(k, rule.nodes)[1] * (2.0 / h)
            lhs = float(np.sum(w[j] * npleg.legval(rule.nodes, dc.coeffs[j]) * q))
            rhs = (
                -float(np.sum(w[j] * v0 * (bpv[j] * q + bv[j] * dq)))
                + v.vb[j + 1] * b_nodes[j + 1]
                - v.vb[j] * b_nodes[j] * (-1.0) ** k
            )
            dc_rows[-1].append(float(abs(lhs - rhs) / scale))
    return d_rows, dc_rows


def test_definition_residuals_match_the_per_degree_loops_bit_for_bit():
    # each function of a stack gets the bits of the per-degree loops
    rng = np.random.default_rng(37)
    cases = [(prob, mesh, p) for prob, mesh, p, *_ in checks._cases()]
    cases += [(prob, mesh, p) for prob in checks._problems() for mesh in MESHES for p in range(1, 13)]
    for prob, mesh, p in cases:
        n = mesh.n_elements
        coeffs, vb = rng.standard_normal((3, n, p + 1)), rng.standard_normal((3, n + 1))
        d_res, dc_res = checks._definition_residuals(prob, mesh, p, coeffs, vb)
        for i in range(3):
            v = WeakFunction(mesh, coeffs[i], vb[i])
            expect = _definition_residuals_per_degree(prob, mesh, p, v)
            assert (d_res[i].tolist(), dc_res[i].tolist()) == expect, (prob.eps1, mesh.nodes, p)


def test_definition_residuals_evaluate_each_derivative_once_per_case(monkeypatch):
    # P_k' for k = 0..p, once per degree, shared by every element and by
    # every case of that degree
    checks._test_polynomials.cache_clear()
    calls = []
    real = checks.legendre_eval

    def counting_legendre_eval(k, t):
        calls.append(k)
        return real(k, t)

    monkeypatch.setattr(checks, "legendre_eval", counting_legendre_eval)
    checks.suite_definition_residuals()
    assert calls == [k for p in checks.DEGREES for k in range(p + 1)]


def test_one_run_builds_each_mesh_once(monkeypatch):
    # and, per case, one basis, one pair of Gram matrices, one interpolant,
    # and one system shared by coercivity-solve and quadrature-stability;
    # on one usable CPU, so that every call is counted in this process
    import wg_hp.verify as verify

    use_cpus(monkeypatch, 1)

    built = []
    real = verify.build_sbl_mesh

    def counting_build_sbl_mesh(regime, kappa, p, **kw):
        built.append((regime, p))
        return real(regime, kappa, p, **kw)

    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kw):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kw)

        monkeypatch.setattr(module, name, counted)

    monkeypatch.setattr(verify, "build_sbl_mesh", counting_build_sbl_mesh)
    for module, name in ((checks, "assemble"), (checks, "gram_rows"), (checks, "_basis"),
                         (verify, "interpolant_coefficients")):
        counting(module, name)
    expect = run_check(quad_double=True)
    n_cases = len(checks.EPS_PAIRS) * len(checks.DEGREES)
    assert len(built) == n_cases
    assert calls == {"assemble": 4 * n_cases, "gram_rows": n_cases, "_basis": n_cases,
                     "interpolant_coefficients": n_cases}
    # the same results as suites that build their own cases when called alone
    alone = [fn() for fn in checks.SUITES + (checks.suite_quadrature_stability,)]
    assert alone == expect


forks = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "fork")),
    reason="run_check forks on Linux only",
)


def use_cpus(monkeypatch, n):
    """Let run_check see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@forks
@pytest.mark.parametrize("quad_double, sigma", [(False, None), (True, None), (False, 0.0)])
def test_forked_run_check_gives_the_serial_results(monkeypatch, quad_double, sigma):
    cases = checks._case_list(sigma)
    suites = checks.SUITES + ((checks.suite_quadrature_stability,) if quad_double else ())
    serial = [fn(cases) for fn in suites]
    forked = []
    real_fork = os.fork

    def counting_fork():
        forked.append(True)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    for n in (1, 2, 3):
        use_cpus(monkeypatch, n)
        forking.shutdown()
        forked.clear()
        results = run_check(quad_double=quad_double, sigma_override=sigma)
        assert len(forked) == (n > 1)  # one child, at any number of CPUs above one
        assert results == serial
        assert [r.line() for r in results] == [r.line() for r in serial]
    # a second call in the same process is served by the worker of the first
    forked.clear()
    assert run_check(quad_double=quad_double, sigma_override=sigma) == serial
    assert forked == []


@forks
def test_run_check_raises_when_its_child_dies_and_leaves_no_child(monkeypatch):
    # definition-residuals runs in the child, which exits with status 3
    parent = os.getpid()
    real_residuals = checks._definition_residuals

    def residuals_that_kill_the_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real_residuals(*args)

    monkeypatch.setattr(checks, "_definition_residuals", residuals_that_kill_the_child)
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status 3$"):
        run_check()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
