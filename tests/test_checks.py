"""The property suites behind the check command."""

import numpy as np
from numpy.polynomial import legendre as npleg

import wg_hp.checks as checks
import wg_hp.problem as problem
from wg_hp.assembly import assemble, bilinear_apply, load_apply, solve
from wg_hp.checks import run_check
from wg_hp.coeffexpr import evaluate
from wg_hp.polybasis import gauss_rule, legendre_eval, quad_order
from wg_hp.slmesh import user_mesh
from wg_hp.weakspace import norm_broken, norm_p, weak_convection_derivative, weak_derivative


def test_default_run_all_suites_pass():
    results = run_check(seed=0)
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
    results = run_check(seed=0, sigma_override=0.0)
    by_name = {r.name: r for r in results}
    assert not by_name["coercivity-solve"].passed
    assert "penalty condition" in by_name["coercivity-solve"].detail


def test_quad_double_adds_stability_suite():
    results = run_check(seed=1, quad_double=True)
    assert results[-1].name == "quadrature-stability"
    assert results[-1].passed, results[-1].line()


def test_result_line_format():
    res = run_check(seed=0)[0]
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
    results = run_check(seed=1, quad_double=True)
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
    rng = np.random.default_rng(37)
    meshes = [
        user_mesh(nodes)
        for nodes in ([0.0, 1.0], [0.0, 0.35, 1.0], [0.0, 1e-3, 0.9, 1.0], [0.0, 0.3, 0.65, 1.0])
    ]
    cases = [(prob, mesh, p) for prob, mesh, p in checks._cases()]
    cases += [(prob, mesh, p) for prob in checks._problems() for mesh in meshes for p in range(1, 13)]
    for prob, mesh, p in cases:
        v = checks._random_weakfunction(rng, mesh, p)
        expect = _definition_residuals_per_degree(prob, mesh, p, v)
        assert checks._definition_residuals(prob, mesh, p, v) == expect, (prob.eps1, mesh.nodes, p)


def test_definition_residuals_evaluate_each_derivative_once_per_case(monkeypatch):
    # P_k' for k = 0..p, once per case, shared by every element
    calls = []
    real = checks.legendre_eval

    def counting_legendre_eval(k, t):
        calls.append(k)
        return real(k, t)

    monkeypatch.setattr(checks, "legendre_eval", counting_legendre_eval)
    checks.suite_definition_residuals(np.random.default_rng(0))
    assert calls == [k for _, _, p in checks._cases() for k in range(p + 1)]


def test_one_run_builds_each_mesh_once(monkeypatch):
    import wg_hp.verify as verify

    built = []
    real = verify.build_sbl_mesh

    def counting_build_sbl_mesh(regime, kappa, p, **kw):
        built.append((regime, p))
        return real(regime, kappa, p, **kw)

    monkeypatch.setattr(verify, "build_sbl_mesh", counting_build_sbl_mesh)
    expect = run_check(seed=2, quad_double=True)
    assert len(built) == len(checks.EPS_PAIRS) * len(checks.DEGREES)
    # the same results as suites that build their own cases when called alone
    rng = np.random.default_rng(2)
    alone = [fn(rng) for fn in checks.SUITES + (checks.suite_quadrature_stability,)]
    assert alone == expect


def _suite_coercivity_solve_per_trial(rng, cases=None, sigma_override=None, **_):
    # the coercivity suite as it was before its trials were stacked, one
    # bilinear_apply and norm_p per trial: the oracle for its results
    tally = checks._Tally()
    for prob, mesh, p in checks._cases(cases):
        sigmas = checks._sigmas(prob, mesh, p, sigma_override)
        required = prob.eps1 * p**2 / mesh.widths
        ok = bool(np.all(required <= checks.C_SIGMA * sigmas * (1 + 1e-12)))
        tally.check(ok, f"penalty condition eps1*p^2/h <= sigma violated (p={p})")
        for _trial in range(3):
            v = checks._random_weakfunction(rng, mesh, p)
            quad = bilinear_apply(v, v, prob, sigmas)
            bound = 0.25 * min(1.0, prob.gamma_hat) * norm_p(v, prob, sigmas) ** 2
            tally.check(
                quad >= bound * (1 - 1e-10),
                f"coercivity {quad:.3e} < {bound:.3e} (p={p})",
            )
        system = assemble(prob, mesh, p, sigmas=sigmas)
        try:
            u_p = solve(system)
        except Exception as exc:  # noqa: BLE001 - record, keep sweeping
            tally.check(False, f"solve failed: {exc}")
            continue
        tally.check(True)
        v = checks._random_weakfunction(rng, mesh, p)
        lhs = bilinear_apply(u_p, v, prob, sigmas)
        rhs = load_apply(v, prob)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        tally.check(
            abs(lhs - rhs) / scale <= 1e-8,
            f"Galerkin residual {abs(lhs - rhs) / scale:.2e} (p={p})",
        )
    return tally.result("coercivity-solve")


def _suite_norm_equivalence_per_trial(rng, cases=None, sigma_override=None, **_):
    # the norm-equivalence suite before its trials were stacked, one norm_p
    # and norm_broken per trial: the oracle for its results
    tally = checks._Tally()
    lo, hi = np.inf, 0.0
    for prob, mesh, p in checks._cases(cases):
        sigmas = checks._sigmas(prob, mesh, p, sigma_override)
        for _trial in range(5):
            v = checks._random_weakfunction(rng, mesh, p)
            a = norm_p(v, prob, sigmas)
            c = norm_broken(v, prob, sigmas)
            if c == 0.0:
                tally.check(a == 0.0, "norm_broken vanished on a nonzero function")
                continue
            ratio = a / c
            lo, hi = min(lo, ratio), max(hi, ratio)
            tally.check(1.0 / 50.0 <= ratio <= 50.0, f"ratio {ratio:.3g} outside envelope")
    return tally.result("norm-equivalence", f"ratio range [{lo:.3g}, {hi:.3g}]")


def test_stacked_trial_suites_match_the_per_trial_suites():
    # run_check with the stacked suites gives the same SuiteResults, detail
    # included, as the per-trial suites drawing from the same generator
    per_trial = {
        checks.suite_coercivity_solve: _suite_coercivity_solve_per_trial,
        checks.suite_norm_equivalence: _suite_norm_equivalence_per_trial,
    }
    suites = [per_trial.get(fn, fn) for fn in checks.SUITES + (checks.suite_quadrature_stability,)]
    cases = checks._case_list()
    for seed in range(9):
        for sigma in (None, 0.0, 1e-3):
            rng = np.random.default_rng(seed)
            expect = [fn(rng, cases=cases, sigma_override=sigma) for fn in suites]
            where = (seed, sigma)
            assert run_check(seed, quad_double=True, sigma_override=sigma) == expect, where
            assert run_check(seed, sigma_override=sigma) == expect[:-1], where
            if sigma is None:
                assert all(r.passed for r in expect), where
            if sigma == 0.0:
                assert not expect[1].passed and expect[1].detail, where
