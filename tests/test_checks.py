"""The property suites behind the check command."""

import wg_hp.checks as checks
import wg_hp.problem as problem
from wg_hp.checks import run_check


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
