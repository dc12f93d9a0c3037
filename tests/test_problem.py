"""Problem validation, layer-strength parameters and regime classification."""

import warnings

import numpy as np
import pytest

from wg_hp.problem import (
    AssumptionError,
    ProblemSpec,
    Regime,
    classify_regime,
    compute_mu,
    model_problem,
    validate,
)


def test_model_problem_is_valid_with_gamma_at_least_one():
    gamma_hat = validate(model_problem(1e-5, 1e-2))
    # gamma = 1 + x + eps2*sin(x)/2 >= 1 on [0,1]
    assert gamma_hat >= 1.0


def test_negative_convection_rejected():
    spec = ProblemSpec.from_strings(1e-3, 1e-3, "-1", "1", "1")
    with pytest.raises(AssumptionError, match="b"):
        validate(spec)


def test_vanishing_gamma_rejected():
    # r = 0, b = 1, eps2 = 1: r - eps2*b'/2 = 0, not strictly positive
    spec = ProblemSpec.from_strings(1e-3, 1.0, "1", "0", "1")
    with pytest.raises(AssumptionError):
        validate(spec)


def test_barely_positive_gamma_warns():
    spec = ProblemSpec.from_strings(1e-3, 1e-3, "1", "1e-10", "1")
    with pytest.warns(UserWarning, match="barely positive"):
        validate(spec)


def test_barely_positive_gamma_warns_once_for_each_eps_pair():
    # the default filter prints a given text from one line once, so the
    # text names the pair: two pairs give two warnings, a repeat gives none
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for eps1, eps2 in ((1e-4, 1e-2), (1e-3, 1e-2), (1e-4, 1e-2)):
            validate(ProblemSpec.from_strings(eps1, eps2, "1", "1e-10", "1"))
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert "eps1 = 0.0001, eps2 = 0.01" in messages[0]
    assert "eps1 = 0.001, eps2 = 0.01" in messages[1]


def test_parameter_range_enforced():
    with pytest.raises(ValueError):
        ProblemSpec.from_strings(0.0, 1e-2, "1", "1", "1")
    with pytest.raises(ValueError):
        ProblemSpec.from_strings(1e-2, 2.0, "1", "1", "1")


def test_mu_constant_coefficients():
    # b = r = 1: mu = (-/+ eps2 + sqrt(eps2^2 + 4 eps1)) / (2 eps1)
    eps1, eps2 = 1e-4, 0.1
    mu = compute_mu(ProblemSpec.from_strings(eps1, eps2, "1", "1", "1"))
    root = np.sqrt(eps2**2 + 4 * eps1)
    assert mu.mu0 == pytest.approx((-eps2 + root) / (2 * eps1), rel=1e-12)
    assert mu.mu1 == pytest.approx((eps2 + root) / (2 * eps1), rel=1e-12)
    assert mu.mu0 == pytest.approx(9.90195, abs=5e-2)
    assert mu.mu1 == pytest.approx(1009.90195, abs=5e-2)


def test_mu_reaction_diffusion_limit():
    # eps2 -> 0: both roots collapse to sqrt(r/eps1) = 1/sqrt(eps1)
    eps1 = 1e-6
    mu = compute_mu(ProblemSpec.from_strings(eps1, 1e-14, "1", "1", "1"))
    assert mu.mu0 == pytest.approx(1.0 / np.sqrt(eps1), rel=1e-6)
    assert mu.mu1 == pytest.approx(1.0 / np.sqrt(eps1), rel=1e-6)


def test_mu_scaling_sanity():
    # sqrt(eps1) * mu0 stays bounded across parameter choices
    for eps1, eps2 in ((1e-8, 1e-2), (1e-6, 1e-4), (1e-4, 0.5), (1e-2, 1e-2)):
        mu = compute_mu(model_problem(eps1, eps2))
        assert 0 < mu.mu0 <= 10.0 / np.sqrt(eps1)
        assert mu.mu0 <= mu.mu1


def test_mu_refinement_tightens_gridded_minimum():
    # non-constant coefficients: refined minimum can only be <= the coarse one
    spec = model_problem(1e-5, 1e-2)
    coarse = compute_mu(spec, samples=33)
    fine = compute_mu(spec, samples=4097)
    assert fine.mu0 <= coarse.mu0 * (1 + 1e-10)
    assert fine.mu1 <= coarse.mu1 * (1 + 1e-10)


def test_regime_classification_table():
    assert classify_regime(1e-5, 1e-2) is Regime.REACTION_CONVECTION_DIFFUSION
    assert classify_regime(1e-6, 1.0) is Regime.CONVECTION_DIFFUSION
    assert classify_regime(1e-4, 1e-4) is Regime.REACTION_DIFFUSION


def test_regime_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_regime(0.0, 0.5)
    with pytest.raises(ValueError):
        classify_regime(0.5, 1.5)


def test_b_prime_derived_automatically():
    spec = model_problem(1e-3, 1e-3)
    from wg_hp.coeffexpr import evaluate

    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(evaluate(spec.b_prime, xs), -np.sin(xs), atol=1e-15)
