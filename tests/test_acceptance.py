"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line.

Criteria 3 and 7 are implemented exactly as stated and are expected to
fail: the constant-1 coercivity claim and the stated interpolation
endpoint/combined constants do not hold for the discrete objects they
quantify over.  Both are marked xfail(strict=True) so a change in their
status is itself a test failure; the structurally sound versions of the
same properties (coercivity with constant 1/4, separated interpolation
bounds) are covered by the check suites and the module tests.

Criterion 9 is the paper's central claim, an exponential rate in p that is
uniform in (eps1, eps2), asserted in true error on the closed-form
two-layer case of tests/cases.py.
"""

import math

import numpy as np
import pytest

import wg_hp.checks as checks
from wg_hp.assembly import assemble, bilinear_apply, solve
from wg_hp.cli import main
from wg_hp.polybasis import gauss_rule, interpolate, l2_project
from wg_hp.problem import classify_regime, compute_mu, model_problem
from wg_hp.slmesh import Mesh, build_sbl_mesh
from wg_hp.verify import (
    convergence_study,
    energy_error,
    error_equation_terms,
    exact_weakfunction,
    interpolant_weakfunction,
    manufacture,
    solve_on_sbl_mesh,
)
from wg_hp.weakspace import WeakFunction, default_penalties, gram_rows, weak_derivative

from cases import CRITERION_6_PAIRS, RATE_PAIRS, true_energy_error, two_layer_case, weak_map

# one eps sample per regime, plus (0.5, 0.5): reaction-diffusion with both
# layer widths capped, the mesh [0, 1/4, 3/4, 1]
REGIME_SAMPLES = ((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0), (0.5, 0.5))

# relative energy errors for the stock problem at eps1=1e-5, eps2=1e-2,
# kappa=1, p=1..10, pinned from the first verified run
MODEL_BASELINE = [
    0.067534887912414659,
    0.027449467731652754,
    0.011252368984851371,
    0.0045809291179313627,
    0.0018874550108412824,
    0.00078439841737854585,
    0.0003280818046809893,
    0.00013802942755947512,
    5.8227599352567668e-05,
    2.4633300913544654e-05,
]


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {status}{extra}")
    return ok


def test_criterion_1_polynomial_reproduction():
    worst = 0.0
    for eps1, eps2 in REGIME_SAMPLES:
        case = manufacture("x*(1-x)", model_problem(eps1, eps2))
        prob = case.problem
        regime = classify_regime(eps1, eps2)
        mu = compute_mu(prob)
        for p in range(2, 9):
            mesh = build_sbl_mesh(regime, 1.0, p, mu=mu, eps1=eps1)
            u_p = solve(assemble(prob, mesh, p))
            u_star = exact_weakfunction(case, mesh, p)
            _, rel = energy_error(u_star, u_p, prob)
            worst = max(worst, rel)
    assert _verdict(1, "polynomial reproduction", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_2_weak_derivative_of_polynomials():
    rng = np.random.default_rng(2024)
    meshes = [
        Mesh([0.0, 1.0]),
        Mesh([0.0, 0.3, 0.85, 1.0]),
        build_sbl_mesh(
            classify_regime(1e-4, 1e-4), 1.0, 4, mu=compute_mu(model_problem(1e-4, 1e-4))
        ),
    ]
    worst = 0.0
    for trial in range(100):
        p = int(rng.integers(1, 11))
        mesh = meshes[trial % len(meshes)]
        c = rng.standard_normal(p + 1)
        poly = np.polynomial.Polynomial(c)
        dpoly = poly.deriv()
        coeffs = np.empty((mesh.n_elements, p + 1))
        for j in range(mesh.n_elements):
            coeffs[j] = l2_project(poly, p, mesh.element(j), nquad=p + 8).coeffs
        v = WeakFunction(mesh, coeffs, poly(mesh.nodes))
        d = weak_derivative(v)
        for j in range(mesh.n_elements):
            expect = l2_project(dpoly, p - 1, mesh.element(j), nquad=p + 8).coeffs
            err = float(np.max(np.abs(d.coeffs[j] - expect)))
            scale = max(1.0, float(np.max(np.abs(expect))))
            worst = max(worst, err / scale)
    assert _verdict(2, "weak derivative of polynomials", worst <= 1e-11, f"worst {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="the quadratic form controls interior jump terms with weight "
    "eps2*b/2 while the norm counts them with weight up to 2*eps2*b, so "
    "the constant-1 bound fails for jump-dominated discrete functions "
    "(the exact minimum of B(v,v)/norm_broken^2 at (1e-5, 1e-2) is 0.312 "
    "at p = 1, rising to 0.374 at p = 8; a constant of 1/4 is provable and "
    "holds in the check suites)",
)
def test_criterion_3_coercivity_constant_one():
    prob = model_problem(1e-5, 1e-2)
    regime = classify_regime(prob.eps1, prob.eps2)
    mu = compute_mu(prob)
    worst = np.inf
    for p in range(1, 9):
        mesh = build_sbl_mesh(regime, 1.0, p, mu=mu, eps1=prob.eps1)
        sig = default_penalties(mesh, p, prob.eps1)
        system = assemble(prob, mesh, p)
        rows = gram_rows(mesh, *checks._basis(mesh, p), prob, sig)[1]
        # the minimum of B(v, v) / norm_broken(v)^2 over the discrete space
        sym = (system.matrix + system.matrix.T) / 2
        worst = min(worst, checks._pencil(rows @ rows.T, sym)[0][0])
    ok = worst >= 1.0 - 1e-10
    assert _verdict(3, "coercivity with constant one", ok, f"min ratio {worst:.3f}")


def test_criterion_4_error_equation_identity():
    case = manufacture("sin(3.141592653589793*x)", model_problem(1e-5, 1e-2))
    prob = case.problem
    rng = np.random.default_rng(4)
    worst = 0.0
    for p in (2, 4, 6):
        regime, mesh, u_p = solve_on_sbl_mesh(prob, p)
        iu = interpolant_weakfunction(case, mesh, p)
        diff = weak_map(np.subtract, iu, u_p)
        for _ in range(50):
            v = WeakFunction(
                mesh,
                rng.standard_normal((mesh.n_elements, p + 1)),
                np.r_[0.0, rng.standard_normal(mesh.n_elements - 1), 0.0],
            )
            lhs = bilinear_apply(diff, v, prob)
            e1, e2, e3 = error_equation_terms(case, v)
            scale = max(abs(lhs), abs(e1) + abs(e2) + abs(e3))
            worst = max(worst, abs(lhs - (e1 + e2 + e3)) / scale)
    assert _verdict(4, "error equation identity", worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_5_exponential_convergence():
    prob = model_problem(1e-5, 1e-2)
    records, failures = convergence_study(prob, range(1, 11))
    errs = np.array([rec.err_rel for rec in records])
    ok = failures == []
    ok = ok and np.allclose(errs, MODEL_BASELINE, rtol=1e-3)
    sampled = errs[1::2]  # p = 2, 4, 6, 8, 10
    ok = ok and bool(np.all(np.diff(sampled) < 0))
    slope = float(np.polyfit([2, 4, 6, 8, 10], np.log10(sampled), 1)[0])
    ok = ok and slope <= -0.3
    assert _verdict(5, "exponential convergence", ok, f"slope {slope:.3f}")


def test_criterion_6_parameter_robustness():
    records, failures = [], []
    for eps1, eps2 in CRITERION_6_PAIRS:
        recs, fails = convergence_study(model_problem(eps1, eps2), [6])
        records += recs
        failures += fails
    errs = [rec.err_rel for rec in records]
    ratio = max(errs) / min(errs)
    ok = failures == [] and len(errs) == len(CRITERION_6_PAIRS) and ratio <= 100.0
    assert _verdict(6, "parameter robustness", ok, f"max/min ratio {ratio:.1f}")


@pytest.mark.xfail(
    strict=True,
    reason="the stated projection endpoint bound is off by a factor that "
    "grows like p^2 (the 1/(2p+1) normalization points the wrong way for "
    "endpoint values) and the combined derivative-plus-scaled-L2 bound "
    "exceeds its constant by up to ~1.32; the separated bounds each hold "
    "and are covered in the basis tests",
)
def test_criterion_7_interpolation_projection_bounds():
    rule = gauss_rule(60)
    x, w = rule.mapped(0.0, 1.0)
    cases = {
        "sin": (
            lambda z: np.sin(np.pi * z),
            lambda z: np.pi * np.cos(np.pi * z),
            lambda m: np.pi ** (2 * m) / 2.0,
        ),
        "exp": (np.exp, np.exp, lambda m: (np.e**2 - 1) / 2.0),
    }
    worst = 0.0
    for y, dy, semi_sq in cases.values():
        for p in range(1, 11):
            iy = interpolate(y, p, (0.0, 1.0), nquad=60)
            diy = iy.derivative()
            l2 = math.sqrt(float(np.sum(w * (y(x) - iy(x)) ** 2)))
            h1 = math.sqrt(float(np.sum(w * (dy(x) - diy(x)) ** 2)))
            for s in range(0, p + 1):
                rhs = (
                    0.5**s
                    * math.sqrt(math.factorial(p - s) / math.factorial(p + s))
                    * math.sqrt(semi_sq(s + 1))
                )
                worst = max(worst, (h1 + p * l2) / rhs)
            proj = l2_project(y, p, (0.0, 1.0), nquad=60)
            perr_sq = float(np.sum(w * (y(x) - proj(x)) ** 2))
            for s in range(0, p + 2):
                rhs_sq = (
                    0.25**s
                    * math.factorial(p + 1 - s)
                    / math.factorial(p + 1 + s)
                    * semi_sq(s)
                )
                worst = max(worst, math.sqrt(perr_sq / rhs_sq))
                for endpoint in (0.0, 1.0):
                    end_sq = float((y(endpoint) - proj(endpoint)) ** 2)
                    worst = max(worst, math.sqrt(end_sq * (2 * p + 1) / rhs_sq))
    ok = worst <= 1.0 + 1e-8
    assert _verdict(7, "interpolation and projection bounds", ok, f"worst ratio {worst:.2f}")


def test_criterion_8_byte_identical_csv(tmp_path):
    conv = ["convergence", "--eps-grid", "1e-5:1e-2,1e-4:1e-4", "--p-range", "2..4"]
    sol = ["solve", "--eps1", "1e-5", "--eps2", "1e-2", "--p", "4"]
    outs = []
    for i in range(2):
        c = tmp_path / f"c{i}.csv"
        s = tmp_path / f"s{i}.csv"
        assert main(conv + ["--out", str(c)]) == 0
        assert main(sol + ["--out", str(s)]) == 0
        outs.append((c.read_bytes(), s.read_bytes()))
    ok = outs[0] == outs[1]
    assert _verdict(8, "byte-identical CSV output", ok)


def test_criterion_9_uniform_exponential_rate():
    """The central claim in true error: on the two-layer case, raising p
    gives err <= C exp(-b p) with b and C uniform over the 25 pairs of
    RATE_PAIRS.  log err = log C - b p is fitted by least squares over
    p = 4, 8, ..., 28, on the points above 1e-12, for each pair with at
    least three of them (20 pairs: the eps1 = 1 row is below 1e-12 by
    p = 8).  Measured: the least b is 0.834 at (3.2e-3, 1), a
    convection-diffusion pair, and every reaction pair, whose mesh takes
    its widths from mu0 and mu1, is at least as fast; the median b is
    0.845; the largest C is 18.9, at (3.2e-3, 3.2e-8); the worst error at
    p = 28 is 5.2e-11.  The bounds leave a margin of 0.084 in b, about 2x
    in C and 10x in the error, and fail at kappa = 3 (least b 0.322, worst
    error 1.0e-4) and kappa = 0.5 (0.500, 6.1e-7), and with the former
    reaction-diffusion width kappa*p*sqrt(eps1) (0.577, 6.8e-9)."""
    rates, constants, finals = _rate_fit(kappa=1.0)
    least, largest, worst = min(rates), max(constants), max(finals)
    ok = least >= 0.75 and largest <= 40.0 and worst <= 5e-10
    detail = f"least rate {least:.3f}, largest C {largest:.1f}, worst error at p = 28 {worst:.1e}"
    assert _verdict(9, "uniform exponential rate", ok, detail)


def _rate_fit(kappa: float) -> tuple:
    """(rates, constants, finals) of criterion 9's fit with the mesh
    constant kappa: b and C of each fitted pair of RATE_PAIRS, and every
    pair's true error at p = 28."""
    degrees = np.arange(4, 29, 4)
    rates, constants, finals = [], [], []
    for eps1, eps2 in RATE_PAIRS:
        case = two_layer_case(eps1, eps2)
        errs = []
        for p in degrees.tolist():
            _, mesh, u_p = solve_on_sbl_mesh(case.problem, p, kappa)
            errs.append(true_energy_error(case, mesh, u_p.coeffs))
        finals.append(errs[-1])
        above = np.array(errs) > 1e-12
        if np.count_nonzero(above) < 3:
            continue
        design = np.stack([np.ones(np.count_nonzero(above)), -degrees[above]], axis=1)
        (log_c, rate), *_ = np.linalg.lstsq(design, np.log(np.array(errs)[above]), rcond=None)
        rates.append(rate)
        constants.append(math.exp(log_c))
    return rates, constants, finals


@pytest.mark.parametrize("kappa", [0.5, 0.75])
def test_uniform_rate_follows_the_mesh_constant_below_one(kappa):
    """Criterion 9's fit with a smaller mesh constant: the layer's tail
    outside its element is exp(-kappa p), and below kappa = 0.9 the rate is
    kappa itself, in every regime.  Measured on the 20 fitted pairs: the
    least b is 0.500 and 0.751 at kappa = 0.5 and 0.75 (median 0.513 and
    0.764), the largest C 27.6 and 10.2.  At kappa = 0.25 the least b is
    0.249 but C reaches 285.8, so the bound on C would fail there."""
    rates, constants, _ = _rate_fit(kappa)
    least, largest = min(rates), max(constants)
    assert least >= 0.9 * kappa and largest <= 40.0, (least, largest)
