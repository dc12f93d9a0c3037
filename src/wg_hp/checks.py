"""Self-contained property suites behind the `check` command.

Each suite exercises one structural fact of the discretization on the
stock model problem across all three parameter regimes: duality residuals
of the weak derivatives, coercivity and solvability, the equivalence
envelope between the two energy norms, the discrete error-equation
identity, and exact reproduction of polynomial solutions.  A doubled
quadrature order confirms integral values are quadrature-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp.assembly import assemble, bilinear_apply, bilinear_values, load_apply, solve
from wg_hp.coeffexpr import evaluate
from wg_hp.polybasis import gauss_rule, legendre_eval, quad_order
from wg_hp.problem import model_problem
from wg_hp.verify import (
    energy_error,
    error_equation_terms,
    exact_weakfunction,
    interpolant_weakfunction,
    manufacture,
    sbl_mesh,
)
from wg_hp.weakspace import (
    WeakFunction,
    default_penalties,
    energy_norms,
    norms_p,
    weak_convection_derivative,
    weak_derivative,
)

# (eps1, eps2) pairs hitting each regime, and the degrees swept per suite
EPS_PAIRS = ((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0))
DEGREES = (2, 4, 6)

# norm-equivalence precondition on the penalties: eps1*p^2/h_j <= C_sigma * sigma_j
C_SIGMA = 1.0


@dataclass
class SuiteResult:
    name: str
    passed: bool
    n_checks: int
    n_failed: int
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: {self.n_checks - self.n_failed}/{self.n_checks} checks"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass
class _Tally:
    n: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, note: str = ""):
        self.n += 1
        if not ok:
            self.failed += 1
            if note:
                self.notes.append(note)

    def result(self, name: str, extra: str = "") -> SuiteResult:
        detail = "; ".join(self.notes[:3])
        if extra:
            detail = f"{extra}" + (f"; {detail}" if detail else "")
        return SuiteResult(name, self.failed == 0, self.n, self.failed, detail)


def _problems() -> tuple:
    """The stock model problem at each pair of EPS_PAIRS."""
    return tuple(model_problem(eps1, eps2) for eps1, eps2 in EPS_PAIRS)


def _case_list() -> list:
    """(problem, mesh, p) over the regime grid and degree sweep, with one
    problem per EPS_PAIRS entry shared by its degrees."""
    return [(prob, sbl_mesh(prob, p), p) for prob in _problems() for p in DEGREES]


def _cases(cases=None, u_text: str | None = None):
    """Yield the (problem, mesh, p) of cases, shared by every suite of a run
    (None builds them afresh); with u_text, yield the manufactured case for
    that exact solution, made once per problem, in place of the problem."""
    last = item = None
    for prob, mesh, p in _case_list() if cases is None else cases:
        if prob is not last:
            last, item = prob, prob if u_text is None else manufacture(u_text, prob)
        yield item, mesh, p


def _random_weakfunction(rng, mesh, p) -> WeakFunction:
    coeffs = rng.standard_normal((mesh.n_elements, p + 1))
    vb = rng.standard_normal(mesh.n_elements + 1)
    vb[0] = vb[-1] = 0.0  # discrete space has vanishing boundary node values
    return WeakFunction(mesh, coeffs, vb)


def _random_stack(rng, mesh, p, k) -> tuple:
    """k random weak functions drawn one at a time, stacked as (coeffs, vb)."""
    vs = [_random_weakfunction(rng, mesh, p) for _ in range(k)]
    return np.stack([v.coeffs for v in vs]), np.stack([v.vb for v in vs])


def _sigmas(problem, mesh, p, sigma_override):
    if sigma_override is None:
        return default_penalties(mesh, p, problem.eps1)
    return np.full(mesh.n_elements, float(sigma_override))


def _definition_residuals(prob, mesh, p, v) -> tuple[list, list]:
    """The duality residuals of D v against P_0..P_{p-1} and of Dc v against
    P_0..P_p, one row per element, relative to the size of v there; every
    element and test degree at once, each moment a row sum."""
    d = weak_derivative(v)
    dc = weak_convection_derivative(v, prob.b, prob.b_prime)
    rule = gauss_rule(quad_order(p) + p)
    t = rule.nodes
    # b and b' on all elements' quadrature points, and vb * b at the nodes
    x, w = rule.mapped(mesh.nodes[:-1, None], mesh.nodes[1:, None])
    bv = evaluate(prob.b, x)[:, None, :]
    bpv = evaluate(prob.b_prime, x)[:, None, :]
    vb = v.vb[:, None]
    vbb = vb * evaluate(prob.b, mesh.nodes)[:, None]
    # the test polynomials P_k and, on each element, their derivatives in x
    q = npleg.legval(t, np.eye(p + 1))
    dq = np.array([legendre_eval(k, t)[1] for k in range(p + 1)])
    dq = dq * (2.0 / mesh.widths)[:, None, None]
    wv0 = (w * npleg.legval(t, v.coeffs.T))[:, None, :]
    sign = (-1.0) ** np.arange(p + 1)
    lhs = ((w * npleg.legval(t, d.coeffs.T))[:, None, :] * q[:p]).sum(axis=2)
    rhs = -(wv0 * dq[:, :p]).sum(axis=2) + vb[1:] - vb[:-1] * sign[:p]
    c_lhs = ((w * npleg.legval(t, dc.coeffs.T))[:, None, :] * q).sum(axis=2)
    c_rhs = -(wv0 * (bpv * q + bv * dq)).sum(axis=2) + vbb[1:] - vbb[:-1] * sign
    size = np.max(np.abs(v.coeffs), axis=1) + np.abs(v.vb[:-1]) + np.abs(v.vb[1:])
    scale = np.maximum(size, 1.0)[:, None]
    return (np.abs(lhs - rhs) / scale).tolist(), (np.abs(c_lhs - c_rhs) / scale).tolist()


def suite_definition_residuals(rng, cases=None, **_) -> SuiteResult:
    """Both weak derivatives satisfy their defining duality relation
    against every admissible test polynomial."""
    tally = _Tally()
    worst = 0.0
    for prob, mesh, p in _cases(cases):
        v = _random_weakfunction(rng, mesh, p)
        for d_row, dc_row in zip(*_definition_residuals(prob, mesh, p, v)):
            for resid in d_row:
                worst = max(worst, resid)
                tally.check(resid <= 1e-10, f"D residual {resid:.2e} (p={p})")
            for resid in dc_row:
                worst = max(worst, resid)
                tally.check(resid <= 1e-10, f"Dc residual {resid:.2e} (p={p})")
    return tally.result("definition-residuals", f"worst residual {worst:.2e}")


def suite_coercivity_solve(rng, cases=None, sigma_override=None, **_) -> SuiteResult:
    """Penalty condition, a provable coercivity bound, solvability of the
    assembled system, and Galerkin orthogonality of the computed solution.
    The 3 coercivity trials of a case are drawn one at a time and then
    evaluated together: one stacked B(v, v) and one stacked norm_p."""
    tally = _Tally()
    for prob, mesh, p in _cases(cases):
        sigmas = _sigmas(prob, mesh, p, sigma_override)
        required = prob.eps1 * p**2 / mesh.widths
        ok = bool(np.all(required <= C_SIGMA * sigmas * (1 + 1e-12)))
        tally.check(ok, f"penalty condition eps1*p^2/h <= sigma violated (p={p})")
        v = _random_stack(rng, mesh, p, 3)
        quads = bilinear_values(mesh, v, v, prob, sigmas).tolist()
        for quad, norm in zip(quads, norms_p(mesh, *v, prob, sigmas).tolist()):
            bound = 0.25 * min(1.0, prob.gamma_hat) * norm**2
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
        v = _random_weakfunction(rng, mesh, p)
        lhs = bilinear_apply(u_p, v, prob, sigmas)
        rhs = load_apply(v, prob)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        tally.check(
            abs(lhs - rhs) / scale <= 1e-8,
            f"Galerkin residual {abs(lhs - rhs) / scale:.2e} (p={p})",
        )
    return tally.result("coercivity-solve")


def suite_norm_equivalence(rng, cases=None, sigma_override=None, **_) -> SuiteResult:
    """norm_p and norm_broken stay within a fixed envelope of each other.
    The 5 trials of a case are drawn one at a time and then evaluated
    together: one stacked call for each norm."""
    tally = _Tally()
    lo, hi = np.inf, 0.0
    for prob, mesh, p in _cases(cases):
        sigmas = _sigmas(prob, mesh, p, sigma_override)
        v = _random_stack(rng, mesh, p, 5)
        norms = norms_p(mesh, *v, prob, sigmas).tolist()
        for a, c in zip(norms, energy_norms(mesh, *v, prob, sigmas).tolist()):
            if c == 0.0:
                tally.check(a == 0.0, "norm_broken vanished on a nonzero function")
                continue
            ratio = a / c
            lo, hi = min(lo, ratio), max(hi, ratio)
            tally.check(1.0 / 50.0 <= ratio <= 50.0, f"ratio {ratio:.3g} outside envelope")
    return tally.result("norm-equivalence", f"ratio range [{lo:.3g}, {hi:.3g}]")


def suite_error_equation(rng, cases=None, **_) -> SuiteResult:
    """A(Iu - u_p, v) equals the three consistency-error terms."""
    tally = _Tally()
    worst = 0.0
    for case, mesh, p in _cases(cases, "sin(3.141592653589793*x)"):
        prob = case.problem
        nq = quad_order(p)
        u_p = solve(assemble(prob, mesh, p, nquad=nq))
        iu = interpolant_weakfunction(case, mesh, p, nquad=nq)
        v = _random_weakfunction(rng, mesh, p)
        lhs = bilinear_apply(iu - u_p, v, prob, nquad=nq)
        e1, e2, e3 = error_equation_terms(case, v, nquad=nq)
        scale = max(abs(lhs), abs(e1) + abs(e2) + abs(e3), 1e-30)
        resid = abs(lhs - (e1 + e2 + e3)) / scale
        worst = max(worst, resid)
        tally.check(resid <= 1e-7, f"identity residual {resid:.2e} (p={p})")
    return tally.result("error-equation", f"worst residual {worst:.2e}")


def suite_polynomial_reproduction(rng, cases=None, **_) -> SuiteResult:
    """The method reproduces a polynomial exact solution to roundoff."""
    tally = _Tally()
    for case, mesh, p in _cases(cases, "x*(1-x)"):
        u_p = solve(assemble(case.problem, mesh, p))
        u_star = exact_weakfunction(case, mesh, p)
        _, rel = energy_error(u_star, u_p, case.problem)
        tally.check(rel <= 1e-9, f"reproduction error {rel:.2e} (p={p})")
    return tally.result("polynomial-reproduction")


def suite_quadrature_stability(rng, cases=None, sigma_override=None, **_) -> SuiteResult:
    """Assembled matrices and bilinear-form values are unchanged (to 1e-10)
    under a doubled quadrature order."""
    tally = _Tally()
    worst = 0.0
    for prob, mesh, p in _cases(cases):
        sigmas = _sigmas(prob, mesh, p, sigma_override)
        nq = quad_order(p)
        sys1 = assemble(prob, mesh, p, sigmas=sigmas, nquad=nq)
        sys2 = assemble(prob, mesh, p, sigmas=sigmas, nquad=2 * nq)
        scale = max(float(np.max(np.abs(sys1.matrix))), 1e-30)
        dmat = float(np.max(np.abs(sys1.matrix - sys2.matrix))) / scale
        rscale = max(float(np.max(np.abs(sys1.rhs))), 1e-30)
        drhs = float(np.max(np.abs(sys1.rhs - sys2.rhs))) / rscale
        worst = max(worst, dmat, drhs)
        tally.check(dmat <= 1e-10, f"matrix drift {dmat:.2e} (p={p})")
        tally.check(drhs <= 1e-10, f"rhs drift {drhs:.2e} (p={p})")
        u = _random_weakfunction(rng, mesh, p)
        v = _random_weakfunction(rng, mesh, p)
        a1 = bilinear_apply(u, v, prob, sigmas, nq)
        a2 = bilinear_apply(u, v, prob, sigmas, 2 * nq)
        dval = abs(a1 - a2) / max(abs(a1), 1e-30)
        worst = max(worst, dval)
        tally.check(dval <= 1e-10, f"bilinear drift {dval:.2e} (p={p})")
    return tally.result("quadrature-stability", f"worst drift {worst:.2e}")


SUITES = (
    suite_definition_residuals,
    suite_coercivity_solve,
    suite_norm_equivalence,
    suite_error_equation,
    suite_polynomial_reproduction,
)


def run_check(
    seed: int = 0,
    quad_double: bool = False,
    sigma_override: float | None = None,
) -> list[SuiteResult]:
    """Run every property suite; returns one SuiteResult per suite.

    sigma_override replaces the default per-element penalties with a
    constant (0.0 deliberately violates the penalty condition and makes
    the coercivity-solve suite fail).  quad_double adds the doubled
    quadrature stability suite.  The cases, problems and meshes, are built
    once and shared by every suite, so each problem is validated and set
    up once per run and each mesh built once.
    """
    rng = np.random.default_rng(seed)
    cases = _case_list()
    suites = list(SUITES)
    if quad_double:
        suites.append(suite_quadrature_stability)
    return [fn(rng, cases=cases, sigma_override=sigma_override) for fn in suites]
