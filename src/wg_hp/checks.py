"""Self-contained property suites behind the `check` command.

Each suite checks one structural fact of the discretization, on the whole
basis of the discrete space of the stock model problem in all three
parameter regimes: duality residuals of the weak derivatives, the sharp
coercivity constant and solvability, the exact equivalence range of the
two energy norms, the discrete error-equation identity, and exact
reproduction of polynomial solutions.  A doubled quadrature order
confirms integral values are quadrature-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import legendre as npleg

from wg_hp.assembly import DofMap, assemble, bilinear_values, solve
from wg_hp.coeffexpr import evaluate
from wg_hp.forking import run_shares, usable_cpus
from wg_hp.polybasis import gauss_rule, legendre_eval, quad_order
from wg_hp.problem import model_problem
from wg_hp.verify import (
    energy_error,
    error_equation_values,
    exact_weakfunction,
    manufacture,
    sbl_mesh,
)
from wg_hp.weakspace import (
    _apply,
    _convection_apply,
    _derivative_operator,
    default_penalties,
    element_quadrature,
    gram_rows,
    norms_p,
)

# (eps1, eps2) pairs hitting each regime, and the degrees swept per suite
EPS_PAIRS = ((1e-5, 1e-2), (1e-4, 1e-4), (1e-6, 1.0))
DEGREES = (2, 4, 6)


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

    def check(self, ok, note: str = ""):
        ok = np.asarray(ok)
        self.n += ok.size
        self.failed += ok.size - int(np.count_nonzero(ok))
        if note and not ok.all():
            self.notes.append(note)

    def result(self, name: str, extra: str = "") -> SuiteResult:
        detail = "; ".join(self.notes[:3])
        if extra:
            detail = f"{extra}" + (f"; {detail}" if detail else "")
        return SuiteResult(name, self.failed == 0, self.n, self.failed, detail)


def _problems() -> tuple:
    """The stock model problem at each pair of EPS_PAIRS."""
    return tuple(model_problem(eps1, eps2) for eps1, eps2 in EPS_PAIRS)


def _case_list(sigma_override: float | None = None) -> list:
    """(problem, mesh, p, sigmas, basis, system, grams) over the regime grid and
    degree sweep, one problem per EPS_PAIRS entry: the penalties (sigma_override
    on every element, if given), the stacked _basis, the system assembled with
    them, and the Gram matrices (G_p, G_broken) of the two norms on the basis."""
    if sigma_override is not None and not 0 <= sigma_override < np.inf:
        raise ValueError(f"sigma_override must be finite and >= 0, got {sigma_override!r}")
    cases = []
    for prob in _problems():
        for p in DEGREES:
            mesh = sbl_mesh(prob, p)
            sigmas = (default_penalties(mesh, p, prob.eps1) if sigma_override is None
                      else np.full(mesh.n_elements, float(sigma_override)))
            basis = _basis(mesh, p)
            grams = tuple(rows @ rows.T for rows in gram_rows(mesh, *basis, prob, sigmas))
            cases.append((prob, mesh, p, sigmas, basis, assemble(prob, mesh, p, sigmas=sigmas), grams))
    return cases


def _cases(cases=None, u_text: str | None = None):
    """Yield the cases of _case_list, shared by every suite of a run (None
    builds them afresh); with u_text, yield the manufactured case for that
    exact solution, made once per problem, in place of the problem."""
    last = item = None
    for prob, *rest in _case_list() if cases is None else cases:
        if prob is not last:
            last, item = prob, prob if u_text is None else manufacture(u_text, prob)
        yield (item, *rest)


def _basis(mesh, p) -> tuple:
    """The unit vectors of the N(p+1) coefficients and N-1 interior node
    values, the rows of np.eye(n) split by DofMap.split into (n, N, p+1)
    and (n, N+1) as for energy_norms."""
    dofs = DofMap(mesh.n_elements, p)
    return dofs.split(np.eye(dofs.total))


def _pencil(gram, mat) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of mat x = lam gram x, from
    L^-1 mat L^-T with gram = L L^T; NaN if gram is not positive definite."""
    try:
        linv = np.linalg.inv(np.linalg.cholesky(gram))
        lam, y = np.linalg.eigh(linv @ mat @ linv.T)
    except np.linalg.LinAlgError:
        return np.full(len(gram), np.nan), np.full(gram.shape, np.nan)
    return lam, linv.T @ y


@lru_cache(maxsize=None)
def _test_polynomials(p: int, nq: int) -> tuple:
    """P_k and P_k' at the nq Gauss nodes, rows k = 0..p, by legval and
    legendre_eval, not basis_tables; shared and read-only."""
    t = gauss_rule(nq).nodes
    out = npleg.legval(t, np.eye(p + 1)), np.array([legendre_eval(k, t)[1] for k in range(p + 1)])
    for table in out:
        table.setflags(write=False)
    return out


def _definition_residuals(prob, mesh, p, coeffs, vb) -> tuple:
    """The duality residuals (k, N, p) of D v against P_0..P_{p-1} and
    (k, N, p+1) of Dc v against P_0..P_p of k weak functions stacked as for
    energy_norms, relative to each v's size on each element; each a row sum."""
    d = _apply(_derivative_operator(mesh.widths, p), coeffs, vb)
    dc = _convection_apply(mesh, coeffs, vb, prob.b, prob.b_prime)
    # b and b' on all elements' quadrature points, and vb * b at the nodes
    t, w, bv, bpv = element_quadrature(mesh.nodes, quad_order(p) + p, prob.b, prob.b_prime)
    bv, bpv = bv[:, None, :], bpv[:, None, :]
    vbn = vb[..., None]
    vbb = vbn * evaluate(prob.b, mesh.nodes)[:, None]
    # the test polynomials P_k and, on each element, their derivatives in x
    q, dq = _test_polynomials(p, len(t))
    dq = dq * (2.0 / mesh.widths)[:, None, None]
    wv0 = (w * npleg.legval(t, np.moveaxis(coeffs, 2, 0)))[..., None, :]
    sign = (-1.0) ** np.arange(p + 1)
    lhs = ((w * npleg.legval(t, np.moveaxis(d, 2, 0)))[..., None, :] * q[:p]).sum(axis=3)
    rhs = -(wv0 * dq[:, :p]).sum(axis=3) + vbn[:, 1:] - vbn[:, :-1] * sign[:p]
    c_lhs = ((w * npleg.legval(t, np.moveaxis(dc, 2, 0)))[..., None, :] * q).sum(axis=3)
    c_rhs = -(wv0 * (bpv * q + bv * dq)).sum(axis=3) + vbb[:, 1:] - vbb[:, :-1] * sign
    size = np.max(np.abs(coeffs), axis=2) + np.abs(vb[:, :-1]) + np.abs(vb[:, 1:])
    scale = np.maximum(size, 1.0)[..., None]
    return np.abs(lhs - rhs) / scale, np.abs(c_lhs - c_rhs) / scale


def suite_definition_residuals(cases=None) -> SuiteResult:
    """Both weak derivatives of every basis function satisfy their defining
    duality relation against every admissible test polynomial."""
    tally = _Tally()
    worst = 0.0
    for prob, mesh, p, _, basis, *_ in _cases(cases):
        for name, resid in zip(("D", "Dc"), _definition_residuals(prob, mesh, p, *basis)):
            worst = max(worst, float(resid.max()))
            tally.check(resid <= 1e-10, f"{name} residual {resid.max():.2e} (p={p})")
    return tally.result("definition-residuals", f"worst residual {worst:.2e}")


def suite_coercivity_solve(cases=None) -> SuiteResult:
    """Penalty condition, the sharp coercivity constant of the assembled
    matrix relative to norm_p against the bound 1/4*min(1, gamma_hat),
    confirmed without the matrix at its eigenfunction, solvability, and
    Galerkin orthogonality of the solution to every basis function."""
    tally = _Tally()
    lowest, least_bound = np.inf, np.inf
    for prob, mesh, p, sigmas, basis, system, (gram_p, _) in _cases(cases):
        required = prob.eps1 * p**2 / mesh.widths
        ok = bool(np.all(required <= sigmas * (1 + 1e-12)))
        tally.check(ok, f"penalty condition eps1*p^2/h <= sigma violated (p={p})")
        lam, vecs = _pencil(gram_p, (system.matrix + system.matrix.T) / 2)
        bound = 0.25 * min(1.0, prob.gamma_hat)
        lowest, least_bound = np.minimum(lowest, lam[0]), min(least_bound, bound)
        tally.check(lam[0] >= bound * (1 - 1e-10), f"constant {lam[0]:.3g} < {bound:.3g} (p={p})")
        # the constant again, without the matrix, at its extremal function
        v = tuple((vecs[:, 0] @ b.reshape(len(b), -1)).reshape(b[:1].shape) for b in basis)
        free = bilinear_values(mesh, v, v, prob, sigmas) / norms_p(mesh, *v, prob, sigmas) ** 2
        tally.check(abs(free - lam[0]) <= 1e-8 * abs(lam[0]), f"matrix-free {free[0]:.6g} (p={p})")
        try:
            u_p = solve(system)
        except Exception as exc:  # noqa: BLE001 - record, keep sweeping
            tally.check(False, f"solve failed: {exc}")
            continue
        tally.check(True)
        lhs = bilinear_values(mesh, (u_p.coeffs[None], u_p.vb[None]), basis, prob, sigmas)
        resid = np.abs(lhs - system.rhs) / max(np.abs(lhs).max(), np.abs(system.rhs).max(), 1e-30)
        tally.check(resid <= 1e-8, f"Galerkin residual {resid.max():.2e} (p={p})")
    return tally.result("coercivity-solve", f"min constant {lowest:.3g}, bound {least_bound:.3g}")


def suite_norm_equivalence(cases=None) -> SuiteResult:
    """The exact range of norm_p / norm_broken over the discrete space, the
    square roots of the generalized eigenvalues of the two norms' Gram
    matrices, lies in [1/2, 2]; it is [0.581, 1.72] with default penalties."""
    tally = _Tally()
    lo, hi = np.inf, 0.0
    for _, _, p, *_, (gram_p, gram_broken) in _cases(cases):
        ratio = np.sqrt(_pencil(gram_broken, gram_p)[0])
        lo, hi = np.minimum(lo, ratio[0]), np.maximum(hi, ratio[-1])
        note = f"ratio range [{ratio[0]:.3g}, {ratio[-1]:.3g}] outside [1/2, 2] (p={p})"
        tally.check(0.5 <= ratio[0] and ratio[-1] <= 2.0, note)
    return tally.result("norm-equivalence", f"ratio range [{lo:.3g}, {hi:.3g}]")


def suite_error_equation(cases=None) -> SuiteResult:
    """A(Iu - u_p, v) equals the three consistency-error terms for every
    basis function v, relative to the largest sum of their sizes; the terms
    and A share one interpolant Iu."""
    tally = _Tally()
    worst = 0.0
    for case, mesh, p, _, basis, *_ in _cases(cases, "sin(3.141592653589793*x)"):
        prob = case.problem
        nq = quad_order(p)
        terms, iu = error_equation_values(case, mesh, *basis, nquad=nq)
        diff = iu - solve(assemble(prob, mesh, p, nquad=nq))
        lhs = bilinear_values(mesh, (diff.coeffs[None], diff.vb[None]), basis, prob, nquad=nq)
        scale = max(float(np.abs(terms).sum(axis=0).max()), 1e-30)
        resid = np.abs(lhs - terms.sum(axis=0)) / scale
        worst = max(worst, float(resid.max()))
        tally.check(resid <= 1e-7, f"identity residual {resid.max():.2e} (p={p})")
    return tally.result("error-equation", f"worst residual {worst:.2e}")


def suite_polynomial_reproduction(cases=None) -> SuiteResult:
    """The method reproduces a polynomial exact solution to roundoff."""
    tally = _Tally()
    for case, mesh, p, *_ in _cases(cases, "x*(1-x)"):
        u_p = solve(assemble(case.problem, mesh, p))
        u_star = exact_weakfunction(case, mesh, p)
        _, rel = energy_error(u_star, u_p, case.problem)
        tally.check(rel <= 1e-9, f"reproduction error {rel:.2e} (p={p})")
    return tally.result("polynomial-reproduction")


def suite_quadrature_stability(cases=None) -> SuiteResult:
    """Assembled matrices, load vectors and B(v, v) of every basis function
    are unchanged (to 1e-10) under a doubled quadrature order."""
    tally = _Tally()
    worst = 0.0
    for prob, mesh, p, sigmas, basis, sys1, _ in _cases(cases):
        nq = quad_order(p)
        sys2 = assemble(prob, mesh, p, sigmas=sigmas, nquad=2 * nq)
        scale = max(float(np.max(np.abs(sys1.matrix))), 1e-30)
        dmat = float(np.max(np.abs(sys1.matrix - sys2.matrix))) / scale
        rscale = max(float(np.max(np.abs(sys1.rhs))), 1e-30)
        drhs = float(np.max(np.abs(sys1.rhs - sys2.rhs))) / rscale
        a1 = bilinear_values(mesh, basis, basis, prob, sigmas, nq)
        a2 = bilinear_values(mesh, basis, basis, prob, sigmas, 2 * nq)
        dval = float(np.max(np.abs(a1 - a2))) / max(float(np.max(np.abs(a1))), 1e-30)
        worst = max(worst, dmat, drhs, dval)
        tally.check(dmat <= 1e-10, f"matrix drift {dmat:.2e} (p={p})")
        tally.check(drhs <= 1e-10, f"rhs drift {drhs:.2e} (p={p})")
        tally.check(dval <= 1e-10, f"bilinear drift {dval:.2e} (p={p})")
    return tally.result("quadrature-stability", f"worst drift {worst:.2e}")


SUITES = (
    suite_definition_residuals,
    suite_coercivity_solve,
    suite_norm_equivalence,
    suite_error_equation,
    suite_polynomial_reproduction,
)

# The suites run_check runs in a forked worker when two CPUs are usable: warm,
# on one CPU, they take about 15 ms, against 17.5 ms for the suites the
# parent keeps with quad_double (coercivity-solve, polynomial-reproduction
# and quadrature-stability) and 12 ms without it; each process first builds
# the cases, in about 3.8 ms.
FORKED_SUITES = (suite_error_equation, suite_definition_residuals, suite_norm_equivalence)


def _run_suites(sigma_override, suites) -> list[SuiteResult]:
    """Each of suites run on the cases of _case_list(sigma_override)."""
    cases = _case_list(sigma_override)
    return [fn(cases) for fn in suites]


def run_check(quad_double: bool = False, sigma_override: float | None = None) -> list[SuiteResult]:
    """Run every property suite; returns one SuiteResult per suite, in
    SUITES order, then quadrature-stability.

    sigma_override replaces the default per-element penalties with a
    constant (0.0 deliberately violates the penalty condition, and with it
    the coercivity-solve and norm-equivalence suites fail).  quad_double
    adds the doubled quadrature stability suite.  The cases are built once
    per process and shared by every suite it runs: each problem is validated
    and set up once, and each mesh, basis, system and Gram matrix built once
    per case.  When forking.usable_cpus() is 2 or more, the FORKED_SUITES
    run in a persistent forked worker (forking.run_shares), which receives
    only sigma_override and builds the same cases itself, in parallel with
    the caller (sending the 80 KB of pickled cases was slower); the results
    are the same.
    """
    suites = SUITES + (suite_quadrature_stability,) if quad_double else SUITES
    if usable_cpus() < 2:
        return _run_suites(sigma_override, suites)
    own = tuple(fn for fn in suites if fn not in FORKED_SUITES)
    mine, forked = run_shares(partial(_run_suites, sigma_override), [own, FORKED_SUITES])
    by_suite = dict(zip(own + FORKED_SUITES, mine + forked))
    return [by_suite[fn] for fn in suites]
