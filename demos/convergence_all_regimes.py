"""Exponential convergence in p, uniformly across the parameter regimes.

For each (eps1, eps2) pair the solver classifies the regime, builds the
matching layer-adapted mesh and solves at degrees p = 1..8; the error is
the energy-norm distance to a degree-2p reference on the same mesh,
relative to the reference norm.  The error curves fall exponentially and
the rate barely moves as the perturbation parameters sweep five orders of
magnitude, which is the whole point of combining the weak Galerkin method
with spectral boundary-layer meshes.
"""

# wg_hp before numpy: the package pins OpenBLAS to one thread, which
# only holds if numpy is not loaded yet
from wg_hp import model_problem
from wg_hp.verify import convergence_study
from wg_hp.svgplot import semilog_plot

import numpy as np

GRID = [
    (1e-5, 1e-2),   # reaction-convection-diffusion
    (1e-4, 1e-4),   # reaction-diffusion
    (1e-6, 1.0),    # convection-diffusion
    (1e-8, 1e-3),   # reaction-convection-diffusion, harder
]

records = []
for eps1, eps2 in GRID:
    recs, failures = convergence_study(model_problem(eps1, eps2), range(1, 9))
    assert not failures, failures
    records += recs

print(f"{'regime':>32} {'eps1':>8} {'eps2':>8} {'p':>2} {'dof':>4} {'rel err %':>12}")
for rec in records:
    print(f"{rec.regime:>32} {rec.eps1:>8.0e} {rec.eps2:>8.0e} "
          f"{rec.p:>2} {rec.dof:>4} {100 * rec.err_rel:>12.4e}")

curves = []
for eps1, eps2 in GRID:
    pts = [(r.p, 100 * r.err_rel) for r in records if (r.eps1, r.eps2) == (eps1, eps2)]
    curves.append((f"eps1={eps1:g} eps2={eps2:g}",
                   [p for p, _ in pts], [e for _, e in pts]))
    ps = np.array([p for p, _ in pts], dtype=float)
    slope = np.polyfit(ps, np.log10([e for _, e in pts]), 1)[0]
    print(f"eps1={eps1:g}, eps2={eps2:g}: log10(error) slope per degree = {slope:.3f}")

with open("convergence_all_regimes.svg", "w") as fh:
    fh.write(semilog_plot(curves, "relative energy error vs degree", "p", "error (%)"))
print("wrote convergence_all_regimes.svg")
