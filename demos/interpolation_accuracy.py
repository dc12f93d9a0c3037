"""Spectral accuracy of the building blocks: L2 projection and the
endpoint-matching interpolant.

Both operators live on a single interval and converge root-exponentially
in the degree for analytic functions; the interpolant additionally
matches the endpoint values exactly and keeps its derivative L2-optimal,
which is exactly what the discretization error analysis consumes.
"""

# wg_hp before numpy: the package pins OpenBLAS to one thread, which
# only holds if numpy is not loaded yet
from wg_hp.polybasis import gauss_rule, interpolate, l2_project

import numpy as np

rule = gauss_rule(60)
x, w = rule.mapped(0.0, 1.0)


def l2_error(f, g):
    return float(np.sqrt(np.sum(w * (f(x) - g(x)) ** 2)))


FUNCS = {
    "sin(pi x)": lambda z: np.sin(np.pi * z),
    "exp(x)": np.exp,
    "1/(1+25x^2)": lambda z: 1.0 / (1.0 + 25.0 * z**2),
}

print(f"{'function':>14} {'p':>2} {'projection err':>15} {'interpolant err':>16} {'endpoint err':>13}")
for name, f in FUNCS.items():
    for p in (2, 4, 8, 12):
        proj = l2_project(f, p, (0.0, 1.0), nquad=60)
        iy = interpolate(f, p, (0.0, 1.0), nquad=60)
        end = max(abs(float(f(0.0)) - iy(0.0)), abs(float(f(1.0)) - iy(1.0)))
        print(f"{name:>14} {p:>2} {l2_error(f, proj):>15.3e} "
              f"{l2_error(f, iy):>16.3e} {end:>13.1e}")
    print()

print("the projection is L2-optimal; the interpolant trades a little L2")
print("accuracy for exact endpoint values (endpoint column at roundoff)")
