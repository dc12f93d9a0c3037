"""Solve the stock two-parameter model problem and look at the discrete
solution.

-eps1*u'' + eps2*cos(x)*u' + (1+x)*u = exp(x), u(0) = u(1) = 0, with
eps1 = 1e-5, eps2 = 1e-2 and degree p = 4.  The parameters put the
problem in the reaction-convection-diffusion regime, so the mesh has two
thin layer elements whose widths follow the characteristic roots.  The
computed weak function carries separate interior polynomials and node
values; the jumps between them are the price of the discontinuous space
and stay far below the solution scale.
"""

# wg_hp before numpy: the package pins OpenBLAS to one thread, which
# only holds if numpy is not loaded yet
from wg_hp import model_problem
from wg_hp.verify import solve_on_sbl_mesh
from wg_hp.svgplot import solution_plot

import numpy as np

prob = model_problem(1e-5, 1e-2)
regime, mesh, u_p = solve_on_sbl_mesh(prob, p=4)

print(f"regime: {regime.value}")
print(f"mesh nodes: {np.array2string(mesh.nodes, precision=6)}")
print(f"element widths: {np.array2string(mesh.widths, precision=3)}")
print()
print("node values u_b:")
for x, v in zip(mesh.nodes, u_p.vb):
    print(f"  u_b({x:.6f}) = {v:+.6f}")

left, right = u_p.jumps()
print()
print("interior traces minus node values (the nonconformity):")
for j in range(mesh.n_elements):
    print(f"  element {j}: left jump {left[j]:+.2e}, right jump {right[j]:+.2e}")

segments = []
for j in range(mesh.n_elements):
    a, b = mesh.element(j)
    xs = np.linspace(a, b, 200)
    segments.append((xs, u_p.element_poly(j)(xs)))
svg = solution_plot(segments, list(zip(mesh.nodes, u_p.vb)),
                    "model problem, eps1=1e-5, eps2=1e-2, p=4")
with open("model_problem_solution.svg", "w") as fh:
    fh.write(svg)
print()
print("wrote model_problem_solution.svg")
