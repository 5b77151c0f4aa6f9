"""Forward problem: exterior-value solves for the weighted fractional
diffusion operator.

Two classical sanity anchors:

* with unit diffusion, zero absorption and a unit source on the interval
  (-1, 1), the solution is the closed-form torsion profile
  ``kappa_s (1 - x^2)^s``,
* globally constant exterior data (including the constant far field on
  the box complement) is reproduced exactly -- constants lie in the
  kernel of the diffusion form.
"""

import numpy as np
from scipy.special import gamma as G

from fractomo import (
    Box,
    Coefficients,
    FactorizedSystem,
    KernelParams,
    Region,
    build_mesh,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
)

s = 0.25
params = KernelParams(1, s)
kappa = G(0.5) / (2 ** (2 * s) * G(0.5 + s) * G(1 + s))
print(f"fractional torsion constant kappa_s = {kappa:.6f}")

print("\n-- closed-form benchmark on Omega = (-1, 1) --")
for h in (1 / 32, 1 / 64, 1 / 128):
    mesh = build_mesh(Box((-1.5,), (1.5,)), h, [Region("Omega", (-1.0,), (1.0,))])
    A = gagliardo_form(mesh, params)
    M = mass_matrix(mesh)
    sol = FactorizedSystem(A, mesh).solve(np.zeros(mesh.num_nodes),
                                          f_src=M.entries @ np.ones(mesh.num_nodes))
    x = mesh.coords
    exact = np.where(np.abs(x) < 1, kappa * np.maximum(0, 1 - x**2) ** s, 0.0)
    sub = mesh.interior_dofs[np.abs(x[mesh.interior_dofs]) <= 0.9]
    err = np.abs((sol.u[sub] - exact[sub]) / exact[sub]).max()
    print(f"h = 1/{round(1/h):4d}: interior rel error {err:.3%},"
          f" algebraic residual {sol.residual:.1e}")

print("\n-- constants pass through unchanged --")
mesh = build_mesh(Box((-2.0,), (2.0,)), 1 / 32, [Region("Omega", (-1.0,), (1.0,))])
co = Coefficients.from_arrays(np.full(mesh.num_nodes, 1.7), gamma_exterior=1.7)
B = conductivity_form(mesh, params, co)
for c in (0.7, -1.3):
    f = np.full(mesh.num_nodes, c)
    f[mesh.interior_dofs] = 0.0
    sol = FactorizedSystem(B, mesh).solve(f, far_field=c)
    print(f"c = {c:+.1f}: max |u - c| = {np.abs(sol.u - c).max():.2e},"
          f" energy = {sol.energy:.2e}")
