"""Exterior Dirichlet-to-Neumann maps over a measurement set.

The DN matrix couples hat functions supported in the measurement window;
it is symmetric, independent of the representative chosen for the test
datum (interior components do not matter), and its diagonal is bounded
by the direct energy of each hat (the solution minimizes energy).
"""

import numpy as np

from fractomo import (
    Box,
    Coefficients,
    DNOperator,
    KernelParams,
    Region,
    build_mesh,
    conductivity_form,
    potential_form,
)
from fractomo.profiles import bump

params = KernelParams(1, 0.25)
mesh = build_mesh(
    Box((-2.0,), (2.5,)), 1 / 32,
    [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.25,))],
)
x = mesh.coords
coeffs = Coefficients.from_arrays(1.0 + 0.5 * bump(x / 1.4), 0.2 * bump(x / 0.8))
form = conductivity_form(mesh, params, coeffs) + potential_form(mesh, coeffs.q)
op = DNOperator(mesh, params, coeffs, form=form)

dn = op.matrix("W1", "W1")
print(f"DN matrix over W1: {dn.entries.shape[0]} x {dn.entries.shape[1]} hats")
print(f"symmetry defect: {dn.symmetry_defect():.2e}")

for k in (0, len(dn.cols) // 2):
    phi = np.zeros(mesh.num_nodes)
    phi[dn.cols[k]] = 1.0
    direct = phi @ (form @ phi)
    print(f"hat at x = {x[dn.cols[k]]:+.3f}: <Lambda phi, phi> = "
          f"{dn.entries[k, k]:.6f} <= direct energy {direct:.6f}")

f = bump((x - 1.6) / 0.3); f[mesh.interior_dofs] = 0.0
g = bump((x - 1.9) / 0.25); g[mesh.interior_dofs] = 0.0
base = op.pairing(f, g)
z = np.zeros(mesh.num_nodes)
z[mesh.interior_dofs] = np.sin(x[mesh.interior_dofs])
shifted = op.pairing(f, g + z, check_support=False)
print(f"\npairing <Lambda f, g> = {base:.8f}")
print(f"after shifting g by an interior vector: changes by {abs(shifted-base):.2e}")
