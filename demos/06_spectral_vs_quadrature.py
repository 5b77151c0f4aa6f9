"""Cross-validation of the two operator routes.

The Galerkin route (singular-panel quadrature, then mass inversion) and
the Fourier-multiplier route (symbol on a padded periodic grid) are
independent discretizations of the same operator; their agreement on a
smooth bump calibrates the kernel normalization constant.
"""

import numpy as np

from fractomo import Box, KernelParams, build_mesh, gagliardo_form, mass_matrix
from fractomo.solver import mass_solve
from fractomo.spectral import spectral_frac_laplacian

mesh = build_mesh(Box((-8.0,), (8.0,)), 1 / 64, [])
u = np.exp(-mesh.coords**2)
M = mass_matrix(mesh)

print("s      C_{1,s}      rel L2 mismatch")
for s in (0.1, 0.25, 0.4):
    params = KernelParams(1, s)
    A = gagliardo_form(mesh, params)
    nodal = mass_solve(M, A.entries @ u)
    spec = spectral_frac_laplacian(mesh, params, u)
    diff = nodal - spec
    rel = np.sqrt(diff @ M.entries @ diff) / np.sqrt(spec @ M.entries @ spec)
    print(f"{s:.2f}  {params.C_ns:10.6f}  {rel:12.3%}")

print("\npointwise profile at the center (s = 0.25):")
params = KernelParams(1, 0.25)
A = gagliardo_form(mesh, params)
nodal = mass_solve(M, A.entries @ u)
spec = spectral_frac_laplacian(mesh, params, u)
for xv in (0.0, 0.5, 1.0, 2.0):
    k = np.argmin(np.abs(mesh.coords - xv))
    print(f"x = {xv:3.1f}: quadrature {nodal[k]:+.6f}   spectral {spec[k]:+.6f}")
