"""Reduction to a fractional Schroedinger problem.

The weighted-diffusion energy of a pair (u, phi) equals the Schroedinger
energy of the rescaled pair (sqrt(gamma) u, sqrt(gamma) phi) with the
reduced potential built from the background deviation.  Discretely the
identity holds up to nodal re-interpolation error, which decays at
second order; the companion DN transfer identity relates the exterior
maps of the two problems.
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
    dn_transfer_residual,
    gagliardo_form,
    liouville_residual,
    potential_form,
    reduced_potential_form,
)
from fractomo.profiles import bump

params = KernelParams(1, 0.25)
regions = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.0,))]
box = Box((-2.25,), (3.25,))

print("h          form identity   DN transfer")
for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
    mesh = build_mesh(box, h, regions)
    x = mesh.coords
    gam = 1.0 + 0.8 * bump(x / 1.6)
    coeffs = Coefficients.from_arrays(gam, 0.3 * bump(x / 1.2))
    u = np.zeros_like(x)
    phi = np.zeros_like(x)
    ii = mesh.interior_dofs
    u[ii] = bump((x[ii] - 0.2) / 0.6)
    phi[ii] = bump((x[ii] + 0.3) / 0.5)
    # each form is assembled once and read by both identities
    gform = gagliardo_form(mesh, params)
    qform = potential_form(mesh, coeffs.q)
    form = conductivity_form(mesh, params, coeffs) + qform
    op = DNOperator(mesh, params, coeffs, form=form)
    r_form = liouville_residual(coeffs, u, phi, cond_form=form, gform=gform,
                                qform=qform)
    f = bump((x - 1.625) / 0.3); f[ii] = 0.0
    g = bump((x - 1.625) / 0.22); g[ii] = 0.0
    r_dn = dn_transfer_residual(op, gam, "W1", f, g, gform=gform, qform=qform)
    print(f"1/{round(1/h):<8d} {r_form:14.3e} {r_dn:13.3e}")

print("\nunit diffusion collapses the reduced potential to the plain")
print("absorption pairing (identity exact to round-off):")
mesh = build_mesh(box, 1 / 32, regions)
co1 = Coefficients.from_arrays(np.ones(mesh.num_nodes), 0.3 * bump(mesh.coords))
Mq = potential_form(mesh, co1.q)
Q = reduced_potential_form(co1, gform=gagliardo_form(mesh, params), qform=Mq)
print("max |Q-form - potential form| =", np.abs(Q.entries - Mq.entries).max())
