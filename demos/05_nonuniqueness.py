"""The constructive non-uniqueness pair.

A diffusion built from an s-harmonic, mollified, capped deviation --
together with the absorption defined through the weak fractional
Laplacian of that deviation -- reproduces the DN data of the trivial
background (unit diffusion, zero absorption) on the measurement window,
although its absorption does not vanish there.  Matching DN data, a
genuinely different pair: exterior measurements cannot distinguish them
without knowing the absorption on the window.
"""

from fractomo import (
    Box,
    Coefficients,
    DNOperator,
    KernelParams,
    Region,
    build_mesh,
    build_pair,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    potential_form,
    solution_relation_residual,
    verify_nonuniqueness,
)
from fractomo.profiles import bump

params = KernelParams(1, 0.25)
regions = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))]
omega_prime = Region("Omega_prime", (-0.5,), (0.5,))
omega_seed = Region("omega_seed", (2.1,), (2.4,))

print("h        dn_gap      q_gap   ||m||_inf  multiplier  threshold")
for h in (1 / 32, 1 / 64, 1 / 128):
    mesh = build_mesh(Box((-2.25,), (3.25,)), h, regions)
    gform = gagliardo_form(mesh, params)
    mass = mass_matrix(mesh)
    W = mesh.regions["W1"]
    pair = build_pair(mesh, omega_prime, omega_seed, 0.05, W, gform=gform,
                      mass=mass)
    qform = potential_form(mesh, pair.q1)
    op = DNOperator(mesh, params, pair.coeffs,
                    form=conductivity_form(mesh, params, pair.coeffs) + qform)
    rep = verify_nonuniqueness(pair, W, operator=op, gform=gform, qform=qform,
                               mass=mass)
    print(f"1/{round(1/h):<6d} {rep['dn_gap']:.3e} {rep['q_gap']:8.4f}"
          f" {rep['m_sup']:9.4f} {rep['multiplier_estimate']:10.4f}"
          f" {rep['admissibility_threshold']:10.4f}")

print("\nsolution relation: the rescaled solutions of the two problems")
print("agree for data supported in the window")
x = mesh.coords
f = bump((x - 1.5) / 0.25)
f[mesh.interior_dofs] = 0.0
r = solution_relation_residual(
    op, DNOperator(mesh, params, Coefficients.background(mesh), form=gform),
    f, "W1", mass=mass)
print(f"relative L2 mismatch of sqrt(gamma) u between the pairs: {r:.2e}")
