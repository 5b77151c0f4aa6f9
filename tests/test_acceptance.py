"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines with the measured values and their pinned tolerances.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as la
from scipy.special import gamma as gamma_fn

from fractomo.assembly import (
    Coefficients,
    KernelParams,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from fractomo.counterexample import build_pair, verify_nonuniqueness
from fractomo.dnmap import DNOperator, solution_relation_residual
from fractomo.mesh import Box, Region, build_mesh, region_dofs
from fractomo.profiles import bump, plateau
from fractomo.reconstruction import bump_sequence, exterior_reconstruct, potential_decay_check
from fractomo.reduction import dn_transfer_residual, liouville_residual
from fractomo.solver import (
    FactorizedSystem,
    coercivity_bound,
    multiplier_norm_estimate,
    poincare_constant,
)
from fractomo.spectral import spectral_frac_laplacian

from _oracles import (
    bruteforce_kernel_form_1d,
    bruteforce_kernel_form_2d,
    bruteforce_local_form_1d,
    exact_dn_pairing_1d,
)
from _systems import system_operator


def report(k, detail):
    print(f"\nACCEPTANCE {k}: PASS - {detail}")


# ---------------------------------------------------------------------------
# shared counterexample pipeline (criteria 9 and 10)
# ---------------------------------------------------------------------------

CE_REGIONS = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))]
CE_BOX = Box((-2.25,), (3.25,))
CE_PRIME = Region("Omega_prime", (-0.5,), (0.5,))
CE_SEED = Region("omega_seed", (2.1,), (2.4,))
CE_EPS = 0.05


@pytest.fixture(scope="module")
def counterexample_pipeline():
    t0 = time.time()
    par = KernelParams(1, 0.25)
    levels = {}
    for h in (1 / 32, 1 / 64, 1 / 128):
        mesh = build_mesh(CE_BOX, h, CE_REGIONS)
        gform = gagliardo_form(mesh, par)
        mass = mass_matrix(mesh)
        W = mesh.regions["W1"]
        pair = build_pair(mesh, CE_PRIME, CE_SEED, CE_EPS, W, gform=gform,
                          mass=mass)
        rep = verify_nonuniqueness(pair, W,
                                   operator=system_operator(mesh, par, pair.coeffs),
                                   gform=gform, qform=potential_form(mesh, pair.q1),
                                   mass=mass)
        levels[h] = (mesh, gform, pair, rep)
    return par, levels, time.time() - t0


def test_criterion_01_kernel_calibration():
    t0 = time.time()
    mesh = build_mesh(Box((-8.0,), (8.0,)), 1 / 64, [])
    u = np.exp(-mesh.coords**2)
    M = mass_matrix(mesh)
    errs = {}
    for s in (0.1, 0.25, 0.4):
        par = KernelParams(1, s)
        A = gagliardo_form(mesh, par)
        nodal = np.linalg.solve(M.entries, A.entries @ u)
        spec = spectral_frac_laplacian(mesh, par, u)
        diff = nodal - spec
        errs[s] = float(
            np.sqrt(diff @ M.entries @ diff) / np.sqrt(spec @ M.entries @ spec)
        )
        assert errs[s] < 0.02, f"s={s}: mismatch {errs[s]:.4f} >= 2%"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(1, "quadrature vs spectral rel-L2 "
              + " ".join(f"s={s}:{e:.3%}" for s, e in errs.items())
              + f" (< 2%), {elapsed:.1f}s < 30s")


def test_criterion_02_getoor_closed_form():
    s = 0.25
    par = KernelParams(1, s)
    kappa = gamma_fn(0.5) / (2 ** (2 * s) * gamma_fn(0.5 + s) * gamma_fn(1 + s))
    errors = {}
    center_err = None
    for h in (1 / 32, 1 / 64, 1 / 128):
        mesh = build_mesh(Box((-1.5,), (1.5,)), h, [Region("Omega", (-1.0,), (1.0,))])
        A = gagliardo_form(mesh, par)
        M = mass_matrix(mesh)
        sol = FactorizedSystem(A, mesh).solve(np.zeros(mesh.num_nodes),
                                              f_src=M.entries @ np.ones(mesh.num_nodes))
        x = mesh.coords
        exact = np.where(np.abs(x) < 1, kappa * np.maximum(0.0, 1 - x**2) ** s, 0.0)
        # pointwise relative error over the interior subregion |x| <= 0.9
        # (away from the boundary layer of the closed form, where the P1
        # interpolation error of (1-x^2)^s dominates at rate h^s)
        sub = mesh.interior_dofs[np.abs(x[mesh.interior_dofs]) <= 0.9]
        errors[h] = float(np.abs((sol.u[sub] - exact[sub]) / exact[sub]).max())
        center = np.argmin(np.abs(x))
        center_err = abs(sol.u[center] - kappa) / kappa
    hs = sorted(errors, reverse=True)
    rates = [math.log2(errors[hs[k]] / errors[hs[k + 1]]) for k in range(2)]
    assert errors[1 / 128] < 0.03
    assert center_err < 0.03
    assert all(r > 0.5 for r in rates)
    report(2, f"max rel interior error {errors[1/128]:.3%} (< 3%), "
              f"center error {center_err:.3%}, orders {rates[0]:.2f}, {rates[1]:.2f} (> 0.5)")


def test_criterion_03_constants_in_kernel():
    mesh = build_mesh(Box((-2.0,), (2.6,)), 0.05,
                      [Region("Omega", (-1.0,), (1.0,))])
    par = KernelParams(1, 0.25)
    co = Coefficients.from_arrays(np.full(mesh.num_nodes, 1.7), gamma_exterior=1.7)
    B = conductivity_form(mesh, par, co)
    system = FactorizedSystem(B, mesh)
    rng = np.random.default_rng(42)
    devs = []
    for c in rng.uniform(-3, 3, size=3):
        f = np.full(mesh.num_nodes, c)
        f[mesh.interior_dofs] = 0.0
        sol = system.solve(f, far_field=c)
        devs.append(float(np.abs(sol.u - c).max()))
    assert max(devs) < 1e-9
    report(3, f"constant data reproduced, max deviation {max(devs):.2e} (< 1e-9)")


def test_criterion_04_dn_symmetry_and_well_definedness():
    mesh = build_mesh(
        Box((-2.0,), (2.5,)), 1 / 64,
        [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.25,))],
    )
    par = KernelParams(1, 0.25)
    x = mesh.coords
    co = Coefficients.from_arrays(1.0 + 0.5 * bump(x / 1.4),
                                  0.2 * bump(x / 0.8))
    op = system_operator(mesh, par, co)
    dn = op.matrix("W1", "W1")
    sym = dn.symmetry_defect()
    assert sym < 1e-10
    f = bump((x - 1.6) / 0.3); f[mesh.interior_dofs] = 0.0
    g = bump((x - 1.9) / 0.25); g[mesh.interior_dofs] = 0.0
    base = op.pairing(f, g)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        z = np.zeros(mesh.num_nodes)
        z[mesh.interior_dofs] = rng.standard_normal(mesh.interior_dofs.size)
        worst = max(worst, abs(op.pairing(f, g + z, check_support=False) - base))
    assert worst < 1e-9
    report(4, f"DN symmetry defect {sym:.2e} (< 1e-10), "
              f"representative shift {worst:.2e} (< 1e-9)")


def test_criterion_05_liouville_reduction():
    par = KernelParams(1, 0.25)
    regions = [Region("Omega", (-1.0,), (1.0,))]
    mesh = build_mesh(Box((-2.25,), (2.25,)), 1 / 32, regions)
    co1 = Coefficients.from_arrays(np.ones(mesh.num_nodes),
                                   0.3 * bump(mesh.coords / 0.8))
    rng = np.random.default_rng(4)
    u = np.zeros(mesh.num_nodes)
    phi = np.zeros(mesh.num_nodes)
    u[mesh.interior_dofs] = rng.standard_normal(mesh.interior_dofs.size)
    phi[mesh.interior_dofs] = rng.standard_normal(mesh.interior_dofs.size)
    q1form = potential_form(mesh, co1.q)
    unit_res = liouville_residual(
        co1, u, phi, cond_form=conductivity_form(mesh, par, co1) + q1form,
        gform=gagliardo_form(mesh, par), qform=q1form)
    assert unit_res < 1e-12
    residuals = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        m = build_mesh(Box((-2.25,), (2.25,)), h, regions)
        x = m.coords
        co = Coefficients.from_arrays(1.0 + 0.8 * bump(x / 1.6),
                                      0.3 * bump(x / 1.2))
        uu = np.zeros_like(x)
        pp = np.zeros_like(x)
        ii = m.interior_dofs
        uu[ii] = bump((x[ii] - 0.2) / 0.6)
        pp[ii] = bump((x[ii] + 0.3) / 0.5)
        qform = potential_form(m, co.q)
        cond = conductivity_form(m, par, co) + qform
        residuals.append(liouville_residual(co, uu, pp, cond_form=cond,
                                            gform=gagliardo_form(m, par),
                                            qform=qform))
    rate = np.polyfit(np.log([32, 64, 128]), -np.log(residuals), 1)[0]
    assert rate > 0.5
    report(5, f"unit-diffusion residual {unit_res:.2e} (< 1e-12), "
              f"smooth-diffusion fitted rate {rate:.2f} (> 0.5)")


def test_criterion_06_dn_transfer_identity():
    par = KernelParams(1, 0.25)
    regions = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.0,))]
    box = Box((-2.25,), (3.25,))
    mesh = build_mesh(box, 1 / 32, regions)
    x = mesh.coords
    f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
    bg = Coefficients.background(mesh)
    unit = dn_transfer_residual(system_operator(mesh, par, bg), np.ones_like(x), "W1",
                                f, f, gform=gagliardo_form(mesh, par),
                                qform=potential_form(mesh, bg.q))
    assert unit <= 1e-10
    residuals = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        m = build_mesh(box, h, regions)
        xm = m.coords
        gam = 1.0 + 0.8 * bump(xm / 1.6)
        co = Coefficients.from_arrays(gam, 0.3 * bump(xm / 1.2))
        ff = bump((xm - 1.625) / 0.3); ff[m.interior_dofs] = 0.0
        gg = bump((xm - 1.625) / 0.22); gg[m.interior_dofs] = 0.0
        residuals.append(dn_transfer_residual(system_operator(m, par, co), gam, "W1",
                                              ff, gg, gform=gagliardo_form(m, par),
                                              qform=potential_form(m, co.q)))
    rate = np.polyfit(np.log([32, 64, 128]), -np.log(residuals), 1)[0]
    assert rate > 0.5
    report(6, f"unit case {unit:.2e} (<= solver tol), "
              f"smooth case rate {rate:.2f} (> 0.5), residuals "
              + " ".join(f"{r:.2e}" for r in residuals))


def test_criterion_07_exterior_reconstruction():
    t0 = time.time()
    par = KernelParams(1, 0.25)
    regions = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (2.4,))]
    mesh = build_mesh(Box((-2.25,), (3.75,)), 1 / 128, regions)
    x = mesh.coords
    x0 = 1.8
    gam = 1.0 + plateau(x, (1.0, 2.6), (0.7, 2.9))  # smooth, = 2 on W
    q = 5.0 * bump((x - x0) / 0.5)                  # >= 0, bounded, in W
    co = Coefficients.from_arrays(gam, q)
    gform = gagliardo_form(mesh, par)
    bumps = bump_sequence(mesh, "W1", x0, gform=gform, mass=mass_matrix(mesh))
    qform = potential_form(mesh, q)
    op = DNOperator(mesh, par, co, form=conductivity_form(mesh, par, co) + qform)
    out = exterior_reconstruct(op.matrix("W1", "W1"), bumps)
    err = abs(out["extrapolated"] - 2.0) / 2.0
    assert err < 0.05
    records = potential_decay_check(qform, bumps, math.inf, par)
    values = [r["value"] for r in records]
    slope = np.polyfit(np.log(bumps.scales), np.log(values), 1)[0]
    assert abs(slope - (-2 * par.s)) / (2 * par.s) < 0.25
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report(7, f"extrapolated {out['extrapolated']:.4f} (err {err:.2%} < 5%), "
              f"absorption decay exponent {slope:.3f} vs -2s={-2*par.s} "
              f"(within 25%), {elapsed:.0f}s < 180s")


def test_criterion_08_poincare_coercivity_chain():
    par25 = KernelParams(1, 0.25)
    mesh = build_mesh(Box((-2.0,), (2.0,)), 1 / 32,
                      [Region("Omega", (-1.0,), (1.0,))])
    A = gagliardo_form(mesh, par25)
    M = mass_matrix(mesh)
    pc = poincare_constant(mesh, par25, gform=A, mass=M)
    rng = np.random.default_rng(3)
    ii = mesh.interior_dofs
    margin = 0.0
    for _ in range(200):
        u = np.zeros(mesh.num_nodes)
        u[ii] = rng.standard_normal(ii.size)
        l2sq = u @ M.entries @ u
        semi = (2.0 / par25.C_ns) * (u @ A.entries @ u)
        assert l2sq <= pc["C_opt"] * semi * (1 + 1e-10)
        margin = max(margin, l2sq / (pc["C_opt"] * semi))
    # coercivity bound vs smallest interior eigenvalue on admissible
    # configurations (first Dirichlet energy level must clear the
    # mixed-convention chain, which holds for these domains and orders)
    checks = []
    for om, s, qamp in (
        (Region("Omega", (-0.5,), (0.5,)), 0.25, 0.15),
        (Region("Omega", (-1.0,), (1.0,)), 0.4, 0.2),
    ):
        par = KernelParams(1, s)
        msh = build_mesh(Box((-1.5 * om.upper[0] * 2,), (1.5 * om.upper[0] * 2,)),
                         1 / 32, [om])
        Am = gagliardo_form(msh, par)
        Mm = mass_matrix(msh)
        xm = msh.coords
        halfw = om.upper[0]
        gam = 1.0 + 0.4 * bump(xm / (2.4 * halfw))
        q = qamp * bump(xm / (0.8 * halfw))
        co = Coefficients.from_arrays(gam, q)
        B = conductivity_form(msh, par, co) + potential_form(msh, q)
        pcm = poincare_constant(msh, par, gform=Am, mass=Mm)
        qn, = multiplier_norm_estimate([potential_form(msh, q)], gform=Am, mass=Mm)
        alpha = coercivity_bound(co.gamma0, pcm["delta0"], qn)
        assert alpha > 0
        iim = msh.interior_dofs
        H = Am.entries + Mm.entries
        lam = la.eigh(B.entries[np.ix_(iim, iim)], H[np.ix_(iim, iim)],
                      subset_by_index=[0, 0], eigvals_only=True)[0]
        assert lam >= alpha * (1 - 0.01)
        checks.append((alpha, lam))
    report(8, f"Poincare holds for 200 vectors (max saturation {margin:.4f}), "
              "eigenvalue vs bound: "
              + " ".join(f"lam={l:.3f}>=alpha={a:.3f}" for a, l in checks))


def test_criterion_09_nonuniqueness_pipeline(counterexample_pipeline):
    par, levels, elapsed = counterexample_pipeline
    gaps = {h: rep["dn_gap"] for h, (_, _, _, rep) in levels.items()}
    hs = sorted(gaps, reverse=True)
    assert gaps[1 / 128] < 1e-2
    assert gaps[hs[0]] > gaps[hs[1]] > gaps[hs[2]]
    mesh, gform, pair, rep = levels[1 / 128]
    w_nodes = region_dofs(mesh, "W1")
    assert np.abs(pair.gamma1[w_nodes] - 1.0).max() == 0.0
    assert pair.m.min() >= 0.0
    assert rep["q_gap"] > 0.05  # recorded regression floor (measured ~0.088)
    assert rep["condition3_residual"] < 1e-8
    assert rep["multiplier_estimate"] < rep["admissibility_threshold"]
    assert elapsed < 300.0
    report(9, f"dn_gap {gaps[1/32]:.2e} > {gaps[1/64]:.2e} > {gaps[1/128]:.2e} "
              f"(< 1e-2, decreasing), q_gap {rep['q_gap']:.3f} (> 0.05), "
              f"condition-III {rep['condition3_residual']:.1e} (< 1e-8), "
              f"multiplier {rep['multiplier_estimate']:.3f} < "
              f"{rep['admissibility_threshold']:.3f}, {elapsed:.0f}s < 300s")


def test_criterion_10_solution_relation(counterexample_pipeline):
    par, levels, _ = counterexample_pipeline
    residuals = {}
    for h in (1 / 32, 1 / 64, 1 / 128):
        mesh, gform, pair, _ = levels[h]
        x = mesh.coords
        f = bump((x - 1.5) / 0.25)
        f[mesh.interior_dofs] = 0.0
        bg = Coefficients.background(mesh)
        residuals[h] = solution_relation_residual(
            system_operator(mesh, par, pair.coeffs), system_operator(mesh, par, bg), f,
            "W1", mass=mass_matrix(mesh))
    assert residuals[1 / 64] < 5e-2
    assert residuals[1 / 32] > residuals[1 / 64] > residuals[1 / 128]
    mesh, _, _, _ = levels[1 / 64]
    x = mesh.coords
    f = bump((x - 1.5) / 0.25)
    f[mesh.interior_dofs] = 0.0
    mismatched = Coefficients.from_arrays(
        1.0 + 8.0 * plateau(x, (-0.5, 0.5), (-0.9, 0.9))
    )
    r_mis = solution_relation_residual(
        system_operator(mesh, par, mismatched),
        system_operator(mesh, par, Coefficients.background(mesh)), f, "W1",
        mass=mass_matrix(mesh))
    assert r_mis > 0.1
    report(10, f"pair residual {residuals[1/64]:.2e} at h=1/64 (< 5e-2), "
               f"decreasing {residuals[1/32]:.1e} > {residuals[1/64]:.1e} > "
               f"{residuals[1/128]:.1e}; mismatched pair {r_mis:.3f} (> 0.1)")


def test_criterion_11_bruteforce_oracle():
    def compare(assembled, oracle, label):
        d = np.abs(assembled - oracle)
        scale = np.abs(oracle).max()
        assert (d / scale).max() < 0.01, f"{label}: scale-relative"
        big = np.abs(oracle) >= 0.1 * scale
        rel = (d[big] / np.abs(oracle)[big]).max()
        assert rel < 0.01, f"{label}: entry-relative {rel:.4f}"
        return (d / scale).max(), rel

    mesh = build_mesh(Box((-1.0,), (1.0,)), 0.25, [])
    par = KernelParams(1, 0.25)
    worst = []
    A = gagliardo_form(mesh, par)
    worst.append(compare(A.entries, bruteforce_kernel_form_1d(mesh, par),
                         "gagliardo"))
    gam = 1.0 + 0.5 * np.exp(-mesh.coords**2)
    B = conductivity_form(mesh, par, Coefficients.from_arrays(gam))
    worst.append(compare(B.entries,
                         bruteforce_kernel_form_1d(mesh, par, np.sqrt(gam)),
                         "conductivity"))
    M = mass_matrix(mesh)
    worst.append(compare(M.entries, bruteforce_local_form_1d(mesh, None), "mass"))
    q = np.sin(mesh.coords) + 0.3
    P = potential_form(mesh, q)
    worst.append(compare(P.entries, bruteforce_local_form_1d(mesh, q), "potential"))
    mesh2 = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    par2 = KernelParams(2, 0.3)
    A2 = gagliardo_form(mesh2, par2)
    worst.append(compare(A2.entries, bruteforce_kernel_form_2d(mesh2, par2),
                         "gagliardo-2d"))
    worst_scale = max(w[0] for w in worst)
    worst_rel = max(w[1] for w in worst)
    report(11, f"all entries within 1% (worst scale-rel {worst_scale:.3%}, "
               f"worst entry-rel {worst_rel:.3%}) on 9-node 1D and 2D meshes")


def test_criterion_12_exact_dn_map():
    # gamma = 1, q = 0 on Omega = (-1, 1): the fractional Poisson kernel of
    # the interval gives <Lambda f, g> exactly for disjointly supported data
    regions = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))]
    mesh = build_mesh(Box((-2.25,), (3.25,)), 1 / 256, regions)
    f_support, g_support = (1.21, 1.49), (1.51, 1.79)

    def f(x):
        return bump((x - 1.35) / 0.14)

    def g(x):
        return bump((x - 1.65) / 0.14)

    fh, gh = f(mesh.coords), g(mesh.coords)
    errors = {}
    for s in (0.1, 0.25, 0.45):
        exact = exact_dn_pairing_1d(s, f, f_support, g, g_support)
        op = system_operator(mesh, KernelParams(1, s), Coefficients.background(mesh))
        dn = op.matrix("W1", "W1")
        readers = (op.pairing(fh, gh), gh[dn.cols] @ dn.entries @ fh[dn.cols])
        errors[s] = max(abs(v - exact) / abs(exact) for v in readers)
        assert errors[s] <= 1e-3
    report(12, "pairing and DN matrix against the exact DN map at h=1/256: "
               + ", ".join(f"s={s} {e:.1e}" for s, e in errors.items()) + " (<= 1e-3)")
