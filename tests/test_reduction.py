import numpy as np
import pytest

from fractomo.assembly import (
    Coefficients,
    KernelParams,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from fractomo.errors import HypothesisViolation, SupportViolation
from fractomo.mesh import Box, Region, build_mesh
from fractomo.profiles import bump
from fractomo.reduction import (
    dn_difference_decomposition,
    dn_transfer_residual,
    liouville_residual,
    reduced_potential_form,
    schrodinger_form,
)
from fractomo.solver import FactorizedSystem
from fractomo.spectral import spectral_frac_laplacian

from _systems import system_operator

REGIONS = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.0,))]
BOX = Box((-2.25,), (3.25,))


@pytest.fixture(scope="module")
def setting():
    mesh = build_mesh(BOX, 1 / 16, REGIONS)
    par = KernelParams(1, 0.25)
    gform = gagliardo_form(mesh, par)
    return mesh, par, gform


def test_reduced_form_unit_gamma_is_potential(setting):
    mesh, par, gform = setting
    q = np.sin(mesh.coords)
    co = Coefficients.from_arrays(np.ones(mesh.num_nodes), q)
    Mq = potential_form(mesh, q)
    Q = reduced_potential_form(co, gform=gform, qform=Mq)
    assert np.abs(Q.entries - Mq.entries).max() == 0.0


def test_reduced_form_constant_gamma_tail_artifact(setting):
    # deviation constant on the box: the weak operator applied to it
    # equals the tail row exactly (zero extension breaks constancy)
    mesh, par, gform = setting
    m = np.ones(mesh.num_nodes)
    assert np.abs(gform.entries @ m - gform.tail_row).max() < 1e-12
    co = Coefficients.from_arrays(np.full(mesh.num_nodes, 4.0))
    Q = reduced_potential_form(co, gform=gform, qform=potential_form(mesh, co.q))
    expected = -np.diag(gform.tail_row / 2.0)
    assert np.abs(Q.entries - expected).max() < 1e-12


def test_reduced_form_spectral_route():
    mesh = build_mesh(Box((-4.0,), (4.0,)), 1 / 32, [Region("Omega", (-1.0,), (1.0,))])
    par = KernelParams(1, 0.25)
    gform = gagliardo_form(mesh, par)
    x = mesh.coords
    m = 0.2 * bump(x / 1.2)
    gamma = (1.0 + m) ** 2
    co = Coefficients.from_arrays(gamma)
    Q = reduced_potential_form(co, gform=gform, qform=potential_form(mesh, co.q))
    v = bump((x - 0.2) / 0.5)
    lhs = float(v @ (Q.entries @ v))
    lap_m = spectral_frac_laplacian(mesh, par, co.m_gamma)
    M = mass_matrix(mesh)
    rhs = -float((M.entries @ lap_m) @ (v * v / np.sqrt(gamma)))
    assert lhs == pytest.approx(rhs, rel=0.03)


def test_liouville_unit_gamma_exact(setting):
    mesh, par, gform = setting
    co = Coefficients.from_arrays(np.ones(mesh.num_nodes), 0.3 * bump(mesh.coords))
    rng = np.random.default_rng(2)
    u = np.zeros(mesh.num_nodes)
    phi = np.zeros(mesh.num_nodes)
    u[mesh.interior_dofs] = rng.standard_normal(mesh.interior_dofs.size)
    phi[mesh.interior_dofs] = rng.standard_normal(mesh.interior_dofs.size)
    qform = potential_form(mesh, co.q)
    cond = conductivity_form(mesh, par, co) + qform
    assert liouville_residual(co, u, phi, cond_form=cond, gform=gform,
                              qform=qform) < 1e-12


def _smooth_coeffs(mesh):
    x = mesh.coords
    gam = 1.0 + 0.8 * bump(x / 1.6)
    return Coefficients.from_arrays(gam, 0.3 * bump(x / 1.2))


def test_liouville_refinement_rate():
    par = KernelParams(1, 0.25)
    residuals = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        mesh = build_mesh(BOX, h, REGIONS)
        co = _smooth_coeffs(mesh)
        x = mesh.coords
        u = np.zeros_like(x)
        phi = np.zeros_like(x)
        ii = mesh.interior_dofs
        u[ii] = bump((x[ii] - 0.2) / 0.6)
        phi[ii] = bump((x[ii] + 0.3) / 0.5)
        qform = potential_form(mesh, co.q)
        cond = conductivity_form(mesh, par, co) + qform
        residuals.append(liouville_residual(co, u, phi, cond_form=cond,
                                            gform=gagliardo_form(mesh, par),
                                            qform=qform))
    rates = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert (rates > 0.5).all()


def test_liouville_constant_u_kernel_property(setting):
    mesh, par, gform = setting
    co = _smooth_coeffs(mesh)
    u = np.ones(mesh.num_nodes)
    phi = np.zeros(mesh.num_nodes)
    phi[mesh.interior_dofs] = bump((mesh.coords[mesh.interior_dofs]) / 0.6)
    cond = conductivity_form(mesh, par, co) + potential_form(mesh, co.q)
    # the diffusion part annihilates global constants; only the
    # absorption pairing survives
    withtail = float(u @ (cond.entries @ phi)) - float(cond.tail_row @ phi)
    qpart = float(u @ (potential_form(mesh, co.q).entries @ phi))
    assert withtail == pytest.approx(qpart, abs=1e-12)


def test_transfer_identity_unit_case(setting):
    mesh, par, gform = setting
    co = Coefficients.background(mesh)
    x = mesh.coords
    f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
    r = dn_transfer_residual(system_operator(mesh, par, co), np.ones_like(x), "W1",
                             f, f, gform=gform, qform=potential_form(mesh, co.q))
    assert r < 1e-12


def test_transfer_refinement_rate():
    par = KernelParams(1, 0.25)
    residuals = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        mesh = build_mesh(BOX, h, REGIONS)
        co = _smooth_coeffs(mesh)
        x = mesh.coords
        f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
        g = bump((x - 1.625) / 0.22); g[mesh.interior_dofs] = 0.0
        residuals.append(
            dn_transfer_residual(system_operator(mesh, par, co), co.gamma, "W1", f, g,
                                 gform=gagliardo_form(mesh, par),
                                 qform=potential_form(mesh, co.q))
        )
    rates = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert (rates > 0.5).all()


def test_transfer_gamma_modified_away_from_w(setting):
    mesh, par, gform = setting
    co = _smooth_coeffs(mesh)
    x = mesh.coords
    f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
    g = bump((x - 1.625) / 0.22); g[mesh.interior_dofs] = 0.0
    op = system_operator(mesh, par, co)
    qform = potential_form(mesh, co.q)
    r1 = dn_transfer_residual(op, co.gamma, "W1", f, g, gform=gform, qform=qform)
    gamma_mod = co.gamma + 0.4 * bump((x + 1.6) / 0.3)  # away from W1
    r2 = dn_transfer_residual(op, gamma_mod, "W1", f, g, gform=gform, qform=qform)
    assert abs(r1 - r2) < 1e-8


def test_transfer_hypothesis_violation(setting):
    mesh, par, gform = setting
    co = _smooth_coeffs(mesh)
    x = mesh.coords
    f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
    gamma_bad = co.gamma + bump((x - 1.625) / 0.3)
    with pytest.raises(HypothesisViolation):
        dn_transfer_residual(system_operator(mesh, par, co), gamma_bad, "W1", f, f,
                             gform=gform, qform=potential_form(mesh, co.q))


@pytest.mark.parametrize("datum", ["f", "g"])
def test_transfer_rejects_data_off_the_measurement_set(setting, datum):
    # the reduced side scales the data nodally by Gamma^{1/2}, which is
    # tied to gamma only on W1 = (1.25, 2.0): a datum reaching past 2.0
    # has no transfer identity to check
    mesh, par, gform = setting
    co = _smooth_coeffs(mesh)
    x = mesh.coords
    data = {"f": bump((x - 1.625) / 0.3), "g": bump((x - 1.625) / 0.22)}
    data[datum] = bump((x - 1.8) / 0.4)
    for v in data.values():
        v[mesh.interior_dofs] = 0.0
    with pytest.raises(HypothesisViolation, match="outside the measurement set"):
        dn_transfer_residual(system_operator(mesh, par, co), co.gamma, "W1",
                             data["f"], data["g"], gform=gform,
                             qform=potential_form(mesh, co.q))


@pytest.mark.parametrize("datum", ["f", "g"])
def test_transfer_rejects_interior_support(setting, datum):
    mesh, par, gform = setting
    co = _smooth_coeffs(mesh)
    x = mesh.coords
    data = {"f": bump((x - 1.625) / 0.3), "g": bump((x - 1.625) / 0.22)}
    for v in data.values():
        v[mesh.interior_dofs] = 0.0
    data[datum][mesh.interior_dofs[0]] = 1e-3
    with pytest.raises(SupportViolation):
        dn_transfer_residual(system_operator(mesh, par, co), co.gamma, "W1",
                             data["f"], data["g"], gform=gform,
                             qform=potential_form(mesh, co.q))


def test_schrodinger_solution_relation_refinement():
    # the rescaled solve of the reduced problem reproduces the rescaled
    # original solution up to interpolation order
    par = KernelParams(1, 0.25)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        mesh = build_mesh(BOX, h, REGIONS)
        co = _smooth_coeffs(mesh)
        x = mesh.coords
        f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
        op = system_operator(mesh, par, co)
        u = op.solve(f).u
        S = schrodinger_form(co, gform=gagliardo_form(mesh, par),
                             qform=potential_form(mesh, co.q))
        v = FactorizedSystem(S, mesh).solve(np.sqrt(co.gamma) * f).u
        M = mass_matrix(mesh).entries
        diff = v - np.sqrt(co.gamma) * u
        errs.append(np.sqrt(diff @ M @ diff))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert (rates > 0.5).all()


def test_dn_difference_decomposition_solves_each_operator_once(monkeypatch):
    # the pairing difference is B_k(u_k, f) on the solutions the
    # solution-relation term reads: the numbers of two pairing calls,
    # from two solves instead of four
    mesh = build_mesh(BOX, 1 / 32, REGIONS)
    par = KernelParams(1, 0.25)
    x = mesh.coords
    pair1 = Coefficients.from_arrays(1.0 + 0.3 * bump(x / 0.7), 0.4 * bump(x / 0.8))
    pair2 = Coefficients.from_arrays(np.ones_like(x), -0.2 * bump(x / 0.6))
    op1, op2 = system_operator(mesh, par, pair1), system_operator(mesh, par, pair2)
    f = bump((x - 1.625) / 0.25)
    f[mesh.interior_dofs] = 0.0
    expected = op1.pairing(f, f) - op2.pairing(f, f)
    kwargs = dict(gform=gagliardo_form(mesh, par),
                  qform1=potential_form(mesh, pair1.q),
                  qform2=potential_form(mesh, pair2.q))
    solves = []
    original = FactorizedSystem.solve

    def counting(self, *args, **kw):
        solves.append(self)
        return original(self, *args, **kw)

    monkeypatch.setattr(FactorizedSystem, "solve", counting)
    out = dn_difference_decomposition(op1, op2, f, **kwargs)
    assert out["pairing_difference"] == expected
    assert solves == [op1.system, op2.system]
    f[mesh.interior_dofs[0]] = 1.0
    with pytest.raises(SupportViolation):
        dn_difference_decomposition(op1, op2, f, **kwargs)


def test_dn_difference_decomposition_exact_for_unit_gamma():
    # with unit diffusions and absorptions agreeing near the datum the
    # three-term decomposition is a discrete identity
    mesh = build_mesh(BOX, 1 / 32, REGIONS)
    par = KernelParams(1, 0.25)
    x = mesh.coords
    q1 = 0.4 * bump(x / 0.8)
    q2 = -0.2 * bump(x / 0.6)
    pair1 = Coefficients.from_arrays(np.ones_like(x), q1)
    pair2 = Coefficients.from_arrays(np.ones_like(x), q2)
    f = bump((x - 1.625) / 0.25)
    f[mesh.interior_dofs] = 0.0
    out = dn_difference_decomposition(system_operator(mesh, par, pair1),
                                      system_operator(mesh, par, pair2), f,
                                      gform=gagliardo_form(mesh, par),
                                      qform1=potential_form(mesh, q1),
                                      qform2=potential_form(mesh, q2))
    assert abs(out["pairing_difference"]) > 1e-6  # genuinely different data
    assert out["residual"] < 1e-6
    assert out["deviation_term"] == 0.0
