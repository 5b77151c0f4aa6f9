import numpy as np
import pytest
import scipy.linalg as la

from fractomo import solver
from fractomo.assembly import (
    Coefficients,
    KernelParams,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from fractomo.counterexample import (
    NUM_TEST_PAIRS,
    UNIT_BALL_VOLUME,
    build_pair,
    verify_nonuniqueness,
)
from fractomo.dnmap import solution_relation_residual
from fractomo.errors import GeometryViolation, NegativeSolution
from fractomo.mesh import Box, Region, build_mesh, region_dofs
from fractomo.profiles import bump, mollifier_kernel
from fractomo.reduction import reduced_potential_form
from fractomo.solver import multiplier_norm_estimate

from _systems import system_operator

REGIONS = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))]
OMEGA_PRIME = Region("Omega_prime", (-0.5,), (0.5,))
OMEGA_SEED = Region("omega_seed", (2.1,), (2.4,))
BOX = Box((-2.25,), (3.25,))
EPS = 0.05


@pytest.fixture(scope="module")
def setting():
    mesh = build_mesh(BOX, 1 / 32, REGIONS)
    par = KernelParams(1, 0.25)
    gform = gagliardo_form(mesh, par)
    W = mesh.regions["W1"]
    pair = build_pair(mesh, OMEGA_PRIME, OMEGA_SEED, EPS, W, gform=gform, mass=mass_matrix(mesh))
    return mesh, par, gform, W, pair


def test_degenerate_cutoff_gives_background(setting):
    mesh, par, gform, W, _ = setting
    pair = build_pair(mesh, OMEGA_PRIME, OMEGA_SEED, EPS, W,
                      eta_amplitude=0.0, gform=gform, mass=mass_matrix(mesh))
    assert np.abs(pair.m).max() == 0.0
    assert np.abs(pair.gamma1 - 1.0).max() == 0.0
    assert np.abs(pair.q1).max() == 0.0
    report = verify_nonuniqueness(pair, W,
                                  operator=system_operator(mesh, par, pair.coeffs),
                                  gform=gform, qform=potential_form(mesh, pair.q1),
                                  mass=mass_matrix(mesh))
    assert report["dn_gap"] == 0.0
    assert report["q_gap"] == 0.0


def test_maximum_principle_and_nonnegativity(setting):
    mesh, par, gform, W, pair = setting
    assert pair.m_tilde.min() >= 0.0
    assert pair.m.min() >= 0.0
    with pytest.raises(NegativeSolution):
        build_pair(mesh, OMEGA_PRIME, OMEGA_SEED, EPS, W,
                   eta_amplitude=-1.0, gform=gform, mass=mass_matrix(mesh))


def test_deviation_capped_at_half(setting):
    mesh, par, gform, W, pair = setting
    assert np.abs(pair.m).max() <= 0.5


def test_scaling_constant_formula(setting):
    mesh, par, gform, W, pair = setting
    mass = mass_matrix(mesh)
    kernel = mollifier_kernel(EPS, mesh.h, mesh.n)
    rho_inf = kernel.max() * EPS**mesh.n
    l2 = np.sqrt(pair.m_tilde @ (mass.entries @ pair.m_tilde))
    expected = EPS ** (mesh.n / 2.0) / (
        2.0 * np.sqrt(UNIT_BALL_VOLUME[mesh.n]) * np.sqrt(rho_inf) * l2
    )
    assert pair.c_eps == pytest.approx(expected, rel=1e-12)


def test_gamma_is_one_on_w_exactly(setting):
    mesh, par, gform, W, pair = setting
    w_nodes = region_dofs(mesh, "W1")
    assert np.abs(pair.gamma1[w_nodes] - 1.0).max() == 0.0
    assert np.abs(pair.m[w_nodes]).max() == 0.0


def test_q1_nonzero_on_w(setting):
    mesh, par, gform, W, pair = setting
    w_nodes = region_dofs(mesh, "W1")
    assert np.abs(pair.q1[w_nodes]).max() > 1e-4
    # the defining relation makes q1 strictly negative on W: the
    # deviation is nonnegative, supported away from W
    assert pair.q1[w_nodes].max() < 0.0


def test_q1_defining_relation(setting):
    mesh, par, gform, W, pair = setting
    mass = mass_matrix(mesh)
    q_raw = np.linalg.solve(mass.entries, gform.entries @ pair.m)
    expected = np.sqrt(pair.gamma1) * q_raw
    assert np.abs(pair.q1 - expected).max() < 1e-12 * max(1.0, np.abs(pair.q1).max())


# Omega'(5eps) = (-0.75, 0.75), omega(5eps) = (1.85, 2.65) and W1 =
# (1.2, 1.8) in a box (-2.25, 3.25) with Omega = (-1, 1): each case breaks
# one relation and keeps those checked before it
@pytest.mark.parametrize("omega_prime, omega_seed, W, message", [
    (OMEGA_PRIME, Region("o", (0.8,), (0.9,)), None,
     "Omega'(5eps) and omega(5eps) intersect"),
    (OMEGA_PRIME, OMEGA_SEED, Region("W", (0.6,), (0.7,)),
     "Omega'(5eps) and W intersect"),
    (OMEGA_PRIME, Region("o", (1.9,), (2.0,)), None,
     "omega(5eps) and W intersect"),
    (Region("Op", (-2.2,), (-2.1,)), OMEGA_SEED, None,
     "Omega'(5eps) leaves the computational box"),
    (OMEGA_PRIME, Region("o", (3.0,), (3.2,)), None,
     "omega(5eps) leaves the computational box"),
    (OMEGA_PRIME, OMEGA_SEED, Region("W", (3.0,), (3.5,)),
     "W leaves the computational box"),
    (Region("Op", (-0.9,), (0.9,)), OMEGA_SEED, None,
     "Omega'(5eps) is not contained in Omega"),
], ids=["Op-omega", "Op-W", "omega-W", "Op-box", "omega-box", "W-box", "Op-Omega"])
def test_each_geometry_violation_is_named(setting, omega_prime, omega_seed, W,
                                          message):
    mesh, par, gform, W1, pair = setting
    with pytest.raises(GeometryViolation) as exc:
        build_pair(mesh, omega_prime, omega_seed, EPS, W or W1, gform=gform,
                   mass=mass_matrix(mesh))
    assert str(exc.value) == message


def test_sets_that_touch_within_the_tolerance_pass(setting):
    # Omega'(5eps) = Omega; omega(5eps) starts at 2.05 - 0.25, one rounding
    # below the upper face 1.8 of W1
    mesh, par, gform, W, pair = setting
    touching = build_pair(mesh, Region("Op", (-0.75,), (0.75,)),
                          Region("o", (2.05,), (2.4,)), EPS, W, gform=gform,
                          mass=mass_matrix(mesh))
    assert np.abs(touching.gamma1[region_dofs(mesh, "W1")] - 1.0).max() == 0.0


def _q_form_residual_by_pairs(mesh, Q, gform, mass, seed):
    """``q_form_residual`` one test pair at a time, in the draw order
    (v_k, then w_k)."""
    rng = np.random.default_rng(seed)
    ii = mesh.interior_dofs
    worst = 0.0
    for _ in range(NUM_TEST_PAIRS):
        v = np.zeros(mesh.num_nodes)
        w = np.zeros(mesh.num_nodes)
        v[ii] = rng.standard_normal(ii.size)
        w[ii] = rng.standard_normal(ii.size)
        den = np.sqrt((v @ (gform @ v) + v @ (mass @ v))
                      * (w @ (gform @ w) + w @ (mass @ w)))
        worst = max(worst, abs(v @ Q.entries @ w) / den)
    return worst


def test_report_invariants(setting):
    mesh, par, gform, W, pair = setting
    qform, mass = potential_form(mesh, pair.q1), mass_matrix(mesh)
    report = verify_nonuniqueness(pair, W,
                                  operator=system_operator(mesh, par, pair.coeffs),
                                  gform=gform, qform=qform, mass=mass)
    Q = reduced_potential_form(pair.coeffs, gform=gform, qform=qform)
    assert report["q_form_residual"] == pytest.approx(
        _q_form_residual_by_pairs(mesh, Q, gform, mass, seed=0), rel=1e-12)
    assert report["dn_gap"] < 1e-2
    assert report["q_gap"] > 0.05
    assert report["condition3_residual"] < 1e-8
    assert report["gamma_deviation_on_W"] == 0.0
    assert report["m_min"] >= 0.0
    assert report["m_sup"] <= 0.5
    assert report["q_form_residual"] < 1e-3
    assert report["admissible"]
    assert report["multiplier_estimate"] < report["admissibility_threshold"]


def test_multiplier_estimates_of_the_pair_match_the_dense_pencil(setting, monkeypatch):
    # both estimates of the report; the gap-refined stop takes 25 and 26
    # steps here on 177 nodes (the plain residual bound took 33 and 32)
    mesh, par, gform, W, pair = setting
    qform, mass = potential_form(mesh, pair.q1), mass_matrix(mesh)
    Q = reduced_potential_form(pair.coeffs, gform=gform, qform=qform)
    H = gform.entries + mass.entries
    steps = []
    ritz = solver._ritz_pair
    monkeypatch.setattr(solver, "_ritz_pair",
                        lambda d, e, i: steps.append(len(d)) or ritz(d, e, i))
    for form in (qform, Q):
        vals = la.eigh(form.entries, H, eigvals_only=True)
        est, = multiplier_norm_estimate([form], gform=gform, mass=mass)
        assert est == pytest.approx(max(-vals[0], vals[-1]), rel=1e-12)
    assert max(steps) <= 26


def test_report_estimates_share_one_factor_of_h(setting, monkeypatch):
    mesh, par, gform, W, pair = setting
    qform, mass = potential_form(mesh, pair.q1), mass_matrix(mesh)
    Q = reduced_potential_form(pair.coeffs, gform=gform, qform=qform)
    separate = [multiplier_norm_estimate([form], gform=gform, mass=mass)[0]
                for form in (Q, qform)]
    # the N x N factors of H; the Poincare constant factors its interior block
    factors = []
    cholesky = la.cholesky
    monkeypatch.setattr(la, "cholesky", lambda a, **kw: factors.append(
        a.shape[0] == mesh.num_nodes) or cholesky(a, **kw))
    report = verify_nonuniqueness(pair, W,
                                  operator=system_operator(mesh, par, pair.coeffs),
                                  gform=gform, qform=qform, mass=mass)
    assert sum(factors) == 1
    assert [report["q_form_norm"], report["multiplier_estimate"]] == separate


def test_solution_relation_against_background(setting):
    mesh, par, gform, W, pair = setting
    x = mesh.coords
    f = bump((x - 1.5) / 0.25)
    f[mesh.interior_dofs] = 0.0
    bg = Coefficients.background(mesh)
    r = solution_relation_residual(system_operator(mesh, par, pair.coeffs),
                                   system_operator(mesh, par, bg), f, "W1",
                                   mass=mass_matrix(mesh))
    assert r < 5e-2


def test_interior_layout_also_supported():
    # the cutoff seed may sit inside Omega away from Omega' (text layout)
    mesh = build_mesh(BOX, 1 / 32, REGIONS)
    par = KernelParams(1, 0.25)
    gform = gagliardo_form(mesh, par)
    W = mesh.regions["W1"]
    seed = Region("omega_seed", (0.7,), (0.85,))
    pair = build_pair(mesh, Region("Op", (-0.5,), (0.2,)), seed, 0.03, W,
                      gform=gform, mass=mass_matrix(mesh))
    w_nodes = region_dofs(mesh, "W1")
    assert np.abs(pair.gamma1[w_nodes] - 1.0).max() == 0.0
    report = verify_nonuniqueness(pair, W,
                                  operator=system_operator(mesh, par, pair.coeffs),
                                  gform=gform, qform=potential_form(mesh, pair.q1),
                                  mass=mass_matrix(mesh))
    assert report["dn_gap"] < 5e-2
    assert report["q_gap"] > 0.0
