import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractomo.assembly import (
    Coefficients,
    KernelParams,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from fractomo.dnmap import DNOperator
from fractomo.errors import (
    DecayCheckFailed,
    ExponentOutOfRange,
    OutsideMeasurementSet,
    SupportViolation,
    UnknownRegion,
    UnresolvableScale,
)
from fractomo.mesh import Box, Region, build_mesh, region_dofs, support_dofs
from fractomo.profiles import bump, plateau
from fractomo.reconstruction import (
    FIT_RATES,
    FIT_WINDOW,
    BumpSequence,
    bump_scales,
    bump_sequence,
    exterior_reconstruct,
    extrapolate_power_fit,
    potential_decay_check,
)

from _systems import system_operator

REGIONS = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (2.4,))]
BOX = Box((-2.25,), (3.75,))
X0 = 1.8


@pytest.fixture(scope="module")
def setting():
    mesh = build_mesh(BOX, 1 / 64, REGIONS)
    par = KernelParams(1, 0.25)
    gform = gagliardo_form(mesh, par)
    bumps = bump_sequence(mesh, "W1", X0, gform=gform, mass=mass_matrix(mesh))
    return mesh, par, gform, bumps


def test_energies_normalized(setting):
    mesh, par, gform, bumps = setting
    assert all(abs(phi @ (gform @ phi) - 1.0) < 1e-10 for phi in bumps.vectors)


def test_l2_norms_strictly_decreasing(setting):
    mesh, par, gform, bumps = setting
    l2 = bumps.l2_norms
    assert all(l2[k + 1] < l2[k] for k in range(len(l2) - 1))


def test_supports_nested_and_shrinking(setting):
    mesh, par, gform, bumps = setting
    supports = [set(np.flatnonzero(v != 0.0)) for v in bumps.vectors]
    for small, big in zip(supports[1:], supports[:-1]):
        assert small <= big


def test_energy_scaling_exponent(setting):
    # pre-normalization energy of the scaled profile behaves like
    # N^{2s-n}, so the normalization constants grow like N^{(n-2s)/2};
    # fit over well-resolved scales
    mesh, par, gform, bumps = setting
    x = mesh.coords
    scales = [N for N in bumps.scales if 2.0 / N >= 16 * mesh.h]
    raw = [float(bump(N * (x - X0)) @ (gform.entries @ bump(N * (x - X0))))
           for N in scales]
    slope = np.polyfit(np.log(scales), np.log(raw), 1)[0]
    expect = 2 * par.s - 1
    assert abs(slope - expect) / abs(expect) < 0.05


def test_l2_scaling_exponent(setting):
    mesh, par, gform, bumps = setting
    keep = [k for k, N in enumerate(bumps.scales) if 2.0 / N >= 8 * mesh.h]
    slope = np.polyfit(np.log(np.array(bumps.scales)[keep]),
                       np.log(np.array(bumps.l2_norms)[keep]), 1)[0]
    assert abs(slope - (-par.s)) / par.s < 0.10


def test_default_scales_respect_resolution(setting):
    mesh, par, gform, bumps = setting
    Ns = bump_scales(mesh, "W1", X0)
    x = mesh.coords
    for N in Ns:
        assert np.count_nonzero(np.abs(x - X0) < 1.0 / N) >= 4
    assert Ns == sorted(Ns)


def test_bump_errors(setting):
    mesh, par, gform, bumps = setting
    mass = mass_matrix(mesh)
    with pytest.raises(OutsideMeasurementSet):
        bump_sequence(mesh, "W1", 3.0, [4], gform=gform, mass=mass)
    with pytest.raises(OutsideMeasurementSet):
        bump_sequence(mesh, "W1", X0, [1], gform=gform, mass=mass)  # support leaves W
    with pytest.raises(OutsideMeasurementSet, match="node 1.20312, whose hat leaves W"):
        # the support (1.202, 1.702) stays in W, but the hat of the node
        # 1.203125 reaches 1.1875
        bump_sequence(mesh, "W1", 1.452, [4], gform=gform, mass=mass)
    with pytest.raises(UnresolvableScale):
        bump_sequence(mesh, "W1", X0, [4096], gform=gform, mass=mass)


def test_unknown_label_is_named_like_everywhere_else(setting):
    # the bump pipeline resolves labels like the DN matrix does
    mesh, par, gform, bumps = setting
    with pytest.raises(UnknownRegion, match="W9"):
        bump_sequence(mesh, "W9", X0, [4], gform=gform, mass=mass_matrix(mesh))
    with pytest.raises(UnknownRegion, match="W9"):
        bump_scales(mesh, "W9", X0)
    with pytest.raises(UnknownRegion, match="W9"):
        DNOperator(mesh, par, Coefficients.background(mesh), form=gform).matrix("W9", "W1")


def test_reconstruct_unit_background(setting):
    mesh, par, gform, bumps = setting
    co = Coefficients.background(mesh)
    out = exterior_reconstruct(system_operator(mesh, par, co).matrix("W1", "W1"), bumps)
    for rec in out["samples"]:
        assert abs(rec["estimate"] - 1.0) < 0.05
    assert abs(out["extrapolated"] - 1.0) < 0.02


def test_reconstruct_equals_the_per_bump_pairings(setting):
    mesh, par, gform, bumps = setting
    x = mesh.coords
    co = Coefficients.from_arrays(1.0 + 0.7 * bump((x - 2.0) / 1.4),
                                  2.0 * bump((x - X0) / 0.5))
    op = system_operator(mesh, par, co)
    out = exterior_reconstruct(op.matrix("W1", "W1"), bumps)
    for rec, phi in zip(out["samples"], bumps.vectors):
        assert rec["estimate"] == pytest.approx(op.pairing(phi, phi), rel=1e-14)


def test_reconstruct_admits_only_bumps_on_the_hats_of_w(setting):
    # the DN matrix sees a bump only on the hats of W1: an interior entry
    # and an entry on a node of W1 whose hat leaves W1 are both rejected
    mesh, par, gform, bumps = setting
    dn = system_operator(mesh, par, Coefficients.background(mesh)).matrix("W1", "W1")
    edge = np.setdiff1d(region_dofs(mesh, "W1"), support_dofs(mesh, "W1"))
    assert edge.size == 2
    for node in (mesh.interior_dofs[0], mesh.interior_dofs[-1], edge[0], edge[1]):
        phi = bumps.vectors[0].copy()
        phi[node] = 1e-3
        with pytest.raises(SupportViolation, match="off the hats"):
            exterior_reconstruct(dn, BumpSequence(X0, [2], [phi]))
    with pytest.raises(ValueError, match="identical"):
        exterior_reconstruct(dataclasses.replace(dn, rows=dn.rows[1:],
                                                 entries=dn.entries[1:]), bumps)


def test_dn_decomposition_identity(setting):
    # <Lambda phi, phi> = E(u - phi) + 2 B(u - phi, phi) + E(phi) exactly
    mesh, par, gform, bumps = setting
    x = mesh.coords
    co = Coefficients.from_arrays(1.0 + plateau(x, (1.0, 2.6), (0.7, 2.9)),
                                  0.5 * bump((x - X0) / 0.5))
    op = system_operator(mesh, par, co)
    B = op.form.entries
    for phi in bumps.vectors[:3]:
        u = op.solve(phi).u
        lhs = op.pairing(phi, phi)
        d = u - phi
        rhs = d @ B @ d + 2.0 * (d @ B @ phi) + phi @ B @ phi
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_solution_correction_energy_vanishes(setting):
    mesh, par, gform, bumps = setting
    co = Coefficients.background(mesh)
    op = system_operator(mesh, par, co)
    vals = []
    for phi in bumps.vectors:
        u = op.solve(phi).u
        d = u - phi
        vals.append(float(d @ (op.form.entries @ d)))
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 0.05 * vals[0]


def test_reconstruct_locality_in_q(setting):
    # changing the absorption away from the bump support and the domain
    # does not move the estimates
    mesh, par, gform, bumps = setting
    x = mesh.coords
    q1 = 0.5 * bump((x - X0) / 0.3)
    q2 = q1 + 0.7 * bump((x - 3.2) / 0.2)  # far outside supports and Omega
    co1 = Coefficients.from_arrays(np.ones_like(x), q1)
    co2 = Coefficients.from_arrays(np.ones_like(x), q2)
    r1 = exterior_reconstruct(system_operator(mesh, par, co1).matrix("W1", "W1"), bumps)
    r2 = exterior_reconstruct(system_operator(mesh, par, co2).matrix("W1", "W1"), bumps)
    for a, b in zip(r1["samples"], r2["samples"]):
        assert abs(a["estimate"] - b["estimate"]) < 1e-9


def test_potential_decay_pinf(setting):
    mesh, par, gform, bumps = setting
    q = 5.0 * bump((mesh.coords - X0) / 0.5)
    records = potential_decay_check(potential_form(mesh, q), bumps, math.inf, par)
    values = [r["value"] for r in records]
    assert values[-1] < values[0]
    for r in records:
        assert abs(r["value"]) <= r["bound"] * 1.25 + 1e-300
    # Hoelder route: |<q phi, phi>| <= ||q||_inf ||phi||_L2^2 ~ N^{-2s}
    slope = np.polyfit(np.log(bumps.scales), np.log(values), 1)[0]
    assert abs(slope - (-2 * par.s)) / (2 * par.s) < 0.25


def test_potential_decay_zero_q(setting):
    mesh, par, gform, bumps = setting
    records = potential_decay_check(potential_form(mesh, np.zeros(mesh.num_nodes)),
                                    bumps, math.inf, par)
    assert all(r["value"] == 0.0 for r in records)


def test_theta_exponent_formula():
    # n=1, s=0.25: theta = 2 - 1/(0.25 p) on n/(2s) < p <= n/s, else 1
    par = KernelParams(1, 0.25)
    assert 2 - 1 / (0.25 * 3) == pytest.approx(2.0 / 3.0)
    mesh = build_mesh(BOX, 1 / 32, REGIONS)
    gform = gagliardo_form(mesh, par)
    bumps = bump_sequence(mesh, "W1", X0, gform=gform, mass=mass_matrix(mesh))
    qform = potential_form(mesh, bump((mesh.coords - X0) / 0.5))
    recs3 = potential_decay_check(qform, bumps, 3.0, par)
    norms = bumps.l2_norms
    C = recs3[0]["value"] / norms[0] ** (2.0 / 3.0)
    for rec, r in zip(recs3, norms):
        assert rec["bound"] == pytest.approx(C * r ** (2.0 / 3.0), rel=1e-12)
    with pytest.raises(ExponentOutOfRange):
        potential_decay_check(qform, bumps, 1.9, par)  # p <= n/(2s) = 2


def test_decay_check_failure_raises(setting):
    mesh, par, gform, bumps = setting
    # an absorption growing toward the concentration point violates the
    # calibrated bound
    q = 1.0 / (0.01 + np.abs(mesh.coords - X0))
    with pytest.raises(DecayCheckFailed):
        potential_decay_check(potential_form(mesh, q), bumps, math.inf, par)


def test_exterior_q_shifts_estimates_by_its_pairing(setting):
    # absorption supported in the measurement set leaves the interior
    # solve untouched, so each estimate moves by exactly the absorption
    # pairing of the bump (which decays to zero)
    mesh, par, gform, bumps = setting
    x = mesh.coords
    gam = 1.0 + plateau(x, (1.0, 2.6), (0.7, 2.9))
    q = 5.0 * bump((x - X0) / 0.5)
    r0 = exterior_reconstruct(
        system_operator(mesh, par, Coefficients.from_arrays(gam)).matrix("W1", "W1"),
        bumps)
    rq = exterior_reconstruct(
        system_operator(mesh, par, Coefficients.from_arrays(gam, q)).matrix("W1", "W1"),
        bumps)
    records = potential_decay_check(potential_form(mesh, q), bumps, math.inf, par)
    for a, b, d in zip(r0["samples"], rq["samples"], records):
        delta = abs(b["estimate"] - a["estimate"])
        assert delta <= d["value"] * (1 + 1e-10)
        assert delta == pytest.approx(d["value"], rel=1e-9)


def test_energy_concentration_monotone(setting):
    # for smooth diffusion the estimate error decreases monotonically
    # across the usable range of concentration scales
    mesh, par, gform, bumps = setting
    x = mesh.coords
    gam = 1.0 + plateau(x, (1.0, 2.6), (0.7, 2.9))
    co = Coefficients.from_arrays(gam)
    out = exterior_reconstruct(system_operator(mesh, par, co).matrix("W1", "W1"), bumps)
    errors = [abs(rec["estimate"] - 2.0) for rec in out["samples"]]
    assert all(b < a for a, b in zip(errors, errors[1:]))


@settings(max_examples=30, deadline=None, database=None)
@given(k=st.integers(228, 291))
def test_default_scales_do_not_depend_on_grid_nodes(setting, k):
    # x0 = a grid node of W1 (1.2, 2.4) at least 0.1 inside it
    mesh = setting[0]
    x0 = float(mesh.coords[k])
    assert bump_scales(mesh, "W1", x0) == bump_scales(mesh, "W1", x0 - 1e-9) \
        == bump_scales(mesh, "W1", x0 + 1e-9)


def _power_fit_by_loop(scales, values):
    """The power fit with one ``lstsq`` per rate of the grid."""
    scales = np.asarray(scales, dtype=float)[-FIT_WINDOW:]
    values = np.asarray(values, dtype=float)[-FIT_WINDOW:]
    best = None
    for b in FIT_RATES:
        A = np.column_stack([np.ones_like(scales), scales ** (-b)])
        coef, *_ = np.linalg.lstsq(A, values, rcond=None)
        resid = float(np.linalg.norm(A @ coef - values))
        if best is None or resid < best[0]:
            best = (resid, coef[0], coef[1], b)
    resid, g, a, b = best
    return {"limit": float(g), "amplitude": float(a), "rate": float(b),
            "fit_residual": resid,
            "rate_at_grid_edge": bool(b in (FIT_RATES[0], FIT_RATES[-1]))}


@settings(max_examples=300, deadline=None, database=None)
@given(first=st.integers(1, 20), count=st.integers(3, 7), rate=st.floats(0.05, 3.2),
       on_grid=st.booleans(), limit=st.floats(-3.0, 3.0), amplitude=st.floats(-1e3, 1e3),
       noise=st.sampled_from([0.0, 1e-14, 1e-9, 1e-5, 1e-2]), seed=st.integers(0, 2**32 - 1))
def test_power_fit_is_the_fit_of_one_lstsq_per_rate(first, count, rate, on_grid, limit,
                                                    amplitude, noise, seed):
    # exact fits (no noise, a rate on the grid) tie many rates within
    # round-off, and large scales make the basis nearly rank one
    rng = np.random.default_rng(seed)
    scales = 2.0 ** np.arange(first, first + count)
    if on_grid:
        rate = FIT_RATES[rng.integers(FIT_RATES.size)]
    values = limit + amplitude * scales ** -rate + noise * rng.standard_normal(count)
    assert extrapolate_power_fit(scales, values) == _power_fit_by_loop(scales, values)
