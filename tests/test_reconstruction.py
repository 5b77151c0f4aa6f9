import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractomo.assembly import Coefficients, KernelParams, gagliardo_form
from fractomo.dnmap import DNOperator
from fractomo.errors import (
    DecayCheckFailed,
    ExponentOutOfRange,
    OutsideMeasurementSet,
    UnresolvableScale,
)
from fractomo.mesh import Box, Region, build_mesh
from fractomo.profiles import bump, plateau
from fractomo.reconstruction import (
    bump_sequence,
    default_scales,
    exterior_reconstruct,
    potential_decay_check,
)

REGIONS = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (2.4,))]
BOX = Box((-2.25,), (3.75,))
X0 = 1.8


@pytest.fixture(scope="module")
def setting():
    mesh = build_mesh(BOX, 1 / 64, REGIONS)
    par = KernelParams(1, 0.25)
    gform = gagliardo_form(mesh, par)
    bumps = bump_sequence(mesh, par, "W1", X0, gform=gform)
    return mesh, par, gform, bumps


def test_energies_normalized(setting):
    mesh, par, gform, bumps = setting
    assert all(abs(e - 1.0) < 1e-10 for e in bumps.energies)


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
    Ns = default_scales(mesh, "W1", X0)
    x = mesh.coords
    for N in Ns:
        assert np.count_nonzero(np.abs(x - X0) < 1.0 / N) >= 4
    assert Ns == sorted(Ns)


def test_bump_errors(setting):
    mesh, par, gform, bumps = setting
    with pytest.raises(OutsideMeasurementSet):
        bump_sequence(mesh, par, "W1", 3.0, [4], gform=gform)
    with pytest.raises(OutsideMeasurementSet):
        bump_sequence(mesh, par, "W1", X0, [1], gform=gform)  # support leaves W
    with pytest.raises(UnresolvableScale):
        bump_sequence(mesh, par, "W1", X0, [4096], gform=gform)


def test_reconstruct_unit_background(setting):
    mesh, par, gform, bumps = setting
    co = Coefficients.background(mesh)
    out = exterior_reconstruct(mesh, par, co, "W1", X0, bumps=bumps, gform=gform)
    for rec in out["samples"]:
        assert abs(rec["estimate"] - 1.0) < 0.05
    assert abs(out["extrapolated"] - 1.0) < 0.02


def test_dn_decomposition_identity(setting):
    # <Lambda phi, phi> = E(u - phi) + 2 B(u - phi, phi) + E(phi) exactly
    mesh, par, gform, bumps = setting
    x = mesh.coords
    co = Coefficients.from_arrays(1.0 + plateau(x, (1.0, 2.6), (0.7, 2.9)),
                                  0.5 * bump((x - X0) / 0.5))
    op = DNOperator(mesh, par, co)
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
    op = DNOperator(mesh, par, co)
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
    r1 = exterior_reconstruct(mesh, par, co1, "W1", X0, bumps=bumps, gform=gform)
    r2 = exterior_reconstruct(mesh, par, co2, "W1", X0, bumps=bumps, gform=gform)
    for a, b in zip(r1["samples"], r2["samples"]):
        assert abs(a["estimate"] - b["estimate"]) < 1e-9


def test_potential_decay_pinf(setting):
    mesh, par, gform, bumps = setting
    q = 5.0 * bump((mesh.coords - X0) / 0.5)
    records = potential_decay_check(mesh, q, bumps, math.inf, par)
    values = [r["value"] for r in records]
    assert values[-1] < values[0]
    for r in records:
        assert abs(r["value"]) <= r["bound"] * 1.25 + 1e-300
    # Hoelder route: |<q phi, phi>| <= ||q||_inf ||phi||_L2^2 ~ N^{-2s}
    slope = np.polyfit(np.log(bumps.scales), np.log(values), 1)[0]
    assert abs(slope - (-2 * par.s)) / (2 * par.s) < 0.25


def test_potential_decay_zero_q(setting):
    mesh, par, gform, bumps = setting
    records = potential_decay_check(mesh, np.zeros(mesh.num_nodes), bumps,
                                    math.inf, par)
    assert all(r["value"] == 0.0 for r in records)


def test_theta_exponent_formula():
    # n=1, s=0.25: theta = 2 - 1/(0.25 p) on n/(2s) < p <= n/s, else 1
    par = KernelParams(1, 0.25)
    assert 2 - 1 / (0.25 * 3) == pytest.approx(2.0 / 3.0)
    mesh = build_mesh(BOX, 1 / 32, REGIONS)
    gform = gagliardo_form(mesh, par)
    bumps = bump_sequence(mesh, par, "W1", X0, gform=gform)
    q = bump((mesh.coords - X0) / 0.5)
    recs3 = potential_decay_check(mesh, q, bumps, 3.0, par, strict=False)
    norms = bumps.l2_norms
    C = recs3[0]["value"] / norms[0] ** (2.0 / 3.0)
    for rec, r in zip(recs3, norms):
        assert rec["bound"] == pytest.approx(C * r ** (2.0 / 3.0), rel=1e-12)
    with pytest.raises(ExponentOutOfRange):
        potential_decay_check(mesh, q, bumps, 1.9, par)  # p <= n/(2s) = 2


def test_decay_check_failure_raises(setting):
    mesh, par, gform, bumps = setting
    # an absorption growing toward the concentration point violates the
    # calibrated bound
    q = 1.0 / (0.01 + np.abs(mesh.coords - X0))
    with pytest.raises(DecayCheckFailed):
        potential_decay_check(mesh, q, bumps, math.inf, par, tol=0.01)


def test_exterior_q_shifts_estimates_by_its_pairing(setting):
    # absorption supported in the measurement set leaves the interior
    # solve untouched, so each estimate moves by exactly the absorption
    # pairing of the bump (which decays to zero)
    mesh, par, gform, bumps = setting
    x = mesh.coords
    gam = 1.0 + plateau(x, (1.0, 2.6), (0.7, 2.9))
    q = 5.0 * bump((x - X0) / 0.5)
    r0 = exterior_reconstruct(mesh, par, Coefficients.from_arrays(gam),
                              "W1", X0, bumps=bumps, gform=gform)
    rq = exterior_reconstruct(mesh, par, Coefficients.from_arrays(gam, q),
                              "W1", X0, bumps=bumps, gform=gform)
    records = potential_decay_check(mesh, q, bumps, math.inf, par)
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
    out = exterior_reconstruct(mesh, par, co, "W1", X0, bumps=bumps, gform=gform)
    errors = [abs(rec["estimate"] - 2.0) for rec in out["samples"]]
    assert all(b < a for a, b in zip(errors, errors[1:]))


@settings(max_examples=30, deadline=None, database=None)
@given(k=st.integers(228, 291))
def test_default_scales_do_not_depend_on_grid_nodes(setting, k):
    # x0 = a grid node of W1 (1.2, 2.4) at least 0.1 inside it
    mesh = setting[0]
    x0 = float(mesh.coords[k])
    assert default_scales(mesh, "W1", x0) == default_scales(mesh, "W1", x0 - 1e-9) \
        == default_scales(mesh, "W1", x0 + 1e-9)
