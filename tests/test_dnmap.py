import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_legendre

from fractomo.assembly import (
    Coefficients,
    KernelParams,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from fractomo.dnmap import DNOperator, solution_relation_residual
from fractomo.errors import HypothesisViolation, SupportViolation
from fractomo.mesh import Box, Region, build_mesh, support_dofs
from fractomo.profiles import bump, plateau

from _oracles import exact_dn_pairing_1d
from _systems import system_operator


@pytest.fixture(scope="module")
def setting():
    mesh = build_mesh(
        Box((-2.0,), (2.5,)), 1 / 16,
        [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.25,)),
         Region("W2", (1.25,), (2.25,))],
    )
    par = KernelParams(1, 0.25)
    co = Coefficients.background(mesh)
    op = system_operator(mesh, par, co)
    return mesh, par, co, op


def test_pairing_zero_and_symmetry(setting):
    mesh, par, co, op = setting
    x = mesh.coords
    f = bump((x - 1.6) / 0.3); f[mesh.interior_dofs] = 0.0
    g = bump((x - 1.9) / 0.25); g[mesh.interior_dofs] = 0.0
    assert op.pairing(f, np.zeros_like(f)) == 0.0
    assert op.pairing(f, g) == pytest.approx(op.pairing(g, f), rel=1e-10)


def test_pairing_support_violation(setting):
    mesh, par, co, op = setting
    f = bump((mesh.coords - 1.6) / 0.3); f[mesh.interior_dofs] = 0.0
    bad = np.ones(mesh.num_nodes)
    with pytest.raises(SupportViolation):
        op.pairing(f, bad)
    with pytest.raises(SupportViolation):
        op.pairing(bad, f)


# smooth diffusion gamma = 1 + amp sin(freq x + phase) with amp <= 0.9,
# nonnegative absorption q = level bump(x / width), order s in (0.05, 0.49)
orders = st.floats(0.05, 0.49)
amplitudes = st.one_of(st.just(0.0), st.floats(0.01, 0.9))
frequencies = st.floats(0.1, 3.0)
phases = st.floats(0.0, 2.0 * np.pi)
levels = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


def _drawn_operator(mesh, s, amp, freq, phase, level):
    x = mesh.coords
    gamma = 1.0 + amp * np.sin(freq * x + phase)
    q = level * bump(x / 1.5)
    return system_operator(mesh, KernelParams(1, s), Coefficients.from_arrays(gamma, q))


@settings(max_examples=40, deadline=None, database=None)
@given(s=orders, amp=amplitudes, freq=frequencies, phase=phases, level=levels,
       seed=st.integers(0, 2**32 - 1))
def test_well_definedness_representative_independence(setting, s, amp, freq,
                                                       phase, level, seed):
    mesh = setting[0]
    op = _drawn_operator(mesh, s, amp, freq, phase, level)
    x = mesh.coords
    f = bump((x - 1.6) / 0.3); f[mesh.interior_dofs] = 0.0
    g = bump((x - 1.9) / 0.25); g[mesh.interior_dofs] = 0.0
    base = op.pairing(f, g)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        z = np.zeros(mesh.num_nodes)
        z[mesh.interior_dofs] = rng.standard_normal(mesh.interior_dofs.size)
        shifted = op.pairing(f, g + z, check_support=False)
        assert abs(shifted - base) < 1e-9


@settings(max_examples=20, deadline=None, database=None)
@given(s=orders, amp=amplitudes, freq=frequencies, phase=phases, level=levels,
       seed=st.integers(0, 2**32 - 1))
def test_dn_matrix_quadratic_forms_are_the_diagonal_pairings(setting, s, amp, freq,
                                                             phase, level, seed):
    # the Schur complement of the DN matrix and the solve of one pairing
    # give one value for data on the hats of W1
    mesh = setting[0]
    op = _drawn_operator(mesh, s, amp, freq, phase, level)
    dn = op.matrix("W1", "W1")
    Phi = np.zeros((mesh.num_nodes, 4))
    Phi[dn.cols] = np.random.default_rng(seed).standard_normal((dn.cols.size, 4))
    for phi in Phi.T:
        value = phi[dn.cols] @ dn.entries @ phi[dn.cols]
        assert value == pytest.approx(op.pairing(phi, phi), rel=1e-14)


# the exact DN oracle on the dn1d box with W1 = (1.2, 1.8), gamma = 1 and
# q = 0, for data bumps of radius 0.14 at 1.35 and 1.65
EXACT_F = (lambda x: bump((x - 1.35) / 0.14), (1.21, 1.49))
EXACT_G = (lambda x: bump((x - 1.65) / 0.14), (1.51, 1.79))


@pytest.mark.parametrize("s, exact, bound", [
    (0.1, -1.70486509e-3, 5e-5),
    (0.25, -5.73982057e-3, 1.1e-4),
    (0.45, -1.50946088e-2, 5e-4),
])
def test_dn_readers_converge_to_the_exact_dn_map(s, exact, bound):
    value = exact_dn_pairing_1d(s, *EXACT_F, *EXACT_G)
    assert value == pytest.approx(exact, rel=1e-8)
    assert value == pytest.approx(exact_dn_pairing_1d(s, *EXACT_F, *EXACT_G, n=320),
                                  rel=1e-12)
    errors = []
    for h in (1 / 64, 1 / 128, 1 / 256):
        mesh = build_mesh(Box((-2.25,), (3.25,)), h,
                          [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))])
        op = system_operator(mesh, KernelParams(1, s), Coefficients.background(mesh))
        dn = op.matrix("W1", "W1")
        f, g = EXACT_F[0](mesh.coords), EXACT_G[0](mesh.coords)
        assert not (np.delete(f, dn.cols).any() or np.delete(g, dn.cols).any())
        readers = (op.pairing(f, g), g[dn.cols] @ dn.entries @ f[dn.cols])
        errors.append(max(abs(v - value) / abs(value) for v in readers))
    assert errors[-1] <= bound
    assert errors[0] > errors[1] > errors[2]


def test_operator_needs_an_assembled_form(setting):
    mesh, par, co, op = setting
    with pytest.raises(TypeError, match="form"):
        DNOperator(mesh, par, co)


def test_disjoint_support_cross_term():
    # for disjointly supported exterior data the form value reduces to
    # the weighted double integral of -f(x) g(y) against the kernel
    mesh = build_mesh(
        Box((-2.0,), (3.0,)), 1 / 16,
        [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (2.8,))],
    )
    par = KernelParams(1, 0.25)
    co = Coefficients.background(mesh)
    x = mesh.coords
    f = bump((x - 1.5) / 0.2); f[mesh.interior_dofs] = 0.0
    g = bump((x - 2.4) / 0.2); g[mesh.interior_dofs] = 0.0
    form_value = float(f @ (gagliardo_form(mesh, par).entries @ g))
    # independent fine Gauss quadrature of the cross term
    xg, wg = roots_legendre(12)
    cells = np.arange(-2.0, 3.0, 1 / 16)
    pts = (cells[:, None] + (xg[None, :] + 1) / 32).ravel()
    wts = np.tile(wg / 32, cells.size)
    fi = np.interp(pts, x, f)
    gi = np.interp(pts, x, g)
    with np.errstate(divide="ignore"):
        K = np.abs(pts[:, None] - pts[None, :]) ** (-1 - 2 * par.s)
    np.fill_diagonal(K, 0.0)
    cross = -par.C_ns * float((wts * fi) @ K @ (wts * gi))
    assert form_value == pytest.approx(cross, rel=0.01)


def test_dn_matrix_shapes_symmetry(setting):
    mesh, par, co, op = setting
    dn = op.matrix("W1", "W2")
    n1 = support_dofs(mesh, "W1").size
    assert dn.entries.shape == (n1, n1)
    assert dn.symmetry_defect() < 1e-10


def test_dn_matrix_rejects_an_index_basis_outside_the_nodes(setting):
    # a negative index would wrap around to the last box nodes
    mesh, par, co, op = setting
    W1 = support_dofs(mesh, "W1")
    for bad in (np.array([-1, -2]), np.append(W1, mesh.num_nodes)):
        with pytest.raises(ValueError):
            op.matrix(bad, W1)
        with pytest.raises(ValueError):
            op.matrix(W1, bad)


def test_dn_matrix_rejects_an_index_basis_with_interior_dofs(setting):
    mesh, par, co, op = setting
    ii = mesh.interior_dofs
    W1 = support_dofs(mesh, "W1")
    with pytest.raises(SupportViolation):
        op.matrix(ii[:3], ii[:3])
    with pytest.raises(SupportViolation):
        op.matrix(W1, np.append(W1, ii[-1]))
    # an exterior index basis is read as the hats it names
    assert np.array_equal(op.matrix(W1, W1).entries, op.matrix("W1", "W1").entries)


@pytest.mark.parametrize("n", [1, 2])
def test_dn_matrix_entries_are_the_pairings_of_hats(n):
    # every entry of the one-solve Schur complement is the pairing
    # <Lambda phi_i, phi_j> of two hats, each from its own solve; on
    # W1 x W1 the matrix is exactly symmetric
    if n == 1:
        mesh = build_mesh(Box((-2.0,), (3.0,)), 1 / 16,
                          [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,)),
                           Region("W2", (2.0,), (2.75,))])
    else:
        mesh = build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 1 / 4,
                          [Region("Omega", (-0.5, -0.5), (0.5, 0.5)),
                           Region("W1", (0.5, -0.75), (1.0, 0.75)),
                           Region("W2", (-1.0, -1.0), (0.0, -0.5))])
    x = mesh.nodes[:, 0]
    co = Coefficients.from_arrays(1.0 + 0.4 * np.cos(2 * x) ** 2, 0.3 * bump(x / 0.9))
    op = system_operator(mesh, KernelParams(n, 0.25), co)
    hats = np.eye(mesh.num_nodes)
    for W2 in ("W1", "W2"):
        dn = op.matrix("W1", W2)
        pairings = np.array([[op.pairing(hats[i], hats[j]) for i in dn.cols]
                             for j in dn.rows])
        assert np.abs(dn.entries - pairings).max() <= 1e-12 * np.abs(pairings).max()
    dn = op.matrix("W1", "W1")
    assert np.array_equal(dn.entries, dn.entries.T)
    # a basis given by its node indices reads the same block
    sub = dn.cols[1:-1]
    assert np.array_equal(op.matrix(sub, sub).entries,
                          op.matrix(sub, sub).entries.T)
    assert np.abs(op.matrix(sub, sub).entries - dn.entries[1:-1, 1:-1]).max() \
        <= 1e-14 * np.abs(dn.entries).max()


def test_dn_matrix_above_two_thousand_interior_dofs():
    mesh = build_mesh(
        Box((-1.25,), (1.75,)), 1 / 1024,
        [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.6,))],
    )
    assert mesh.interior_dofs.size > 2000
    op = system_operator(mesh, KernelParams(1, 0.25), Coefficients.background(mesh))
    assert op.matrix("W1", "W1").symmetry_defect() < 1e-10
    f = bump((mesh.coords - 1.4) / 0.15)
    assert op.solve(f).residual <= 1e-10


def test_dn_energy_bound_on_diagonal(setting):
    mesh, par, co, op = setting
    dn = op.matrix("W1", "W1")
    for k, i in enumerate(dn.cols):
        phi = np.zeros(mesh.num_nodes)
        phi[i] = 1.0
        assert dn.entries[k, k] <= phi @ (op.form @ phi) + 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(s=orders, amp=amplitudes, freq=frequencies, phase=phases, level=levels,
       shift=st.floats(0.01, 2.0))
def test_dn_monotone_in_constant_potential_shift(setting, s, amp, freq, phase,
                                                 level, shift):
    # the DN quadratic form is the least energy over interior extensions,
    # and the shift adds shift * (mass energy) >= 0 to every energy, so
    # DN(q + shift) - DN(q) is positive semidefinite
    mesh = setting[0]
    op = _drawn_operator(mesh, s, amp, freq, phase, level)
    co_shift = dataclasses.replace(op.coeffs, q=op.coeffs.q + shift)
    op_shift = DNOperator(mesh, op.params, co_shift,
                          form=op.form + potential_form(mesh, np.full(mesh.num_nodes, shift)))
    gap = op_shift.matrix("W1", "W1").entries - op.matrix("W1", "W1").entries
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-12


def test_dn_gamma1_q0_equals_reduced_route(setting):
    # with unit diffusion the reduced potential vanishes identically, so
    # the plain fractional-Laplacian route gives the identical matrix
    mesh, par, co, op = setting
    from fractomo.reduction import schrodinger_form

    S = schrodinger_form(co, gform=gagliardo_form(mesh, par),
                         qform=potential_form(mesh, co.q))
    op2 = DNOperator(mesh, par, co, form=S)
    d1 = op.matrix("W1", "W2")
    d2 = op2.matrix("W1", "W2")
    assert np.abs(d1.entries - d2.entries).max() < 1e-8


def test_dn_refinement_cauchy_rate():
    par = KernelParams(1, 0.25)
    regions = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.0,))]
    values = []
    hs = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    for h in hs:
        mesh = build_mesh(Box((-1.75,), (2.5,)), h, regions)
        x = mesh.coords
        f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
        g = bump((x - 1.625) / 0.22); g[mesh.interior_dofs] = 0.0
        co = Coefficients.from_arrays(1.0 + 0.5 * bump(x / 1.4))
        values.append(system_operator(mesh, par, co).pairing(f, g))
    diffs = np.abs(np.diff(values))
    rates = np.log2(diffs[:-1] / diffs[1:])
    assert (rates > 0.5).all()


def test_solution_relation_identical_pairs(setting):
    mesh, par, co, op = setting
    x = mesh.coords
    f = bump((x - 1.6) / 0.25); f[mesh.interior_dofs] = 0.0
    r = solution_relation_residual(op, op, f, "W2", mass=mass_matrix(mesh))
    assert r < 1e-12


def test_solution_relation_hypothesis_violation(setting):
    mesh, par, co, op = setting
    x = mesh.coords
    f = bump((x - 1.6) / 0.25); f[mesh.interior_dofs] = 0.0
    gam2 = np.where((x > 1.25) & (x < 2.25), 2.0, 1.0)
    other = Coefficients.from_arrays(gam2)
    with pytest.raises(HypothesisViolation):
        solution_relation_residual(op, system_operator(mesh, par, other), f, "W2",
                                   mass=mass_matrix(mesh))


def test_solution_relation_mismatched_floor(setting):
    mesh, par, co, op = setting
    x = mesh.coords
    f = bump((x - 1.7) / 0.35); f[mesh.interior_dofs] = 0.0
    gam2 = 1.0 + 8.0 * plateau(x, (-0.5, 0.5), (-0.9, 0.9))
    mismatched = Coefficients.from_arrays(gam2)
    r = solution_relation_residual(system_operator(mesh, par, mismatched), op, f, "W2",
                                   mass=mass_matrix(mesh))
    assert r > 0.1


def test_dn_matrix_2d_smoke():
    mesh = build_mesh(
        Box((-2.0, -1.0), (3.0, 1.0)), 0.25,
        [Region("Omega", (-1.0, -0.5), (1.0, 0.5)),
         Region("W1", (1.5, -0.5), (2.5, 0.5))],
    )
    par = KernelParams(2, 0.3)
    co = Coefficients.background(mesh)
    op = system_operator(mesh, par, co)
    dn = op.matrix("W1", "W1")
    assert dn.entries.shape[0] == dn.entries.shape[1] > 0
    assert dn.symmetry_defect() < 1e-10


@settings(max_examples=20, deadline=None, database=None)
@given(s=orders, cells=st.integers(16, 128), amp=st.floats(0.0, 0.9))
def test_truncation_margin_invariance(s, cells, amp):
    # with background coefficients beyond the data region, the analytic
    # exterior tail makes the box truncation exact: DN pairings do not
    # move when the margin grows from 16 cells to the drawn number
    par = KernelParams(1, s)
    h = 1 / 32
    vals = []
    for margin in (16 * h, cells * h):
        mesh = build_mesh(
            Box((-1.0 - margin,), (2.0 + margin,)), h,
            [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.0,))],
        )
        x = mesh.coords
        f = bump((x - 1.625) / 0.3); f[mesh.interior_dofs] = 0.0
        g = bump((x - 1.625) / 0.22); g[mesh.interior_dofs] = 0.0
        co = Coefficients.from_arrays(1.0 + amp * bump(x / 1.4))
        vals.append(system_operator(mesh, par, co).pairing(f, g))
    assert abs(vals[1] - vals[0]) < 1e-10 * abs(vals[0])


def test_the_forward_dn_op_allocates_no_dense_form():
    # the forward DN op of the dn1d benchmark (form, sum with the potential
    # form, factor, DN matrix on W1, one solve with a far field) reads the
    # form on the lines from Omega to W1 only.  On a box wide enough that
    # they are a fifth of the lines, its peak of traced memory stays under
    # N^2 * 4 bytes, half a dense form: it never allocates an array that
    # large.  The plans are built first, as in the benchmark's warm ops.
    regions = [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))]
    mesh = build_mesh(Box((-6.25,), (7.25,)), 1 / 128, regions)
    x, N, par = mesh.coords, mesh.num_nodes, KernelParams(1, 0.25)
    coeffs = Coefficients.from_arrays(1.0 + 0.5 * bump(x / 0.45), 0.2 * bump(x / 0.4))
    f = bump((x - 1.5) / 0.28)
    conductivity_form(mesh, par, coeffs).block([0], [0])
    tracemalloc.start()
    try:
        form = conductivity_form(mesh, par, coeffs) + potential_form(mesh, coeffs.q)
        op = DNOperator(mesh, par, coeffs, form=form)
        dn = op.matrix("W1", "W1")
        sol = op.solve(f, far_field=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * N * N
    assert dn.symmetry_defect() == 0.0 and sol.residual < 1e-10
