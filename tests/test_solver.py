import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as gamma_fn

from fractomo.assembly import (
    Coefficients,
    KernelParams,
    LocalForm,
    SymForm,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from fractomo.errors import CoercivityLost, EigenFailure, SupportViolation
from fractomo.mesh import Box, Region, build_mesh
from fractomo.profiles import bump
from fractomo.solver import (
    FactorizedSystem,
    coercivity_bound,
    mass_solve,
    multiplier_norm_estimate,
    poincare_constant,
)


@pytest.fixture(scope="module")
def setting():
    mesh = build_mesh(Box((-2.0,), (2.0,)), 1 / 32,
                      [Region("Omega", (-1.0,), (1.0,))])
    par = KernelParams(1, 0.25)
    A = gagliardo_form(mesh, par)
    M = mass_matrix(mesh)
    return mesh, par, A, M


def getoor_exact(x, s):
    kappa = gamma_fn(0.5) / (2 ** (2 * s) * gamma_fn(0.5 + s) * gamma_fn(1 + s))
    return np.where(np.abs(x) < 1, kappa * np.maximum(0.0, 1 - x**2) ** s, 0.0)


def test_constants_in_kernel(setting):
    mesh, par, A, M = setting
    rng = np.random.default_rng(7)
    co = Coefficients.from_arrays(np.full(mesh.num_nodes, 1.3), gamma_exterior=1.3)
    B = conductivity_form(mesh, par, co)
    for c in rng.uniform(-2, 2, size=3):
        f = np.full(mesh.num_nodes, c)
        f[mesh.interior_dofs] = 0.0
        sol = FactorizedSystem(B, mesh).solve(f, far_field=c)
        assert np.abs(sol.u - c).max() < 1e-9


def test_getoor_closed_form(setting):
    mesh, par, A, M = setting
    sol = FactorizedSystem(A, mesh).solve(np.zeros(mesh.num_nodes),
                                          f_src=M.entries @ np.ones(mesh.num_nodes))
    exact = getoor_exact(mesh.coords, par.s)
    center = np.argmin(np.abs(mesh.coords))
    assert abs(sol.u[center] - exact[center]) / exact[center] < 0.03
    assert sol.residual < 1e-10


def test_coercivity_lost_error(setting):
    mesh, par, A, M = setting
    q = np.full(mesh.num_nodes, -10.0)  # far below the admissible regime
    B = A + potential_form(mesh, q)
    with pytest.raises(CoercivityLost):
        FactorizedSystem(B, mesh).solve(np.zeros(mesh.num_nodes))


def test_exterior_datum_support_checked(setting):
    mesh, par, A, M = setting
    f = np.ones(mesh.num_nodes)  # nonzero on interior dofs
    with pytest.raises(SupportViolation):
        FactorizedSystem(A, mesh).solve(f)


def test_uniqueness_and_superposition(setting):
    mesh, par, A, M = setting
    x = mesh.coords
    system = FactorizedSystem(A, mesh)
    f1 = bump((x - 1.5) / 0.4); f1[mesh.interior_dofs] = 0.0
    f2 = bump((x + 1.5) / 0.3); f2[mesh.interior_dofs] = 0.0
    F1 = M.entries @ bump(x / 0.8)
    F2 = M.entries @ np.cos(x)
    u_a = system.solve(f1, F1).u
    u_b = system.solve(f1, F1).u
    assert np.array_equal(u_a, u_b)
    u1 = system.solve(f1, F1).u
    u2 = system.solve(f2, F2).u
    u12 = system.solve(f1 + f2, F1 + F2).u
    assert np.abs(u12 - u1 - u2).max() < 1e-9


def test_energy_minimization(setting):
    mesh, par, A, M = setting
    x = mesh.coords
    f = bump((x - 1.5) / 0.4)
    f[mesh.interior_dofs] = 0.0
    F = M.entries @ bump(x / 0.5)
    sol = FactorizedSystem(A, mesh).solve(f, F)

    def functional(u):
        return 0.5 * u @ A.entries @ u - F @ u

    base = functional(sol.u)
    rng = np.random.default_rng(11)
    for _ in range(100):
        pert = sol.u.copy()
        pert[mesh.interior_dofs] += 0.1 * rng.standard_normal(
            mesh.interior_dofs.size
        )
        assert functional(pert) >= base - 1e-12


def test_discrete_poincare(setting):
    mesh, par, A, M = setting
    pc = poincare_constant(mesh, par, gform=A, mass=M)
    rng = np.random.default_rng(3)
    ii = mesh.interior_dofs
    for _ in range(200):
        u = np.zeros(mesh.num_nodes)
        u[ii] = rng.standard_normal(ii.size)
        l2sq = u @ M.entries @ u
        seminorm_sq = (2.0 / par.C_ns) * (u @ A.entries @ u)
        assert l2sq <= pc["C_opt"] * seminorm_sq * (1 + 1e-10)


def test_poincare_domain_monotonicity(setting):
    mesh, par, A, M = setting
    big = poincare_constant(mesh, par, gform=A, mass=M)
    # the same nodes with a smaller Omega share the forms A and M
    sub = build_mesh(mesh.box, mesh.h, [Region("Omega", (-0.5,), (0.5,))])
    small = poincare_constant(sub, par, gform=A, mass=M)
    assert small["C_opt"] <= big["C_opt"] + 1e-14


def test_poincare_refinement_monotone():
    par = KernelParams(1, 0.25)
    values = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        mesh = build_mesh(Box((-2.0,), (2.0,)), h,
                          [Region("Omega", (-1.0,), (1.0,))])
        values.append(poincare_constant(mesh, par, gform=gagliardo_form(mesh, par),
                                        mass=mass_matrix(mesh))["C_opt"])
    assert values[0] < values[1] < values[2]
    # frozen fine-mesh reference computed with this module at h=1/256
    reference = 0.10276
    assert values[-1] == pytest.approx(reference, rel=0.02)


def test_delta0_arithmetic():
    assert 2.0 * max(1.0, 0.5) == 2.0  # delta0 for C_opt = 1/2
    mesh = build_mesh(Box((-2.0,), (2.0,)), 1 / 16,
                      [Region("Omega", (-1.0,), (1.0,))])
    par = KernelParams(1, 0.25)
    pc = poincare_constant(mesh, par, gform=gagliardo_form(mesh, par),
                           mass=mass_matrix(mesh))
    assert pc["delta0"] == 2.0 * max(1.0, pc["C_opt"])


def test_multiplier_estimate_basics(setting):
    mesh, par, A, M = setting
    zero = multiplier_norm_estimate(potential_form(mesh, np.zeros(mesh.num_nodes)),
                                    gform=A, mass=M)
    assert zero == 0.0
    q = bump(mesh.coords / 1.2)
    e1 = multiplier_norm_estimate(potential_form(mesh, q), gform=A, mass=M)
    e2 = multiplier_norm_estimate(potential_form(mesh, -3.0 * q), gform=A, mass=M)
    assert e2 == pytest.approx(3.0 * e1, rel=1e-10)


def test_multiplier_estimate_unit_q_and_svd_oracle():
    mesh = build_mesh(Box((-2.0,), (2.0,)), 0.1,
                      [Region("Omega", (-1.0,), (1.0,))])
    par = KernelParams(1, 0.25)
    A = gagliardo_form(mesh, par)
    M = mass_matrix(mesh)
    est = multiplier_norm_estimate(potential_form(mesh, np.ones(mesh.num_nodes)),
                                   gform=A, mass=M)
    assert est <= 1.0 + 1e-10
    # dense SVD oracle on this <= 50-node mesh
    H = A.entries + M.entries
    w, V = np.linalg.eigh(H)
    H_inv_half = V @ np.diag(w**-0.5) @ V.T
    Mq = potential_form(mesh, np.ones(mesh.num_nodes)).entries
    svd_norm = np.linalg.svd(H_inv_half @ Mq @ H_inv_half, compute_uv=False)[0]
    assert est == pytest.approx(svd_norm, rel=1e-8)


def _local(F):
    """The square ``F`` as a :class:`LocalForm` that holds all its
    ``2n - 1`` diagonals, outward from the main one."""
    n = F.shape[0]
    offsets = (0,) + tuple(sign * k for k in range(1, n) for sign in (-1, 1))
    band = np.zeros((len(offsets), n))
    for m, k in enumerate(offsets):
        diagonal = np.diagonal(F, k)
        band[m, :diagonal.size] = diagonal
    return LocalForm(offsets, band)


def _dense_h(H):
    """``gform`` and ``mass`` whose sum is ``H``: ``H`` itself, with no
    tail row, and a zero mass matrix."""
    n = H.shape[0]
    return {"gform": SymForm(H, np.zeros(n)), "mass": _local(np.zeros((n, n)))}


def _pencil(n, band, sign, rng):
    """Random SPD ``H`` and symmetric ``F``: tridiagonal or dense, and
    positive semidefinite (``sign = 1``), negative semidefinite plus a
    small positive part (``sign = -1``, so ``|lambda_min| > lambda_max``)
    or indefinite (``sign = 0``)."""
    R = rng.standard_normal((n, n))
    H = R @ R.T + n * np.eye(n)
    C = rng.standard_normal((n, n))
    if band:
        C = np.tril(np.triu(C, -1))  # lower bidiagonal: C C^T is tridiagonal
    F = {1: C @ C.T, -1: 0.1 * np.eye(n) - C @ C.T, 0: C + C.T}[sign]
    return F, H


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("band", [True, False])
@pytest.mark.parametrize("sign", [1, -1, 0])
def test_multiplier_estimate_matches_dense_pencil(n, band, sign):
    rng = np.random.default_rng(100 * n + 10 * band + sign)
    F, H = _pencil(n, band, sign, rng)
    vals = la.eigh(F, H, eigvals_only=True)
    if band:
        assert not np.triu(F, 2).any()
    if sign == -1:
        assert abs(vals[0]) > vals[-1]
    dense = max(abs(vals[0]), abs(vals[-1]))
    est = multiplier_norm_estimate(_local(F), **_dense_h(H))
    assert est == pytest.approx(dense, rel=1e-12)


def test_multiplier_estimate_rejects_an_indefinite_inner_product():
    rng = np.random.default_rng(3)
    F, H = _pencil(5, False, 0, rng)
    H[0, 0] = -1.0
    with pytest.raises(EigenFailure):
        multiplier_norm_estimate(_local(F), **_dense_h(H))


def _matvec_form(case, rng):
    """``F`` of one band case: a diagonal one, a tridiagonal one with zero
    off-diagonal entries, any 1 x 1 and 2 x 2 one, and a tridiagonal one
    with a nonzero pair far from the diagonal."""
    if case == "n1":
        return np.array([[-2.5]])
    if case == "n2":
        C = rng.standard_normal((2, 2))
        return C + C.T
    n = 30
    F = np.diag(rng.standard_normal(n))
    if case == "diagonal":
        return F
    off = rng.standard_normal(n - 1)
    off[::3] = 0.0
    F += np.diag(off, 1) + np.diag(off, -1)
    if case == "far":
        F[0, n - 3] = F[n - 3, 0] = 0.7
    return F


@pytest.mark.parametrize("case", ["diagonal", "zero_off_diagonals", "n1", "n2", "far"])
def test_multiplier_estimate_of_each_matvec_path_matches_dense_pencil(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    F = _matvec_form(case, rng)
    n = F.shape[0]
    R = rng.standard_normal((n, n))
    H = R @ R.T + n * np.eye(n)
    est = multiplier_norm_estimate(_local(F), **_dense_h(H))
    vals = la.eigh(F, H, eigvals_only=True)
    assert est == pytest.approx(max(abs(vals[0]), abs(vals[-1])), rel=1e-12)


def _tridiagonal_matvec(A, y):
    """``A @ y`` of a tridiagonal ``A``: the main diagonal's product, then
    the lower's, then the upper's added, the order in which the band
    product must add them to keep 1D results bit for bit."""
    lower, main, upper = (np.diagonal(A, k) for k in (-1, 0, 1))
    z = main * y
    z[1:] += lower * y[:-1]
    z[:-1] += upper * y[1:]
    return z


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 40), offsets=st.sets(st.integers(-39, 39), max_size=8),
       fill=st.sampled_from(["tridiagonal", "diagonals", "zero", "dense"]),
       seed=st.integers(0, 2**32 - 1))
def test_diagonal_matvec_of_the_diagonals_is_the_dense_product(n, offsets, fill, seed):
    # a band that holds every diagonal, zero ones too, is the dense product;
    # the zero diagonals leave a tridiagonal product bit for bit as it is
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    if fill == "dense":
        A = rng.standard_normal((n, n))
    if fill == "tridiagonal":
        offsets = {-1, 0, 1}
    if fill in ("tridiagonal", "diagonals"):
        for k in offsets & set(range(1 - n, n)):
            d = rng.standard_normal(n - abs(k))
            d[rng.random(d.size) < 0.3] = 0.0
            A += np.diag(d, k)
    y = rng.standard_normal(n)
    z = _local(A) @ y
    assert np.all(np.abs(z - A @ y) <= 1e-13 * (np.abs(A) @ np.abs(y)))
    if not np.triu(A, 2).any() and not np.tril(A, -2).any():
        assert np.array_equal(z, _tridiagonal_matvec(A, y))


def test_solve_reads_the_load_of_the_datum_support_only():
    # the load B_{I, supp f} f_supp agrees with the load of the whole
    # exterior block B_IE f_E, 1D and 2D, far field or not
    cases = [(build_mesh(Box((-2.0,), (2.5,)), 1 / 32, [Region("Omega", (-1.0,), (1.0,))]),
              lambda nodes: bump((nodes[:, 0] - 1.6) / 0.3)),
             (build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 1 / 8,
                         [Region("Omega", (-0.5, -0.5), (0.5, 0.5))]),
              lambda nodes: bump((nodes - np.array([0.75, 0.0])) / 0.24))]
    for mesh, datum in cases:
        x = mesh.nodes[:, 0]
        co = Coefficients.from_arrays(1.0 + 0.3 * bump(x / 0.8), 0.2 * bump(x / 0.5))
        B = conductivity_form(mesh, KernelParams(mesh.n, 0.25), co) + potential_form(mesh, co.q)
        system = FactorizedSystem(B, mesh)
        ii = system.interior
        exterior = np.setdiff1d(np.arange(mesh.num_nodes), ii)
        f = datum(mesh.nodes)
        f[ii] = 0.0
        assert 0 < np.count_nonzero(f) < exterior.size
        for c in (0.0, 0.7):
            rhs = -B.entries[np.ix_(ii, exterior)] @ f[exterior] + c * B.tail_row[ii]
            full = f.copy()
            full[ii] = la.cho_solve(la.cho_factor(B.entries[np.ix_(ii, ii)], lower=True), rhs)
            sol = system.solve(f, far_field=c)
            assert np.abs(sol.u - full).max() <= 1e-14 * np.abs(full).max()
            # the energy from the solve's blocks is the quadratic form of
            # u + c 1_ext over the whole system form
            u = sol.u
            energy = u @ (B.entries @ u) - 2 * c * (B.tail_row @ u) + c**2 * B.tail_row.sum()
            assert abs(sol.energy - energy) <= 1e-13 * abs(energy)


def test_multiplier_estimate_of_a_2d_potential_form_matches_dense_pencil():
    mesh = build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 1 / 8,
                      [Region("Omega", (-0.5, -0.5), (0.5, 0.5))])
    G = gagliardo_form(mesh, KernelParams(2, 0.25))
    M = mass_matrix(mesh)
    x, y = mesh.nodes.T
    Q = potential_form(mesh, np.sin(3 * x) - 2 * y)
    est = multiplier_norm_estimate(Q, gform=G, mass=M)
    vals = la.eigh(Q.entries, G.entries + M.entries, eigvals_only=True)
    assert est == pytest.approx(max(abs(vals[0]), abs(vals[-1])), rel=1e-12)


def test_mass_solve_rejects_a_mass_matrix_that_is_not_positive_definite():
    for entries in (np.zeros((4, 4)), np.diag([1.0, -1.0, 2.0]),
                    np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(la.LinAlgError):
            mass_solve(_local(entries), np.ones(entries.shape[0]))


def test_mass_solve_of_a_block_matches_dense_and_columnwise(setting):
    mesh_1d, _, _, _ = setting
    # the 1D test mesh and 2D ones, whose masses have 7 nonzero diagonals
    for mesh in [mesh_1d] + [build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), h)
                             for h in (1 / 4, 1 / 16)]:
        M = mass_matrix(mesh)
        if mesh.n == 2:  # the seven local diagonals of a 2D mass matrix
            nx = round(2 / mesh.h) + 1  # nodes per row
            assert M.offsets == (0, -1, 1, -nx, nx, -(nx + 1), nx + 1)
            assert M.band.shape == (7, mesh.num_nodes)
        for k, diagonal in M.diagonals():
            assert np.array_equal(diagonal, np.diagonal(M.entries, k))
        rhs = np.random.default_rng(3).standard_normal((mesh.num_nodes, 3))
        block = mass_solve(M, rhs)
        dense = np.linalg.solve(M.entries, rhs)
        assert np.abs(block - dense).max() <= 1e-13 * np.abs(dense).max()
        for k in range(3):
            assert np.array_equal(block[:, k], mass_solve(M, rhs[:, k]))


def test_coercivity_bound_arithmetic():
    assert coercivity_bound(1.0, 2.0, 0.0) == 0.5
    assert coercivity_bound(1.0, 2.0, 0.3) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        coercivity_bound(-1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        coercivity_bound(1.0, 1.5, 0.0)


def test_coercivity_bound_vs_eigenvalue():
    # the interior block dominates alpha * H on configurations whose
    # first energy eigenvalue clears the mixed-convention bound
    mesh = build_mesh(Box((-1.5,), (1.5,)), 1 / 32,
                      [Region("Omega", (-0.5,), (0.5,))])
    par = KernelParams(1, 0.25)
    A = gagliardo_form(mesh, par)
    M = mass_matrix(mesh)
    x = mesh.coords
    q = 0.1 * bump(x / 0.4)
    co = Coefficients.from_arrays(1.0 + 0.4 * bump(x / 1.2), q)
    B = conductivity_form(mesh, par, co) + potential_form(mesh, q)
    pc = poincare_constant(mesh, par, gform=A, mass=M)
    qnorm = multiplier_norm_estimate(potential_form(mesh, q), gform=A, mass=M)
    alpha = coercivity_bound(co.gamma0, pc["delta0"], qnorm)
    assert alpha > 0
    ii = mesh.interior_dofs
    H = A.entries + M.entries
    lam = la.eigh(B.entries[np.ix_(ii, ii)], H[np.ix_(ii, ii)],
                  subset_by_index=[0, 0], eigvals_only=True)[0]
    assert lam >= alpha * (1 - 0.01)


def test_nonnegative_q_only_helps(setting):
    mesh, par, A, M = setting
    ii = mesh.interior_dofs
    q = np.abs(np.sin(3 * mesh.coords))
    B0 = A.entries[np.ix_(ii, ii)]
    B1 = (A + potential_form(mesh, q)).entries[np.ix_(ii, ii)]
    v0 = np.linalg.eigvalsh(B0)
    v1 = np.linalg.eigvalsh(B1)
    assert (v1 >= v0 - 1e-12).all()
