import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from fractomo import assembly
from fractomo.assembly import (
    Coefficients,
    KernelParams,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    normalization_constant,
    potential_form,
)
from fractomo.errors import NonPositiveGamma
from fractomo.mesh import Box, Region, build_mesh
from fractomo.spectral import spectral_frac_laplacian

from _oracles import bruteforce_kernel_form_1d, bruteforce_local_form_1d, tail_matrix_2d


@pytest.fixture(scope="module")
def mesh9():
    return build_mesh(Box((-1.0,), (1.0,)), 0.25, [])


@pytest.fixture(scope="module")
def params():
    return KernelParams(1, 0.25)


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------

def test_constant_2d_half():
    # hand evaluation: 4^{1/2} Gamma(3/2) / (pi |Gamma(-1/2)|) = 1/(2 pi)
    assert normalization_constant(2, 0.5) == pytest.approx(1.0 / (2 * np.pi), rel=1e-14)


def test_constant_small_s_limit():
    # |Gamma(-s)| ~ 1/s blows up, so the constant vanishes linearly
    assert normalization_constant(1, 1e-6) < 1e-5
    assert normalization_constant(1, 1e-6) == pytest.approx(
        4**1e-6 * gamma_fn(0.5 + 1e-6) / (np.sqrt(np.pi) * abs(gamma_fn(-1e-6))),
        rel=1e-12,
    )


def test_constant_fourier_calibration():
    # spectral and quadrature applications of the operator agree on a
    # smooth bump, which pins the normalization to the Fourier symbol
    mesh = build_mesh(Box((-8.0,), (8.0,)), 1 / 16, [])
    par = KernelParams(1, 0.25)
    u = np.exp(-mesh.coords**2)
    A = gagliardo_form(mesh, par)
    M = mass_matrix(mesh)
    nodal = np.linalg.solve(M.entries, A.entries @ u)
    spec = spectral_frac_laplacian(mesh, par, u)
    err = np.sqrt((nodal - spec) @ M.entries @ (nodal - spec))
    err /= np.sqrt(spec @ M.entries @ spec)
    assert err < 0.02


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(1, 0.6)  # needs s < 1/2 in 1D
    with pytest.raises(ValueError):
        KernelParams(2, 1.1)
    assert KernelParams(2, 0.7).C_ns > 0


# ---------------------------------------------------------------------------
# mass and potential forms
# ---------------------------------------------------------------------------

def test_mass_local_block():
    mesh = build_mesh(Box((0.0,), (1.0,)), 0.25, [])
    M = mass_matrix(mesh).entries
    h = 0.25
    assert M[0, 0] == pytest.approx(h / 3)
    assert M[0, 1] == pytest.approx(h / 6)
    assert M[1, 1] == pytest.approx(2 * h / 3)


def test_mass_integrates_one(mesh9):
    M = mass_matrix(mesh9)
    ones = np.ones(mesh9.num_nodes)
    assert ones @ M.entries @ ones == pytest.approx(2.0, rel=1e-14)


def test_mass_spd(mesh9):
    vals = np.linalg.eigvalsh(mass_matrix(mesh9).entries)
    assert vals.min() > 0


def test_potential_zero_and_one(mesh9):
    z = potential_form(mesh9, np.zeros(mesh9.num_nodes))
    assert np.abs(z.entries).max() == 0.0
    p1 = potential_form(mesh9, np.ones(mesh9.num_nodes))
    M = mass_matrix(mesh9)
    assert np.abs(p1.entries - M.entries).max() < 1e-12


def test_potential_hat_weight():
    mesh = build_mesh(Box((-2.0,), (2.0,)), 0.5, [])
    q = np.zeros(mesh.num_nodes)
    q[4] = 1.0  # single hat
    Mq = potential_form(mesh, q)
    ones = np.ones(mesh.num_nodes)
    assert ones @ Mq.entries @ ones == pytest.approx(0.5, rel=1e-14)


def test_potential_oracle(mesh9):
    q = np.sin(mesh9.coords) + 0.3
    Mq = potential_form(mesh9, q).entries
    O = bruteforce_local_form_1d(mesh9, q)
    nz = np.abs(O) > 1e-14
    assert (np.abs(Mq - O)[nz] / np.abs(O)[nz]).max() < 0.01
    assert np.abs(Mq[~nz]).max() == 0.0


def test_potential_requires_finite(mesh9):
    bad = np.ones(mesh9.num_nodes)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        potential_form(mesh9, bad)


# ---------------------------------------------------------------------------
# Gagliardo / conductivity forms
# ---------------------------------------------------------------------------

def test_gagliardo_symmetric_exactly(mesh9, params):
    A = gagliardo_form(mesh9, params)
    assert A.symmetry_defect() == 0.0


def test_constant_vector_and_tail(mesh9, params):
    A = gagliardo_form(mesh9, params)
    ones = np.ones(mesh9.num_nodes)
    # zero extension breaks constancy: in-box part alone is nonzero
    inbox_action = A.entries @ ones - A.tail_row
    assert np.abs(inbox_action).max() < 1e-12  # row sums equal the tail row
    assert np.abs(A.entries @ ones).max() > 0
    # the seminorm of the constant-on-box function equals the analytic
    # complement integral
    s = params.s
    L = 2.0
    exact = params.C_ns * L ** (1 - 2 * s) / (s * (1 - 2 * s))
    assert ones @ A.entries @ ones == pytest.approx(exact, rel=1e-10)


def test_single_hat_energy_vs_bruteforce(mesh9, params):
    mesh = build_mesh(Box((-2.0,), (2.0,)), 0.5, [])
    A = gagliardo_form(mesh, params)
    O = bruteforce_kernel_form_1d(mesh, params)
    phi = np.zeros(mesh.num_nodes)
    phi[4] = 1.0
    assert phi @ A.entries @ phi == pytest.approx(phi @ O @ phi, rel=0.01)


def test_conductivity_unit_gamma_matches_gagliardo(mesh9, params):
    co = Coefficients.background(mesh9)
    B = conductivity_form(mesh9, params, co)
    A = gagliardo_form(mesh9, params)
    assert np.abs(B.entries - A.entries).max() < 1e-12


def test_conductivity_constant_scaling(mesh9, params):
    co = Coefficients.from_arrays(np.full(mesh9.num_nodes, 4.0), gamma_exterior=4.0)
    B = conductivity_form(mesh9, params, co)
    A = gagliardo_form(mesh9, params)
    assert np.abs(B.entries - 4.0 * A.entries).max() < 1e-10 * np.abs(A.entries).max()


def test_conductivity_smooth_gamma_vs_bruteforce(params):
    mesh = build_mesh(Box((-2.0,), (2.0,)), 0.25, [])
    x = mesh.coords
    gam = 1.0 + np.exp(-(x**2)) / 2.0
    co = Coefficients.from_arrays(gam)
    B = conductivity_form(mesh, params, co)
    O = bruteforce_kernel_form_1d(mesh, params, np.sqrt(gam))
    phi = np.zeros(mesh.num_nodes)
    phi[mesh.num_nodes // 2] = 1.0
    assert phi @ B.entries @ phi == pytest.approx(phi @ O @ phi, rel=0.01)


def test_conductivity_rejects_nonpositive(mesh9, params):
    gam = np.ones(mesh9.num_nodes)
    gam[2] = -0.5
    with pytest.raises(NonPositiveGamma):
        Coefficients.from_arrays(gam)
    # positive, however close to 0 from below
    with pytest.raises(NonPositiveGamma):
        Coefficients.from_arrays(np.where(gam > 0, 1.0, -5e-15))
    co = Coefficients.background(mesh9)
    object.__setattr__(co, "gamma", gam)
    with pytest.raises(NonPositiveGamma):
        conductivity_form(mesh9, params, co)


def test_quadrature_self_check_passes(mesh9, params):
    gagliardo_form(mesh9, params, check=True)


def test_scaling_law():
    # scaling the mesh by lambda scales hat-pair entries by lambda^{n-2s}
    s = 0.25
    par = KernelParams(1, s)
    m1 = build_mesh(Box((-1.0,), (1.0,)), 0.25, [])
    m2 = build_mesh(Box((-3.0,), (3.0,)), 0.75, [])
    A1 = gagliardo_form(m1, par).entries
    A2 = gagliardo_form(m2, par).entries
    lam = 3.0
    assert np.abs(A2 - lam ** (1 - 2 * s) * A1).max() < 1e-10 * np.abs(A1).max()


def test_interior_block_positive_definite(params):
    mesh = build_mesh(Box((-2.0,), (2.0,)), 0.125, [Region("Omega", (-1.0,), (1.0,))])
    A = gagliardo_form(mesh, params)
    ii = mesh.interior_dofs
    vals = np.linalg.eigvalsh(A.entries[np.ix_(ii, ii)])
    assert vals.min() > 0
    x = mesh.coords
    co = Coefficients.from_arrays(1.0 + 0.5 * np.exp(-(x**2)))
    B = conductivity_form(mesh, params, co)
    vals = np.linalg.eigvalsh(B.entries[np.ix_(ii, ii)])
    assert vals.min() > 0


# ---------------------------------------------------------------------------
# weak fractional Laplacian functional
# ---------------------------------------------------------------------------

def test_functional_matches_spectral_pairing():
    mesh = build_mesh(Box((-8.0,), (8.0,)), 1 / 16, [])
    par = KernelParams(1, 0.25)
    u = np.exp(-mesh.coords**2)
    A = gagliardo_form(mesh, par)
    F = A.entries @ u
    M = mass_matrix(mesh)
    F_spec = M.entries @ spectral_frac_laplacian(mesh, par, u)
    mask = np.abs(F_spec) > 1e-3 * np.abs(F_spec).max()
    num = np.linalg.norm(F[mask] - F_spec[mask])
    assert num / np.linalg.norm(F_spec[mask]) < 0.02


# ---------------------------------------------------------------------------
# coefficients container
# ---------------------------------------------------------------------------

def test_coefficients_consistency(mesh9):
    gam = 1.0 + 0.3 * np.cos(mesh9.coords)
    co = Coefficients.from_arrays(gam)
    assert np.array_equal(co.m_gamma, np.sqrt(gam) - 1.0)
    assert co.gamma0 == gam.min()


# ---------------------------------------------------------------------------
# 2D forms
# ---------------------------------------------------------------------------

def test_mass_2d_exact():
    mesh = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    M = mass_matrix(mesh)
    ones = np.ones(mesh.num_nodes)
    assert ones @ M.entries @ ones == pytest.approx(1.0, rel=1e-14)
    vals = np.linalg.eigvalsh(M.entries)
    assert vals.min() > 0


def test_potential_2d_matches_mass():
    mesh = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    p1 = potential_form(mesh, np.ones(mesh.num_nodes))
    M = mass_matrix(mesh)
    assert np.abs(p1.entries - M.entries).max() < 1e-12


@pytest.mark.slow
def test_gagliardo_2d_row_sums_and_symmetry():
    mesh = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    par = KernelParams(2, 0.3)
    A = gagliardo_form(mesh, par)
    assert A.symmetry_defect() < 1e-13
    ones = np.ones(mesh.num_nodes)
    assert np.abs(A.entries @ ones - A.tail_row).max() < 1e-11


def test_quadrature_self_check_passes_2d():
    mesh = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    gagliardo_form(mesh, KernelParams(2, 0.25), check=True)


@pytest.mark.parametrize("s", [0.25, 0.3])
def test_class_blocks_match_leaf_recursion(s, monkeypatch):
    # the same-type offsets (+-1, +-2) and (+-2, +-1) lie exactly on the
    # threshold; moved just above them, it makes both sides refine those
    # pairs whatever the rounding
    from fractomo import _assembly2d
    from _oracles import leaf_class_blocks

    separation = 1.5 + 1e-9
    monkeypatch.setattr(_assembly2d, "SEPARATION", separation)
    keys = np.array([(ta, tb, di, dj) for ta in (0, 1) for tb in (0, 1)
                     for di in range(-2, 3) for dj in range(-2, 3)])
    blocks = _assembly2d._class_blocks(s, keys, 3)
    for key, B in zip(keys, blocks):
        O = leaf_class_blocks(s, tuple(key), 3, separation)
        assert np.abs(B - O).max() <= 1e-12 * np.abs(O).max(), key


def _mesh_classes(monkeypatch, box, h):
    """The class keys that the in-box plan of ``build_mesh(box, h)`` passes
    to :func:`_class_blocks`."""
    from fractomo import _assembly2d

    calls = []
    original = _assembly2d._class_blocks
    with monkeypatch.context() as m:
        m.setattr(_assembly2d, "_class_blocks",
                  lambda s, keys, depth: calls.append(keys) or original(s, keys, depth))
        _assembly2d._inbox_plan_2d(build_mesh(box, h), 0.25, 0)
    return calls[0]


@pytest.mark.parametrize("depth", [5, 6])
def test_class_blocks_do_not_depend_on_the_batch(depth, monkeypatch):
    # each grid's plan integrates only its own classes, so a class must get
    # the same blocks whatever other classes share its batch
    from fractomo._assembly2d import _class_blocks

    a = _mesh_classes(monkeypatch, Box((0.0, 0.0), (1.0, 1.0)), 0.25)
    b = _mesh_classes(monkeypatch, Box((-2.0, -1.0), (3.0, 1.0)), 0.5)
    row_a = {tuple(k): i for i, k in enumerate(a)}
    ia, ib = np.array([(row_a[tuple(k)], i) for i, k in enumerate(b)
                       if tuple(k) in row_a]).T
    assert ia.size == len(a) < len(b)  # every class of a, near ones included
    perm = np.random.default_rng(depth).permutation(len(a))
    s = 0.3
    blocks = _class_blocks(s, a, depth)
    assert np.array_equal(_class_blocks(s, b, depth)[ib], blocks[ia])
    assert np.array_equal(_class_blocks(s, a[perm], depth), blocks[perm])


@pytest.mark.slow
def test_scaling_law_2d():
    s = 0.3
    par = KernelParams(2, s)
    m1 = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    m2 = build_mesh(Box((0.0, 0.0), (3.0, 3.0)), 1.5, [])
    A1 = gagliardo_form(m1, par).entries
    A2 = gagliardo_form(m2, par).entries
    lam = 3.0
    assert np.abs(A2 - lam ** (2 - 2 * s) * A1).max() < 5e-3 * np.abs(A1).max()


@pytest.mark.slow
def test_conductivity_2d_variable_gamma_vs_bruteforce():
    from _oracles import bruteforce_kernel_form_2d

    mesh = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    par = KernelParams(2, 0.3)
    X = mesh.nodes
    gam = 1.0 + 0.5 * np.exp(-((X[:, 0] - 0.5) ** 2 + (X[:, 1] - 0.5) ** 2))
    co = Coefficients.from_arrays(gam)
    B = conductivity_form(mesh, par, co).entries
    O = bruteforce_kernel_form_2d(mesh, par, np.sqrt(gam))
    d = np.abs(B - O)
    scale = np.abs(O).max()
    assert (d / scale).max() < 0.01
    big = np.abs(O) >= 0.1 * scale
    assert (d[big] / np.abs(O)[big]).max() < 0.01


def _polar_tail_weight(x, box, s):
    # omega(x) = int rho(theta)^{-2s} / (2s) dtheta, rho the distance from
    # x to the box boundary along the ray, split at the corner directions
    (a1, a2), (b1, b2) = box.lower, box.upper
    corners = np.array([[a1, a2], [b1, a2], [b1, b2], [a1, b2]])
    angles = np.arctan2(corners[:, 1] - x[1], corners[:, 0] - x[0])

    def integrand(theta):
        c, sn = np.cos(theta), np.sin(theta)
        rho = min((b1 - x[0]) / c if c > 0 else (a1 - x[0]) / c if c < 0 else np.inf,
                  (b2 - x[1]) / sn if sn > 0 else (a2 - x[1]) / sn if sn < 0 else np.inf)
        return rho ** (-2.0 * s) / (2.0 * s)

    return quad(integrand, -np.pi, np.pi, points=angles, epsabs=0.0,
                epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize("s", [0.1, 0.25, 0.45])
def test_tail_weight_2d_matches_polar_integral(s):
    from fractomo._assembly2d import tail_weight_2d

    # quad itself drifts to ~1e-10 when a point 1e-9 from one face is
    # also within ~0.1 of another, so the face points keep >= 0.3 clear
    box = Box((-1.0, -2.0), (3.0, 1.0))
    points = np.array([
        [1.0, -0.5],  # box centre
        [-1.0 + 1e-9, 0.3], [3.0 - 1e-9, -1.5], [0.2, 1.0 - 1e-9],
        [0.5, -2.0 + 1e-9],  # 1e-9 from each face
        [-1.0 + 1e-9, -2.0 + 1e-9], [-1.0 + 1e-3, 1.0 - 2e-3],
        [3.0 - 1e-5, 1.0 - 1e-6],  # near corners
    ])
    omega = tail_weight_2d(points, box, s)
    ref = np.array([_polar_tail_weight(x, box, s) for x in points])
    assert (np.abs(omega - ref) / ref).max() <= 1e-10


def test_tail_2d_vs_bruteforce_oracle():
    # 4 x 4 cells, so every boundary group of translated elements has
    # members other than the one whose rules it reuses
    from _oracles import bruteforce_tail_2d

    mesh = build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 0.5, [])
    X, Y = mesh.nodes.T
    g = np.sqrt(1.0 + 0.5 * np.exp(-(X - 0.3) ** 2 - (Y + 0.2) ** 2))
    T = tail_matrix_2d(mesh, 0.3, g, 6)
    O = bruteforce_tail_2d(mesh, 0.3, g)
    d = np.abs(T - O)
    scale = np.abs(O).max()
    assert (d / scale).max() < 0.01
    big = np.abs(O) >= 0.1 * scale
    assert (d[big] / np.abs(O)[big]).max() < 0.01


#: one element of each kind of contact with the box boundary, as (box,
#: vertices); the faces touched lie on x = 0 or y = 0 (see
#: adaptive_tail_block), and the first vertex is on a face
TAIL_ELEMENTS = {
    "corner vertex": (((0.0, 0.0), (2.0, 2.0)), [(0, 0), (0.25, 0), (0.25, 0.25)]),
    "face edge": (((0.0, 0.0), (2.0, 2.0)), [(0.25, 0), (0.5, 0), (0.5, 0.25)]),
    "face vertex": (((0.0, 0.0), (2.0, 2.0)), [(0.25, 0), (0.5, 0.25), (0.25, 0.25)]),
    "two face vertices": (((-2.0, 0.0), (0.0, 2.0)),
                          [(-0.25, 0), (0, 0.25), (-0.25, 0.25)]),
}


@pytest.mark.parametrize("s", [0.1, 0.25, 0.45, 0.6])
@pytest.mark.parametrize("kind", TAIL_ELEMENTS)
def test_tail_2d_element_vs_adaptive_reference(kind, s):
    from _oracles import adaptive_tail_block
    from fractomo._assembly2d import kernel_tail_2d

    box, verts = TAIL_ELEMENTS[kind]
    mesh = build_mesh(Box(*box), 0.25, [])
    X, Y = mesh.nodes.T
    g = np.sqrt(1.0 + 0.5 * np.exp(-(X - 0.3) ** 2 - (Y + 0.2) ** 2))
    e = next(e for e, tri in enumerate(mesh.nodes[mesh.elements])
             if np.allclose(tri, verts))
    a, b = np.triu_indices(3)
    if s >= 0.5 and kind in ("corner vertex", "face edge"):
        # the two hats of the edge on the face have infinite entries; the
        # pairs with the off-face vertex 2 stay finite
        a, b = np.array([0, 1, 2]), np.array([2, 2, 2])
    for elements, w, lam in kernel_tail_2d(mesh, s, g, 6):
        row = np.flatnonzero((elements == mesh.elements[e]).all(axis=1))
        if row.size:
            local = w[row[0]] @ (lam[:, a] * lam[:, b])
    ref = adaptive_tail_block(mesh, e, s, g, np.stack([a, b], axis=1))
    assert np.abs(local - ref).max() <= 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("s", [0.1, 0.45])
def test_tail_2d_converges_in_order(s):
    # the self check raises the tail's order with ORDER_SINGULAR, and the
    # default order is converged
    mesh = build_mesh(Box((-2.0, -1.0), (3.0, 1.0)), 0.25, [])
    X, Y = mesh.nodes.T
    g = np.sqrt(1.0 + 0.5 * np.exp(-(X - 0.3) ** 2 - (Y + 0.2) ** 2))
    T, T8 = tail_matrix_2d(mesh, s, g, 6), tail_matrix_2d(mesh, s, g, 14)
    assert not np.array_equal(T, T8)
    assert np.abs(T - T8).max() <= 1e-10 * np.abs(T).max()


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_tail_edge_constant(s):
    from fractomo._assembly2d import FACE_CUTOFF, _edge_constant

    end = 1.0 if s < 0.5 else 1.0 - FACE_CUTOFF
    ref = quad(lambda r: r * (1.0 - r) ** (-2.0 * s), 0.0, end, limit=200,
               epsabs=0.0, epsrel=1e-12)[0]
    assert _edge_constant(s) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("s", [0.5, 0.6, 0.9])
def test_gagliardo_2d_beyond_half(s, monkeypatch):
    # for s >= 1/2 only the tail entries between two hats on one box face
    # are infinite; they are cut off, the others stay exact
    mesh = build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 0.5, [])
    A = gagliardo_form(mesh, KernelParams(2, s)).entries
    monkeypatch.setattr(assembly, "ORDER_SINGULAR", 14)
    A14 = gagliardo_form(mesh, KernelParams(2, s)).entries
    assert np.isfinite(A).all()
    assert np.array_equal(A, A.T)
    off = np.flatnonzero((np.abs(mesh.nodes) < 1.0).all(axis=1))
    assert np.linalg.eigvalsh(A).min() > 0
    assert np.abs(A - A14)[off].max() <= 1e-10 * np.abs(A[off]).max()


def test_quadrature_self_check_rejects_crude_orders(mesh9, params, monkeypatch):
    from fractomo.errors import QuadratureFailure

    monkeypatch.setattr(assembly, "ORDER_SINGULAR", 1)
    monkeypatch.setattr(assembly, "ORDER_REGULAR", 1)
    with pytest.raises(QuadratureFailure):
        gagliardo_form(mesh9, params, check=True)


# ---------------------------------------------------------------------------
# grid plans
# ---------------------------------------------------------------------------

PLAN_MESHES = {1: (Box((-1.0,), (1.5,)), 1 / 16), 2: (Box((0.0, 0.0), (1.0, 1.0)), 0.25)}


def _kernel_forms(mesh, s, check):
    """The Gagliardo form and a conductivity form, in that order."""
    x = mesh.nodes
    gamma = 1.0 + 0.5 * np.exp(-((x - x.mean(axis=0)) ** 2).sum(axis=1))
    p = KernelParams(mesh.n, s)
    return [gagliardo_form(mesh, p, check=check),
            conductivity_form(mesh, p, Coefficients.from_arrays(gamma, gamma_exterior=1.5),
                              check=check)]


def _same_forms(a, b):
    return all(np.array_equal(f.entries, g.entries) and np.array_equal(f.tail_row, g.tail_row)
               for f, g in zip(a, b))


@pytest.mark.parametrize("s", [0.1, 0.25, 0.45])
@pytest.mark.parametrize("n", [1, 2])
def test_forms_from_cold_and_warm_plans_are_identical(n, s):
    mesh = build_mesh(*PLAN_MESHES[n], [])
    # the 2D self check rejects s >= 0.4 (see the README)
    for check in (False, True) if n == 1 or s < 0.4 else (False,):
        assembly._grid_plan.cache_clear()
        cold = _kernel_forms(mesh, s, check)  # the conductivity form is warm
        warm = _kernel_forms(mesh, s, check)
        assembly._grid_plan.cache_clear()
        conductivity_cold = _kernel_forms(mesh, s, check)[1:]
        assert _same_forms(cold, warm)
        assert _same_forms(cold[1:], conductivity_cold)


def test_plan_keys_are_separate(monkeypatch):
    settings = [(n, box, h, s, order)
                for n, box, h in ((1, Box((-1.0,), (1.5,)), 1 / 16),
                                  (1, Box((-1.0,), (1.0,)), 1 / 16),
                                  (1, Box((-1.0,), (1.5,)), 1 / 8),
                                  (2, Box((0.0, 0.0), (1.0, 1.0)), 0.25),
                                  (2, Box((0.0, 0.0), (1.0, 1.5)), 0.25))
                for s in (0.1, 0.3) for order in (assembly.ORDER_SINGULAR, 4)]

    def forms(n, box, h, s, order):
        monkeypatch.setattr(assembly, "ORDER_SINGULAR", order)
        return _kernel_forms(build_mesh(box, h, []), s, False)

    reference = []
    for setting in settings:
        assembly._grid_plan.cache_clear()
        reference.append(forms(*setting))
    assembly._grid_plan.cache_clear()
    for k in range(2 * len(settings)):
        # strides 7 and 1 through the settings: every result meets plans
        # of other settings, warm and evicted
        i = (7 * k) % len(settings) if k < len(settings) else k - len(settings)
        assert _same_forms(forms(*settings[i]), reference[i]), settings[i]


def _plan_arrays(plan):
    if isinstance(plan, np.ndarray):
        return [plan]
    if isinstance(plan, tuple):
        return [a for item in plan for a in _plan_arrays(item)]
    return []


def test_plan_arrays_are_read_only():
    from fractomo import _assembly2d

    for n, build, orders in ((1, assembly._inbox_plan_1d, (6, 4)),
                             (1, assembly._tail_plan_1d, (6,)),
                             (2, _assembly2d._inbox_plan_2d, (5,)),
                             (2, _assembly2d._tail_plan_2d, (6,))):
        arrays = _plan_arrays(assembly._grid_plan(build, *PLAN_MESHES[n], 0.25, *orders))
        assert arrays
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1.0


# g = 1 and powers of two: there every product of the full sums is exact,
# so equality pins the order of their additions; any other constant rounds
# c^2 once instead of c S c per term (the property tests bound that)
@pytest.mark.parametrize("c", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("n", [1, 2])
def test_constant_weight_fill_equals_the_full_offset_sum(n, c, monkeypatch):
    from fractomo import _assembly2d

    build, orders = ((assembly._inbox_plan_1d, (6, 4)) if n == 1
                     else (_assembly2d._inbox_plan_2d, (5,)))
    box, h = PLAN_MESHES[n]
    plan = assembly._grid_plan(build, box, h, 0.25, *orders)
    shape, N = plan.shape, int(np.prod(plan.shape))
    g = np.full(N, c)
    monkeypatch.setattr(assembly, "_add_local", lambda *args: None)
    A = assembly._apply_offsets(plan, g)
    # the full sum over all (p, q), upper triangle mirrored
    gpad = np.pad(g.reshape(shape), 1)
    G = np.stack([gpad[tuple(slice(1 + o, 1 + o + m) for o, m in zip(off, shape))]
                  for off in plan.offsets])
    full = (slice(None),) * n
    F = assembly._offset_sum(plan.S, G, G, full, full).reshape(N, N)
    F = np.triu(F) + np.triu(F, 1).T
    inner = np.zeros(shape, bool)
    inner[(slice(1, -1),) * n] = True
    inner = np.flatnonzero(inner)
    assert np.array_equal(A[np.ix_(inner, inner)], F[np.ix_(inner, inner)])
    # the box-face rows: the full sums over their existing slots
    T, nv = plan.elements.shape[:2]
    L = (plan.exists[:, :, None] * G[plan.p].reshape(T, nv, nv, *shape)
         ).reshape(len(plan.p), *shape)
    for face, rows in plan.faces:
        R = assembly._face_rows(plan.V, L, face, full).reshape(rows.size, N)
        assert np.array_equal(A[np.ix_(rows, inner)], R[:, inner])


def test_plan_cache_is_bounded():
    assembly._grid_plan.cache_clear()
    for k in range(assembly.PLAN_CACHE + 3):
        gagliardo_form(build_mesh(Box((0.0,), (1.0 + k / 8,)), 1 / 8, []),
                       KernelParams(1, 0.25))
    info = assembly._grid_plan.cache_info()
    assert info.maxsize == assembly.PLAN_CACHE
    assert info.currsize == assembly.PLAN_CACHE


@pytest.mark.parametrize("m", [1, 2, 7, 64])
def test_mirror_upper_of_a_block_matches_the_index_copy(m):
    # the row blocks are views into a larger form; the cached mask is shared
    A = np.random.default_rng(m).standard_normal((m + 3, m + 5))
    ref = A.copy()
    i, j = np.tril_indices(m, -1)
    block = ref[1:m + 1, 2:m + 2]
    block[i, j] = block[j, i]
    assembly._mirror_upper(A[1:m + 1, 2:m + 2])
    assert np.array_equal(A, ref)
    assert not assembly._strict_lower(m).flags.writeable
