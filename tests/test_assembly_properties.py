"""Structural invariants of the kernel forms over random inputs.

Every element pair goes through the translation classes and the offset
engine, so these identities hold for any order, spacing and diffusion:

* the form is symmetric,
* constants are in the kernel of the in-box part: ``A 1 = tail_row``,
* the interior block is positive definite,
* the 2D exterior tail keeps the symmetries of the mesh,
* the offset engine agrees with the pair-by-pair class scatter and
  writes a bit-for-bit symmetric form,
* a local form's band is, entry for entry, the dense ``np.add.at``
  assembly, and adding it to a dense form is the dense sum.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractomo import _assembly2d, assembly
from fractomo.assembly import (
    Coefficients,
    KernelParams,
    SymForm,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from fractomo.mesh import Box, Region, build_mesh
from fractomo.profiles import bump
from fractomo.reduction import reduced_potential_form

from _oracles import class_scatter_reference, dense_potential_form, tail_matrix_2d

amplitudes = st.one_of(st.just(0.0), st.floats(0.01, 0.9))
frequencies = st.floats(0.1, 3.0)
phases = st.floats(0.0, 2.0 * np.pi)


@settings(max_examples=25, deadline=None, database=None)
@given(s=st.floats(0.05, 0.49), cells=st.sampled_from([4, 8, 16]),
       level=st.floats(0.2, 5.0), amp=amplitudes, freq=frequencies, phase=phases)
def test_conductivity_form_identities_1d(s, cells, level, amp, freq, phase):
    mesh = build_mesh(Box((-2.0,), (2.0,)), 1.0 / cells,
                      [Region("Omega", (-1.0,), (1.0,))])
    x = mesh.coords
    gamma = level * (1.0 + amp * np.sin(freq * x + phase))
    A = conductivity_form(mesh, KernelParams(1, s), Coefficients.from_arrays(gamma))
    scale = np.abs(A.entries).max()
    assert A.symmetry_defect() <= 1e-13
    ones = np.ones(mesh.num_nodes)
    assert np.abs(A.entries @ ones - A.tail_row).max() <= 1e-10 * scale
    ii = mesh.interior_dofs
    assert np.linalg.eigvalsh(A.entries[np.ix_(ii, ii)]).min() > 0


@settings(max_examples=10, deadline=None, database=None)
@given(level=st.floats(0.2, 5.0), amp=amplitudes, kx=frequencies,
       ky=frequencies, phase=phases)
def test_conductivity_form_identities_2d(level, amp, kx, ky, phase):
    # the interior block is the one of the nodes off the box boundary
    mesh = build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 0.5, [])
    X, Y = mesh.nodes.T
    gamma = level * (1.0 + amp * np.sin(kx * X + phase) * np.cos(ky * Y))
    A = conductivity_form(mesh, KernelParams(2, 0.3), Coefficients.from_arrays(gamma))
    scale = np.abs(A.entries).max()
    assert A.symmetry_defect() <= 1e-13
    ones = np.ones(mesh.num_nodes)
    assert np.abs(A.entries @ ones - A.tail_row).max() <= 1e-10 * scale
    inner = np.flatnonzero((np.abs(X) < 1.0) & (np.abs(Y) < 1.0))
    assert np.linalg.eigvalsh(A.entries[np.ix_(inner, inner)]).min() > 0


def _node_map(mesh, f):
    """Node permutation ``p`` with ``nodes[p[i]] == f(nodes[i])``."""
    index = {tuple(k): i for i, k in enumerate(np.rint(mesh.nodes / mesh.h).astype(int))}
    return np.array([index[tuple(k)] for k in np.rint(f(mesh.nodes) / mesh.h).astype(int)])


@settings(max_examples=25, deadline=None, database=None)
@given(s=st.floats(0.05, 0.49), cells=st.sampled_from([2, 4]),
       half=st.tuples(st.sampled_from([1.0, 1.5]), st.sampled_from([1.0, 1.5])),
       amp=amplitudes, freq=frequencies)
def test_tail_2d_mesh_symmetries(s, cells, half, amp, freq):
    # the point reflection and the transpose both swap the two triangle
    # types, so they map every face and corner contact onto another one
    mesh = build_mesh(Box((-half[0], -half[1]), half), 1.0 / cells, [])
    X, Y = mesh.nodes.T
    g = 1.0 + amp * np.cos(freq * X) * np.cos(freq * Y)
    T = tail_matrix_2d(mesh, s, g, 6)
    maps = [lambda x: -x] + ([lambda x: x[:, ::-1]] if half[0] == half[1] else [])
    for f in maps:
        p = _node_map(mesh, f)
        assert np.abs(T[np.ix_(p, p)] - T).max() <= 1e-10 * np.abs(T).max()


#: entries of the offset engine against the class scatter summed in
#: extended precision, relative to max|A|: the engine's own round-off,
#: measured at up to 1.1e-14 (2D, one cell, s = 0.49) and 3.3e-16 in 1D
#: at N = 2817
ENGINE_RTOL = 5e-14


def _engine_against_reference(mesh, s, gamma):
    """The conductivity form of ``gamma`` with its in-box part from the
    offset engine, the engine's in-box part and the class-scatter
    reference of the same classes and blocks."""
    classes, parts = [], []
    plan, apply = assembly._offset_plan, assembly._apply_offsets

    def recorded_plan(shape, verts, keys, blocks, scale):
        classes.append((keys, blocks, scale))
        return plan(shape, verts, keys, blocks, scale)

    def recorded_apply(offset_plan, g, lines=None):
        A = apply(offset_plan, g, lines)
        parts.append((A.copy(), g))
        return A

    assembly._grid_plan.cache_clear()  # so that the plan is built here
    with pytest.MonkeyPatch.context() as mp:
        for module in (assembly, _assembly2d):
            mp.setattr(module, "_offset_plan", recorded_plan)
            mp.setattr(module, "_apply_offsets", recorded_apply)
        form = conductivity_form(mesh, KernelParams(mesh.n, s),
                                 Coefficients.from_arrays(gamma))
        form.entries  # the in-box part is evaluated on the first read
    (keys, blocks, scale), = classes
    (A, g), = parts
    return form, A, class_scatter_reference(mesh, g, keys, blocks, scale)


def _check_engine(mesh, s, gamma):
    form, A, reference = _engine_against_reference(mesh, s, gamma)
    assert np.abs(A - reference).max() <= ENGINE_RTOL * np.abs(reference).max()
    assert np.array_equal(A, A.T)
    assert np.array_equal(form.entries, form.entries.T)
    ones = np.ones(mesh.num_nodes)
    scale = np.abs(form.entries).max()
    assert np.abs(form.entries @ ones - form.tail_row).max() <= 1e-10 * scale


# 1-3 elements: every node touches the box boundary; 62-64 elements: the
# node counts on both sides of a row-block edge
@settings(max_examples=30, deadline=None, database=None)
@given(s=st.floats(0.05, 0.49), cells=st.sampled_from([1, 2, 3, 62, 63, 64]),
       lower=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_offset_engine_matches_class_scatter_1d(s, cells, lower, seed):
    h = 1.0 / 16
    mesh = build_mesh(Box((lower,), (lower + cells * h,)), h, [])
    gamma = np.random.default_rng(seed).uniform(0.2, 5.0, mesh.num_nodes)
    _check_engine(mesh, s, gamma)


def test_offset_engine_matches_class_scatter_1409_nodes():
    mesh = build_mesh(Box((-2.25,), (3.25,)), 1.0 / 256, [])
    gamma = np.random.default_rng(7).uniform(0.2, 5.0, mesh.num_nodes)
    _check_engine(mesh, 0.25, gamma)


@settings(max_examples=20, deadline=None, database=None)
@given(s=st.floats(0.05, 0.49),
       cells=st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 3)]),
       h=st.sampled_from([0.25, 0.5, 0.7]),
       lower=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_offset_engine_matches_class_scatter_2d(s, cells, h, lower, seed):
    upper = (lower[0] + cells[0] * h, lower[1] + cells[1] * h)
    mesh = build_mesh(Box(lower, upper), h, [])
    gamma = np.random.default_rng(seed).uniform(0.2, 5.0, mesh.num_nodes)
    _check_engine(mesh, s, gamma)


# The split of the offset engine: off the support lines of g (the lines
# whose stencil sees a value other than c = g[0]) the form is c^2 times one
# collapsed window, towards them partial sums, and the box-face rows are
# c^2 times those of g = 1.  gamma is c^2 off a sub-box of nodes and random
# inside it, so every part of the split is exercised.

def _split_gamma(shape, c, lo, hi, seed):
    """``c^2`` on the node grid ``shape``, random inside the index box
    ``[lo, hi)`` (empty where ``lo >= hi`` on an axis)."""
    gamma = np.full(shape, c * c)
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    gamma[box] = np.random.default_rng(seed).uniform(0.2, 5.0, gamma[box].shape)
    return gamma.ravel()


# 131 nodes: two row blocks and more.  A sub-box [lo, hi) off node 0 puts
# the support range at [lo - 1, hi + 1): (65, 127) starts it on a
# ROW_BLOCK edge and ends it one row block later, (2, 65) makes it one row
# block plus one row, (1, 5) and (120, 131) put it next to a box face and
# (7, 7) leaves it empty; (0, 131) spans every node
@settings(max_examples=25, deadline=None, database=None)
@given(s=st.floats(0.05, 0.49), c=st.floats(0.3, 3.0),
       span=st.tuples(st.integers(0, 131), st.integers(0, 131)),
       seed=st.integers(0, 2**32 - 1))
@example(s=0.25, c=1.0, span=(65, 127), seed=1)
@example(s=0.25, c=0.7, span=(2, 65), seed=2)
@example(s=0.3, c=1.3, span=(1, 5), seed=3)
@example(s=0.3, c=2.1, span=(120, 131), seed=4)
@example(s=0.2, c=1.7, span=(7, 7), seed=5)
@example(s=0.4, c=0.9, span=(0, 131), seed=6)
def test_offset_engine_split_matches_class_scatter_1d(s, c, span, seed):
    h = 1.0 / 16
    mesh = build_mesh(Box((-1.0,), (-1.0 + 130 * h,)), h, [])
    lo, hi = min(span), max(span)
    _check_engine(mesh, s, _split_gamma(mesh.shape, c, (lo,), (hi,), seed))


# 15 x 5 nodes, 12 grid lines per row block: a sub-box [lo, hi) off node
# 0 puts the support lines at [lo[0] - 1, hi[0] + 1).  Lines (1, 11)
# start them at the face and fill one row block, (2, 14) make one row
# block plus two lines and end them at the other face, (6, 8) keep them
# inside and (4, 4) leave them empty; (0, 15) x (0, 5) spans every node
@settings(max_examples=10, deadline=None, database=None)
@given(s=st.floats(0.05, 0.45), c=st.floats(0.3, 3.0),
       lines=st.tuples(st.integers(0, 15), st.integers(0, 15)),
       cols=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       seed=st.integers(0, 2**32 - 1))
@example(s=0.25, c=1.0, lines=(1, 11), cols=(1, 4), seed=1)
@example(s=0.3, c=0.8, lines=(2, 14), cols=(0, 5), seed=2)
@example(s=0.3, c=1.4, lines=(6, 8), cols=(2, 3), seed=3)
@example(s=0.2, c=1.9, lines=(4, 4), cols=(1, 3), seed=4)
@example(s=0.4, c=0.6, lines=(0, 15), cols=(0, 5), seed=5)
def test_offset_engine_split_matches_class_scatter_2d(s, c, lines, cols, seed):
    h = 0.25
    mesh = build_mesh(Box((-1.0, -0.5), (-1.0 + 14 * h, -0.5 + 4 * h)), h, [])
    lo, hi = (min(lines), min(cols)), (max(lines), max(cols))
    _check_engine(mesh, s, _split_gamma(mesh.shape, c, lo, hi, seed))


def _potential(kind, rng, N):
    """A nodal potential: positive, zero or of changing sign."""
    if kind == "positive":
        return rng.uniform(0.1, 2.0, N)
    if kind == "zero":
        return np.zeros(N)
    return rng.standard_normal(N)


local_meshes = st.sampled_from([(1, 1 / 4), (1, 1 / 16), (1, 1 / 128), (2, 1 / 2), (2, 1 / 8)])


@settings(max_examples=30, deadline=None, database=None)
@given(grid=local_meshes, kind=st.sampled_from(["positive", "zero", "sign-changing"]),
       seed=st.integers(0, 2**32 - 1))
def test_local_forms_are_the_dense_add_at_assembly(grid, kind, seed):
    n, h = grid
    mesh = build_mesh(Box((-1.0,) * n, (1.0,) * n), h, [])
    rng = np.random.default_rng(seed)
    N = mesh.num_nodes
    q = _potential(kind, rng, N)
    for form, weight in ((potential_form(mesh, q), q), (mass_matrix(mesh), np.ones(N))):
        dense = form.entries
        assert np.array_equal(dense, dense_potential_form(mesh, weight))
        assert not dense.flags.writeable
        assert form.band.shape == (3 if n == 1 else 7, N)
        x = rng.standard_normal((N, 2))
        assert np.allclose(form @ x, dense @ x, rtol=0.0,
                           atol=1e-14 * (np.abs(dense) @ np.abs(x)).max())


@settings(max_examples=30, deadline=None, database=None)
@given(grid=local_meshes, kind=st.sampled_from(["positive", "zero", "sign-changing"]),
       seed=st.integers(0, 2**32 - 1))
def test_a_dense_form_plus_a_local_form_is_the_dense_sum(grid, kind, seed):
    n, h = grid
    mesh = build_mesh(Box((-1.0,) * n, (1.0,) * n), h, [])
    rng = np.random.default_rng(seed)
    N = mesh.num_nodes
    S = rng.standard_normal((N, N))
    S = SymForm(S + S.T, rng.standard_normal(N))
    P = potential_form(mesh, _potential(kind, rng, N))
    total = S + P
    assert np.array_equal(total.entries, S.entries + P.entries)
    assert np.array_equal(total.tail_row, S.tail_row)
    in_place = SymForm(S.entries.copy(), S.tail_row.copy())
    in_place += P
    assert np.array_equal(in_place.entries, total.entries)
    assert np.array_equal(in_place.tail_row, total.tail_row)
    # the reduced potential form is the band of P scaled on both sides,
    # entry for entry the dense scaling of the dense view
    gamma = rng.uniform(0.5, 2.0, N)
    co = Coefficients.from_arrays(gamma, P.band[0])
    inv_sqrt = 1.0 / np.sqrt(gamma)
    expected = inv_sqrt[:, None] * P.entries
    expected *= inv_sqrt[None, :]
    expected[np.diag_indices(N)] += -(S.entries @ co.m_gamma) * inv_sqrt
    assert np.array_equal(reduced_potential_form(co, gform=S, qform=P).entries, expected)


# A kernel form evaluates the principal block of its window (the grid
# lines from Omega's first dof to the last hat of a measurement set) on a
# first read inside it, and the full matrix on any other read; the local
# forms added to it join every read.  Either way a block is the same bits.

def _dn_mesh(n):
    if n == 1:
        return build_mesh(Box((-2.25,), (3.25,)), 1 / 32,
                          [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))])
    return build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 0.25,
                      [Region("Omega", (-0.5, -0.5), (0.5, 0.5)),
                       Region("W1", (0.5, -0.75), (1.0, 0.75))])


def _kernel_form_of(kind, mesh, rng):
    """A Gagliardo form, or the conductivity form of a bump of gamma at a
    random place: inside the window, across it or outside it."""
    params = KernelParams(mesh.n, 0.25)
    if kind == "gagliardo":
        return gagliardo_form(mesh, params)
    lo, hi = mesh.box.lower, mesh.box.upper
    center = rng.uniform(lo, hi)
    y = np.linalg.norm((mesh.nodes - center) / rng.uniform(0.2, 1.0), axis=1)
    gamma = 1.0 + rng.uniform(0.1, 0.9) * bump(y)
    return conductivity_form(mesh, params, Coefficients.from_arrays(gamma))


def _index_set(rng, nodes, window):
    """Random sorted node indices, or a run of consecutive ones, from the
    window or from all nodes."""
    pool = window if rng.random() < 0.5 else np.arange(nodes)
    if rng.random() < 0.5:
        a, b = np.sort(rng.integers(0, pool.size, 2))
        return pool[a:b + 1]
    return np.sort(rng.choice(pool, rng.integers(1, pool.size + 1), replace=False))


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.sampled_from([1, 2]), kind=st.sampled_from(["gagliardo", "bump"]),
       bands=st.integers(0, 2), entries_first=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_block_of_a_kernel_form_is_its_entries(n, kind, bands, entries_first, seed):
    rng = np.random.default_rng(seed)
    mesh = _dn_mesh(n)
    N = mesh.num_nodes
    form = _kernel_form_of(kind, mesh, rng)
    for _ in range(bands):
        form = form + potential_form(mesh, rng.standard_normal(N))
    l0, l1 = assembly._window(mesh)
    rest = N // mesh.shape[0]
    window = np.arange(l0 * rest, l1 * rest)
    sets = [(_index_set(rng, N, window), _index_set(rng, N, window)) for _ in range(4)]
    if entries_first:
        A = form.entries
    blocks = [form.block(r, c) for r, c in sets]
    if not entries_first:
        A = form.entries
    for (r, c), B in zip(sets, blocks):
        assert np.array_equal(B, A[np.ix_(r, c)])
        assert np.array_equal(form.block(r, c), B)


def test_a_sum_keeps_its_value_when_its_operand_is_added_to():
    mesh = _dn_mesh(1)
    N = mesh.num_nodes
    A = _kernel_form_of("bump", mesh, np.random.default_rng(11))
    K = _kernel_form_of("bump", mesh, np.random.default_rng(11)).entries
    rng = np.random.default_rng(12)
    P, Q = (potential_form(mesh, rng.standard_normal(N)) for _ in range(2))
    total = A + P
    ii = mesh.interior_dofs
    block, tail_row = total.block(ii, ii), total.tail_row.copy()
    A += Q
    assert np.array_equal(total.block(ii, ii), block)
    assert np.array_equal(total.tail_row, tail_row)
    assert np.array_equal(total.entries, K + P.entries)
    assert np.array_equal(A.entries, K + Q.entries)
    # and the other way round: the operand keeps its value
    total += Q
    assert np.array_equal(A.entries, K + Q.entries)
    assert np.array_equal(total.entries, K + P.entries + Q.entries)
