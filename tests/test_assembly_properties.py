"""Structural invariants of the kernel forms over random inputs.

Every element pair goes through the translation-class engine, so these
identities hold for any order, spacing and diffusion:

* the form is symmetric,
* constants are in the kernel of the in-box part: ``A 1 = tail_row``,
* the interior block is positive definite,
* the 2D exterior tail keeps the symmetries of the mesh.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fractomo.assembly import Coefficients, KernelParams, conductivity_form
from fractomo.mesh import Box, Region, build_mesh

from _oracles import tail_matrix_2d

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
