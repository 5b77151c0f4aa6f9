import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fractomo.errors import (
    EmptyRegion,
    NonConformingSpacing,
    RegionOverlapViolation,
    UnknownRegion,
)
from fractomo.mesh import (
    COORD_RTOL,
    ELEMENT_VERTS,
    Box,
    Region,
    build_mesh,
    region_dofs,
    support_dofs,
)


def test_five_node_interval_counts():
    mesh = build_mesh(Box((-2.0,), (2.0,)), 1.0, [Region("Omega", (-1.0,), (1.0,))])
    assert mesh.num_nodes == 5
    assert np.allclose(mesh.coords, [-2, -1, 0, 1, 2])
    assert list(mesh.interior_dofs) == [2]


def test_w1_mask_membership():
    mesh = build_mesh(
        Box((-2.0,), (2.0,)), 0.5,
        [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.8,))],
    )
    w1 = region_dofs(mesh, "W1")
    assert np.allclose(mesh.coords[w1], [1.5])


def test_unit_square_counts():
    mesh = build_mesh(Box((0.0, 0.0), (1.0, 1.0)), 0.5, [])
    assert mesh.num_nodes == 9
    assert mesh.elements.shape == (8, 3)
    # every node belongs to at least one element
    assert set(mesh.elements.ravel()) == set(range(9))


def test_node_count_formula():
    mesh = build_mesh(Box((0.0, 0.0), (2.0, 1.0)), 0.25, [])
    assert mesh.num_nodes == (8 + 1) * (4 + 1)


def test_region_dofs_unknown_label():
    mesh = build_mesh(Box((-2.0,), (2.0,)), 1.0, [Region("Omega", (-1.0,), (1.0,))])
    assert list(region_dofs(mesh, "Omega")) == [2]
    with pytest.raises(UnknownRegion):
        region_dofs(mesh, "W7")


def test_region_dofs_accepts_region_objects():
    meshes = [
        build_mesh(
            Box((-2.0,), (2.5,)), 0.25,
            [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.0,)),
             Region("W2", (1.5,), (2.25,))],
        ),
        build_mesh(
            Box((-2.0, -1.0), (3.0, 1.0)), 0.25,
            [Region("Omega", (-1.0, -0.5), (1.0, 0.5)),
             Region("W1", (1.5, -0.5), (2.5, 0.5))],
        ),
    ]
    for mesh in meshes:
        for label, region in mesh.regions.items():
            assert np.array_equal(region_dofs(mesh, region), region_dofs(mesh, label))


def test_nonconforming_spacing():
    with pytest.raises(NonConformingSpacing):
        build_mesh(Box((0.0,), (1.0,)), 0.3, [])
    with pytest.raises(NonConformingSpacing):
        build_mesh(Box((0.0,), (1.0,)), -0.25, [])


def test_empty_region():
    with pytest.raises(EmptyRegion):
        build_mesh(Box((0.0,), (4.0,)), 1.0,
                   [Region("W1", (2.2,), (2.8,))])


def test_measurement_set_overlap():
    with pytest.raises(RegionOverlapViolation):
        build_mesh(
            Box((-2.0,), (2.0,)), 0.25,
            [Region("Omega", (-1.0,), (1.0,)), Region("W1", (0.5,), (1.5,))],
        )
    # touching the closure counts as overlap too
    with pytest.raises(RegionOverlapViolation):
        build_mesh(
            Box((-2.0,), (2.0,)), 0.25,
            [Region("Omega", (-1.0,), (1.0,)), Region("W1", (0.9,), (1.0,))],
        )


def test_interior_and_measurement_dofs_disjoint():
    mesh = build_mesh(
        Box((-2.0,), (2.5,)), 0.25,
        [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.25,), (2.0,)),
         Region("W2", (1.5,), (2.25,))],
    )
    for label in ("W1", "W2"):
        assert not set(mesh.interior_dofs) & set(region_dofs(mesh, label))


def test_support_dofs_closure_rule():
    # hats whose support touches the open boundary of Omega are included
    # exactly when the support stays in the closure
    mesh = build_mesh(Box((-2.0,), (2.0,)), 0.5, [Region("Omega", (-1.0,), (1.0,))])
    inside = mesh.coords[mesh.interior_dofs]
    assert np.allclose(inside, [-0.5, 0.0, 0.5])
    w = Region("V", (0.0,), (1.0,))
    assert np.allclose(mesh.coords[support_dofs(mesh, w)], [0.5])


def test_determinism_bit_identical():
    regions = [Region("Omega", (-1.0,), (1.0,))]
    m1 = build_mesh(Box((-2.0,), (2.0,)), 0.125, regions)
    m2 = build_mesh(Box((-2.0,), (2.0,)), 0.125, regions)
    assert np.array_equal(m1.nodes, m2.nodes)
    assert np.array_equal(m1.elements, m2.elements)
    assert np.array_equal(m1.interior_dofs, m2.interior_dofs)


def test_refinement_nests_nodes():
    coarse = build_mesh(Box((-1.3,), (2.1,)), 0.1, [])
    fine = build_mesh(Box((-1.3,), (2.1,)), 0.05, [])
    fine_set = set(fine.coords.tolist())
    assert all(x in fine_set for x in coarse.coords.tolist())


def test_mesh_is_immutable():
    mesh = build_mesh(Box((-1.0,), (1.0,)), 0.5, [])
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 7.0


@pytest.mark.parametrize("make", [
    lambda: Region("W1", (1.0,), (2.0, 9.0)),
    lambda: Region("X", (), ()),
    lambda: Region("Y", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    lambda: Region("Z", (0.0, 1.0), (1.0, 1.0)),
    lambda: Box((1.0,), (2.0, 9.0)),
    lambda: Box((), ()),
    lambda: Box((2.0,), (1.0,)),
])
def test_box_and_region_reject_bad_bounds(make):
    # equal lengths, dimension 1 or 2, lower < upper on every axis
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("lower, upper, h", [
    ((-2.25,), (3.25,), 0.25),
    ((-1.0, -1.0), (1.0, 1.0), 0.25),
    ((0.0, 0.0), (1.0, 3.0), 0.5),
    ((-1.0, 0.0), (2.0, 1.0), 0.25),
])
def test_grid_layout_contract(lower, upper, h):
    # the numbering the kernel assembly relies on, against explicit loops
    mesh = build_mesh(Box(lower, upper), h, [])
    n = len(lower)
    cells = [round((u - l) / h) for l, u in zip(lower, upper)]
    shape = [c + 1 for c in cells]
    assert list(mesh.shape) == shape

    def node(index):
        k = 0
        for i, m in zip(index, shape):
            k = k * m + i
        return k

    # nodes in lexicographic order of their grid index
    grid = list(itertools.product(*(range(m) for m in shape)))
    assert mesh.num_nodes == len(grid)
    for index in grid:
        expected = [l + h * i for l, i in zip(lower, index)]
        assert mesh.nodes[node(index)] == pytest.approx(expected, rel=1e-14, abs=1e-14)

    # element t on cell C is number t * ncells + ravel(C); vertex alpha
    # sits at node C + ELEMENT_VERTS[n][t][alpha]
    verts = ELEMENT_VERTS[n]
    ncells = math.prod(cells)
    assert mesh.elements.shape == (len(verts) * ncells, n + 1)
    for t, vt in enumerate(verts):
        for c, C in enumerate(itertools.product(*(range(m) for m in cells))):
            for alpha, v in enumerate(vt):
                vertex = [ci + vi for ci, vi in zip(C, v)]
                assert mesh.elements[t * ncells + c, alpha] == node(vertex)

    if n == 2:
        # type 0 is the lower triangle of its cell, type 1 the upper one
        centroid = np.mean(verts, axis=1)
        assert centroid[0, 1] < centroid[0, 0] and centroid[1, 1] > centroid[1, 0]

    # every element type is positively oriented
    P = mesh.nodes[mesh.elements]
    if n == 1:
        size = P[:, 1, 0] - P[:, 0, 0]
    else:
        e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
        size = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) / 2
    assert np.allclose(size, h**n / n)


# ---------------------------------------------------------------------------
# set relations of regions under the one coordinate tolerance
# ---------------------------------------------------------------------------

dims = st.sampled_from([1, 2])
coords = st.floats(-64.0, 64.0)
widths = st.floats(0.01, 16.0)
sides = st.sampled_from([-1, 1])
# offsets in units of the tolerance, away from the edge case 1 where a
# rounding of the coordinates could tip the comparison either way
below_tolerance = st.one_of(st.just(0.0), st.floats(-10.0, 0.9))
above_tolerance = st.floats(1.1, 10.0)


def _tolerance(*sets):
    """The rule of the module docstring, restated."""
    return COORD_RTOL * max(1.0, max(abs(v) for r in sets for v in r.lower + r.upper))


@st.composite
def regions(draw, n, name="A"):
    lower = [draw(coords) for _ in range(n)]
    return Region(name, tuple(lower), tuple(l + draw(widths) for l in lower))


def _beyond(a, axis, side, width, overlap):
    """The region of extent ``width`` on ``axis`` beyond the face ``side``
    (+1 upper, -1 lower) of ``a`` that overlaps ``a`` by ``overlap`` there
    (a gap if negative) and matches ``a`` on the other axis."""
    lower, upper = list(a.lower), list(a.upper)
    if side > 0:
        lower[axis] = a.upper[axis] - overlap
        upper[axis] = lower[axis] + width
    else:
        upper[axis] = a.lower[axis] + overlap
        lower[axis] = upper[axis] - width
    return Region("B", tuple(lower), tuple(upper))


def _face_moved(a, axis, side, move):
    """``a`` with its face ``side`` on ``axis`` moved outward by ``move``."""
    lower, upper = list(a.lower), list(a.upper)
    if side > 0:
        upper[axis] += move
    else:
        lower[axis] -= move
    return Region("B", tuple(lower), tuple(upper))


@settings(max_examples=100, deadline=None, database=None)
@given(n=dims, data=st.data())
def test_intersects_closed_is_symmetric(n, data):
    a, b = data.draw(regions(n)), data.draw(regions(n, "B"))
    assert a.intersects_closed(b) == b.intersects_closed(a)
    # and so is it between a region and one that touches it
    axis, side = data.draw(st.integers(0, n - 1)), data.draw(sides)
    frac = data.draw(st.floats(-2.0, 2.0))
    c = _beyond(a, axis, side, data.draw(widths), frac * _tolerance(a))
    assert a.intersects_closed(c) == c.intersects_closed(a)


@settings(max_examples=100, deadline=None, database=None)
@given(n=dims, data=st.data(), side=sides, width=widths,
       frac=st.one_of(below_tolerance, above_tolerance))
def test_regions_intersect_when_they_overlap_by_more_than_the_tolerance(
        n, data, side, width, frac):
    a = data.draw(regions(n))
    axis = data.draw(st.integers(0, n - 1))
    tol = _tolerance(a, _beyond(a, axis, side, width, 0.0))
    b = _beyond(a, axis, side, width, frac * tol)
    assert a.intersects_closed(b) == (frac > 1.0)
    assert b.intersects_closed(a) == (frac > 1.0)


@settings(max_examples=100, deadline=None, database=None)
@given(n=dims, data=st.data(), side=sides,
       frac=st.one_of(below_tolerance, above_tolerance))
def test_within_allows_a_face_out_by_the_tolerance(n, data, side, frac):
    a = data.draw(regions(n))
    axis = data.draw(st.integers(0, n - 1))
    assert a.within(a)
    # a sticks out of b by frac * tol on one face
    b = _face_moved(a, axis, side, -frac * _tolerance(a))
    assert a.within(b) == (frac < 1.0)
    assert a.within(Box(b.lower, b.upper)) == a.within(b)


@settings(max_examples=200, deadline=None, database=None)
@given(n=dims, data=st.data())
def test_within_implies_intersects_closed_for_a_region_wider_than_twice_the_tolerance(
        n, data):
    lower = [data.draw(coords) for _ in range(n)]
    # a bound of the tolerance of a and of b, which both lie within 103
    # units of lower
    unit = COORD_RTOL * max(1.0, max(abs(v) for v in lower) + 1.0)
    a = Region("A", tuple(lower),
               tuple(l + data.draw(st.floats(2.01, 100.0)) * unit for l in lower))
    # b is a with each face moved outward by up to 3 units, or inward
    moves = [data.draw(st.floats(-3.0, 3.0)) * unit for _ in range(2 * n)]
    lower_b = tuple(l - m for l, m in zip(a.lower, moves))
    upper_b = tuple(u + m for u, m in zip(a.upper, moves[n:]))
    assume(all(l < u for l, u in zip(lower_b, upper_b)))
    b = Region("B", lower_b, upper_b)
    assert min(u - l for l, u in zip(a.lower, a.upper)) > 2 * _tolerance(a, b)
    if a.within(b):
        assert a.intersects_closed(b)
