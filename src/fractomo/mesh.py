"""Uniform simplicial meshes of a truncated computational box.

The full-space problem is truncated to an axis-aligned box; every nodal
function is extended by zero beyond the box (the analytic exterior-tail
contribution is handled by the assembly module).  Nodes carry labeled
regions: the scattering domain ``Omega``, measurement sets ``W1``/``W2``
and any auxiliary construction sets.  The discrete counterpart of the
compactly supported trial space on an open set ``R`` is the span of hat
functions whose support is contained in the closure of ``R``; those node
indices are what :func:`support_dofs` returns.

Every set relation is a method of :class:`Region`, under one coordinate
rule: two coordinates are equal when they differ by less than
``COORD_RTOL * max(1, c)``, with ``c`` the largest absolute coordinate of
the regions (or the box) involved.  A node lies in the open region when it
is farther than that inside every face; two regions intersect when, on
every axis, the upper face of each lies more than that above the lower
face of the other, so regions that touch do not; one lies within another
(or within the box) when none of its faces sticks out by more than that.

Supported dimensions are ``n = 1`` (primary) and ``n = 2``; one grid
layout serves both.  :data:`ELEMENT_VERTS` holds the element types of a
grid cell (the interval; the two triangles of the square), and
:func:`grid_elements` numbers the elements of every cell, which the
assembly relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyRegion,
    NonConformingSpacing,
    RegionOverlapViolation,
    UnknownRegion,
)

#: relative tolerance of every coordinate comparison (see the module docstring)
COORD_RTOL = 1e-9

#: vertex offsets of each element type on its grid cell, per dimension:
#: the interval in 1D; the lower and the upper triangle of the square in
#: 2D, both positively oriented (see :func:`grid_elements`)
ELEMENT_VERTS = {
    1: (((0,), (1,)),),
    2: (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))),
}


def _set_bounds(obj, what: str) -> None:
    """Store the bounds of a box or region as tuples of floats; they must
    have equal lengths 1 or 2 and satisfy ``lower[i] < upper[i]``."""
    lo = tuple(float(v) for v in np.atleast_1d(obj.lower))
    up = tuple(float(v) for v in np.atleast_1d(obj.upper))
    if len(lo) != len(up):
        raise ValueError(f"{what}: lower and upper must have the same length")
    if len(lo) not in (1, 2):
        raise ValueError(f"{what}: only dimensions 1 and 2 are supported")
    if not all(l < u for l, u in zip(lo, up)):
        raise ValueError(f"{what} must satisfy lower[i] < upper[i]")
    object.__setattr__(obj, "lower", lo)
    object.__setattr__(obj, "upper", up)


@dataclass(frozen=True)
class Box:
    """Axis-aligned computational box ``(lower[i], upper[i])``.

    Parameters
    ----------
    lower, upper : tuple of float
        Component-wise bounds; ``lower[i] < upper[i]`` and the dimension
        must be 1 or 2.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        _set_bounds(self, "box")

    @property
    def n(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class Region:
    """Open axis-aligned box region with a label.

    All regions used by the pipelines (domain, measurement sets,
    construction sets) are open intervals / rectangles, so membership is
    a coordinate-wise comparison.  ``contains_open`` realizes the open
    set, ``contains_closed`` its closure; ``intersects_closed`` and
    ``within`` relate two sets.  All of them compare coordinates under
    the one tolerance of the module docstring, so that grid-aligned
    boundaries behave predictably.
    """

    name: str
    lower: tuple
    upper: tuple

    def __post_init__(self):
        _set_bounds(self, f"region {self.name!r}")

    @property
    def n(self) -> int:
        return len(self.lower)

    def _tol(self, *others) -> float:
        """The coordinate tolerance of this region and ``others``."""
        scale = max(abs(v) for r in (self, *others) for v in r.lower + r.upper)
        return COORD_RTOL * max(1.0, scale)

    def contains_open(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points strictly inside the open region."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = self._tol()
        mask = np.ones(pts.shape[0], dtype=bool)
        for i, (l, u) in enumerate(zip(self.lower, self.upper)):
            mask &= (pts[:, i] > l + tol) & (pts[:, i] < u - tol)
        return mask

    def captures_node(self, axes) -> bool:
        """Whether a node of the tensor grid with the coordinates ``axes``
        (one array per axis) lies in the open region: on every axis, a
        coordinate does, under the rule of :meth:`contains_open`."""
        tol = self._tol()
        return all(((a > l + tol) & (a < u - tol)).any()
                   for a, l, u in zip(axes, self.lower, self.upper))

    def contains_closed(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closure of the region."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = self._tol()
        mask = np.ones(pts.shape[0], dtype=bool)
        for i, (l, u) in enumerate(zip(self.lower, self.upper)):
            mask &= (pts[:, i] >= l - tol) & (pts[:, i] <= u + tol)
        return mask

    def dilate(self, delta: float) -> "Region":
        """Open ``delta``-neighborhood of the region (axis-aligned hull)."""
        lo = tuple(v - delta for v in self.lower)
        up = tuple(v + delta for v in self.upper)
        return Region(self.name + f"+{delta:g}", lo, up)

    def intersects_closed(self, other: "Region") -> bool:
        """True if this open region meets the closure of ``other``: on
        every axis, the upper face of each lies more than the tolerance
        above the lower face of the other.  Regions that touch, or overlap
        by less than the tolerance, do not intersect."""
        tol = self._tol(other)
        return all(u1 - l2 > tol and u2 - l1 > tol for l1, u1, l2, u2
                   in zip(self.lower, self.upper, other.lower, other.upper))

    def within(self, other: "Region | Box") -> bool:
        """True if the closure of this region lies in the closure of
        ``other``, a region or a box."""
        tol = self._tol(other)
        return all(l2 - l1 <= tol and u1 - u2 <= tol for l1, u1, l2, u2
                   in zip(self.lower, self.upper, other.lower, other.upper))


@dataclass(frozen=True)
class Mesh:
    """Uniform nodal grid on a box with region labelings.

    Attributes
    ----------
    box : Box
    h : float
        Grid spacing, identical along every axis.
    nodes : ndarray, shape (N, n)
        Node coordinates in lexicographic order.
    elements : ndarray, shape (E, n+1)
        Interval endpoints (1D) or triangle vertices (2D) as node indices,
        in the order of :func:`grid_elements`.
    regions : dict
        Label -> :class:`Region`, the labeled regions the mesh was built
        with (see :func:`region_dofs` for their nodes).
    interior_dofs : ndarray
        Indices of nodes whose hat-function support lies in the closure
        of the region labeled ``"Omega"`` (empty if no such region).
    """

    box: Box
    h: float
    nodes: np.ndarray
    elements: np.ndarray
    regions: dict
    interior_dofs: np.ndarray
    shape: tuple = field(default=())

    @property
    def n(self) -> int:
        return self.box.n

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """1D node coordinates (only for n = 1)."""
        if self.n != 1:
            raise ValueError("coords is only defined for 1D meshes")
        return self.nodes[:, 0]


def grid_shape(box: Box, h: float) -> tuple:
    """Nodes per axis of the uniform grid of ``box`` with spacing ``h``,
    known before the mesh is built.

    Raises
    ------
    NonConformingSpacing
        Unless ``h`` is positive and ``(upper - lower)/h`` is integral
        within 1e-9 along every axis.
    """
    if h <= 0:
        raise NonConformingSpacing("spacing must be positive")
    shape = []
    for l, u in zip(box.lower, box.upper):
        ratio = (u - l) / h
        m = round(ratio)
        if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, abs(ratio)):
            raise NonConformingSpacing(
                f"spacing {h} does not divide box extent {u - l} "
                f"(ratio {ratio} is not integral within 1e-9)"
            )
        shape.append(m + 1)
    return tuple(shape)


def grid_axes(box: Box, h: float, regions=None) -> list:
    """Node coordinates along each axis of the uniform grid of ``box``
    with spacing ``h``, after checking the spacing and the ``regions``
    against that grid as :func:`build_mesh` does; builds no mesh, so a
    caller can validate a grid before it knows it can afford it.

    Raises
    ------
    NonConformingSpacing, EmptyRegion, RegionOverlapViolation
    """
    axes = [l + h * np.arange(m) for l, m in zip(box.lower, grid_shape(box, h))]
    regions = list(regions) if regions else []
    omega = {r.name: r for r in regions}.get("Omega")
    for r in regions:
        if r.n != box.n:
            raise ValueError(f"region {r.name!r} has wrong dimension")
        if omega is not None and is_measurement_label(r.name):
            if r.intersects_closed(omega):
                raise RegionOverlapViolation(
                    f"measurement set {r.name!r} meets the closure of Omega"
                )
        if not r.captures_node(axes):
            raise EmptyRegion(f"region {r.name!r} captures zero nodes")
    return axes


def grid_elements(shape: tuple, verts) -> np.ndarray:
    """Node indices (T, nv, *cells) of every element of the node grid
    ``shape``, C-contiguous.

    Nodes are numbered lexicographically (node ``i`` at grid index
    ``unravel(i)``).  ``verts`` (T, nv, n) holds the vertex offsets of each
    element type on its cell, e.g. :data:`ELEMENT_VERTS`; element ``t``
    on cell ``C`` is number ``t * ncells + ravel(C)``, and its vertex
    ``alpha`` sits at node ``C + verts[t][alpha]``.
    """
    index = np.arange(int(np.prod(shape))).reshape(shape)
    cells = [m - 1 for m in shape]
    return np.stack([[index[tuple(slice(o, o + c) for o, c in zip(v, cells))]
                      for v in vt] for vt in verts])


def is_measurement_label(label: str) -> bool:
    """Whether a region of this label is a measurement set: its label
    starts with ``"W"``."""
    return label.startswith("W")


def build_mesh(box: Box, h: float, regions: list | None = None) -> Mesh:
    """Build the uniform mesh of ``box`` with spacing ``h``.

    Nodes are ordered lexicographically by coordinate, which makes the
    construction bit-for-bit deterministic; refining ``h -> h/2``
    reproduces every coarse node exactly.

    Parameters
    ----------
    box : Box
    h : float
        Positive spacing; ``(upper - lower)/h`` must be integral within
        1e-9 along every axis.
    regions : list of Region, optional
        Labeled regions, each capturing at least one node.  Measurement regions
        (see :func:`is_measurement_label`) must not meet the closure of the
        region labeled ``"Omega"``.

    Raises
    ------
    NonConformingSpacing, EmptyRegion, RegionOverlapViolation
    """
    regions = list(regions) if regions else []
    axes = grid_axes(box, h, regions)
    shape = tuple(axis.size for axis in axes)
    nodes = np.stack([X.ravel() for X in np.meshgrid(*axes, indexing="ij")],
                     axis=1)
    table = grid_elements(shape, ELEMENT_VERTS[box.n])
    elements = np.ascontiguousarray(
        np.moveaxis(table, 1, -1).reshape(-1, table.shape[1]))

    labeled = {r.name: r for r in regions}
    omega = labeled.get("Omega")
    interior = (
        _support_dofs(nodes, elements, omega)
        if omega is not None
        else np.empty(0, dtype=np.int64)
    )

    for arr in (nodes, elements, interior):
        arr.setflags(write=False)
    return Mesh(
        box=box,
        h=float(h),
        nodes=nodes,
        elements=elements,
        regions=labeled,
        interior_dofs=interior,
        shape=shape,
    )


def _support_dofs(nodes: np.ndarray, elements: np.ndarray, region: Region) -> np.ndarray:
    # hat support = union of incident elements; for a convex region the
    # support lies in the closure iff all incident vertices do
    in_closure = region.contains_closed(nodes)
    elem_ok = in_closure[elements].all(axis=1)
    node_ok = np.ones(nodes.shape[0], dtype=bool)
    np.logical_and.at(node_ok, elements.ravel(), np.repeat(elem_ok, elements.shape[1]))
    node_ok &= in_closure
    # nodes not belonging to any element cannot occur on conforming meshes
    return np.flatnonzero(node_ok).astype(np.int64)


def resolve_region(mesh: Mesh, region: Region | str) -> Region:
    """The region object of a label declared on ``mesh``; a region object
    is returned as it is.

    Raises
    ------
    UnknownRegion
        If a label was not declared when the mesh was built.
    """
    if not isinstance(region, str):
        return region
    try:
        return mesh.regions[region]
    except KeyError:
        raise UnknownRegion(
            f"unknown region {region!r}; known: {sorted(mesh.regions)}"
        ) from None


def region_dofs(mesh: Mesh, region: Region | str) -> np.ndarray:
    """Node indices inside the open ``region``.

    Accepts a region object or the label of a declared region (see
    :func:`resolve_region`).
    """
    return np.flatnonzero(resolve_region(mesh, region).contains_open(mesh.nodes))


def support_dofs(mesh: Mesh, region: Region | str) -> np.ndarray:
    """Nodes whose hat-function support lies in the closure of ``region``.

    This is the discrete realization of the compactly supported trial
    space on the open set: exactly the hat functions one may use as test
    functions supported in ``region``.  Accepts a region object or the
    label of a declared region (see :func:`resolve_region`).
    """
    return _support_dofs(mesh.nodes, mesh.elements, resolve_region(mesh, region))
