"""2D kernel-form assembly over triangle-pair panels.

Every unordered pair of triangles is a translate of a reference pair
keyed by the two triangle orientations and the cell offset.  The
reference blocks of each class are integrated once per fractional order
and cached across meshes (they scale like ``h^{2-2s}``); the engine in
:mod:`fractomo.assembly` contracts them with the diffusion vertex values.
A reference pair that touches or nearly touches is integrated by
recursive subdivision toward the diagonal: thanks to the difference
structure of the integrand the singularity is only ``|x - y|^{-2s}``, so
the leftover error of a depth-limited refinement decays geometrically.
A well-separated pair is its own single leaf, integrated by the tensor
product of degree-4 triangle rules.

The exterior-tail weight ``omega(x) = int_{box^c} |x-y|^{-2-2s} dy`` is
evaluated in closed form (one incomplete beta function per box face),
and the tail term ``int_T g phi_a phi_b omega`` goes through the same
local-mass routine as the mass and potential forms.  This 2D path
targets small desk-scale meshes; accuracy is at the percent level, and
boundary-touching tail entries additionally require ``s < 1/2``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import beta, betainc

from .assembly import _assemble_classes, _point_pair_blocks, _triangle_rule_deg4

#: recursion depth for touching reference panels
MAX_DEPTH = 5

#: halving levels of the tail pieces graded toward the box faces
GRADED_LEVELS = 14

#: separation multiple: pairs beyond this times the radius sum are leaves
SEPARATION = 1.5

#: cache of reference influence tensors, keyed by
#: (s, type_a, type_b, di, dj, depth)
_CLASS_CACHE: dict = {}


def _tri_geometry(coords):
    cen = coords.mean(axis=-2)
    rad = np.sqrt(((coords - cen[..., None, :]) ** 2).sum(axis=-1)).max(axis=-1)
    return cen, rad


def _subdivide(coords):
    """Split triangles (..., 3, 2) into 4 children (..., 4, 3, 2)."""
    a = coords[..., 0, :]
    b = coords[..., 1, :]
    c = coords[..., 2, :]
    ab = 0.5 * (a + b)
    bc = 0.5 * (b + c)
    ca = 0.5 * (c + a)
    return np.stack(
        [
            np.stack([a, ab, ca], axis=-2),
            np.stack([ab, b, bc], axis=-2),
            np.stack([ca, bc, c], axis=-2),
            np.stack([ab, bc, ca], axis=-2),
        ],
        axis=-3,
    )


def _barycentric(points, tri):
    """Barycentric coordinates of points (..., 2) w.r.t. one triangle (3, 2)."""
    a, b, c = tri
    T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    Tinv = np.linalg.inv(T)
    rel = points - a
    lam12 = rel @ Tinv.T
    lam0 = 1.0 - lam12[..., 0] - lam12[..., 1]
    return np.stack([lam0, lam12[..., 0], lam12[..., 1]], axis=-1)


def _collect_leaves(tri_a, tri_b, max_depth):
    leaves_a, leaves_b = [], []
    stack = [(tri_a, tri_b, 0)]
    while stack:
        A, B, depth = stack.pop()
        cen_a, rad_a = _tri_geometry(A)
        cen_b, rad_b = _tri_geometry(B)
        dist = np.sqrt(((cen_a - cen_b) ** 2).sum())
        if dist >= SEPARATION * (rad_a + rad_b) or depth >= max_depth:
            leaves_a.append(A)
            leaves_b.append(B)
            continue
        childs_a = _subdivide(A[None])[0]
        childs_b = _subdivide(B[None])[0]
        for i in range(4):
            for j in range(4):
                stack.append((childs_a[i], childs_b[j], depth + 1))
    return np.array(leaves_a), np.array(leaves_b)


def _leaf_points(leaves, bary, wts):
    pts = np.einsum("qa,lav->lqv", bary, leaves)
    a = leaves[:, 0, :]
    b = leaves[:, 1, :]
    c = leaves[:, 2, :]
    area = 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )
    return pts, area[:, None] * wts[None, :]


def _reference_tensors(s, tri_a, tri_b, max_depth):
    """Class blocks ``xx, xy, yy`` (3, 3, 3, 3, 3) of one reference pair.

    The pair is refined by :func:`_collect_leaves`; a separated pair is
    its own single leaf, so it gets the tensor product of the degree-4
    triangle rules.
    """
    bary, wts = _triangle_rule_deg4()
    bary = bary.T
    leaves_a, leaves_b = _collect_leaves(tri_a, tri_b, max_depth)
    xp, wx = _leaf_points(leaves_a, bary, wts)
    yp, wy = _leaf_points(leaves_b, bary, wts)
    lam_x = _barycentric(xp, tri_a)
    lam_y = _barycentric(yp, tri_b)
    diff = xp[:, :, None, :] - yp[:, None, :, :]
    r2 = (diff**2).sum(axis=-1)
    with np.errstate(divide="ignore"):
        K = np.where(r2 > 0.0, r2 ** (-(1.0 + s)), 0.0)
    W = (wx[:, :, None] * wy[:, None, :]) * K
    return _point_pair_blocks(W, lam_x, lam_y, "abcd")


def _class_tensors(s, type_a, type_b, di, dj, max_depth):
    key = (round(float(s), 12), type_a, type_b, di, dj, max_depth)
    if key not in _CLASS_CACHE:
        ref = {
            0: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
            1: np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        }
        tri_a = ref[type_a]
        tri_b = ref[type_b] + np.array([float(di), float(dj)])
        _CLASS_CACHE[key] = _reference_tensors(s, tri_a, tri_b, max_depth)
    return _CLASS_CACHE[key]


def kernel_inbox_2d(mesh, s, g, depth: int = MAX_DEPTH):
    """Raw double integral over box x box (no normalization factor).

    Every unordered element pair belongs to the class ``(type_a, type_b,
    di, dj)`` of its triangle types and cell offset; each class is
    contracted with ``g`` through its cached reference blocks (``depth``
    sets the refinement of touching reference pairs).
    """
    cx, cy = mesh.shape[0] - 1, mesh.shape[1] - 1
    ncells = cx * cy

    def classes():
        # element index = type * ncells + ix * cy + iy (see build_mesh)
        for ta, tb in ((0, 0), (0, 1), (1, 1)):
            for di in range(1 - cx, cx):
                for dj in range(1 - cy, cy):
                    if ta == tb and (di, dj) < (0, 0):
                        continue  # the reversed pair is in class (-di, -dj)
                    ix = np.arange(max(0, -di), min(cx, cx - di))
                    iy = np.arange(max(0, -dj), min(cy, cy - dj))
                    cell = (ix[:, None] * cy + iy).ravel()
                    yield (_class_tensors(s, ta, tb, di, dj, depth),
                           ta * ncells + cell, tb * ncells + cell + di * cy + dj)

    return _assemble_classes(mesh.num_nodes, mesh.elements, g, classes(),
                             mesh.h ** (2.0 - 2.0 * s))


def tail_weight_2d(points, box, s):
    """``omega(x) = int_{box^c} |x - y|^{-2-2s} dy`` in closed form.

    In polar coordinates about ``x``, ``omega = int rho(theta)^{-2s} /
    (2s) dtheta`` with ``rho`` the distance to the box boundary along the
    ray.  The rays through one face, at normal distance ``d`` with its
    corners at tangential offsets ``t_lo < 0 < t_hi``, give ``d^{-2s}
    [F(t_hi/d) - F(t_lo/d)]`` with ``F(tau) = int_0^{atan tau} cos^{2s} =
    sign(tau) B(1/2, s+1/2)/2 I(1/2, s+1/2; tau^2/(1+tau^2))``, where ``I``
    is the regularized incomplete beta function.
    """
    x = np.atleast_2d(points)
    lo, hi = np.asarray(box.lower, float), np.asarray(box.upper, float)
    # faces x0 = lo0, x1 = lo1, x0 = hi0, x1 = hi1: normal distances and
    # the tangential offsets of their corners
    d = np.concatenate([x - lo, hi - x], axis=1)
    t_lo = np.tile(lo[::-1] - x[:, ::-1], 2)
    t_hi = np.tile(hi[::-1] - x[:, ::-1], 2)

    def F(t):
        # beyond x = 1/2, I(1/2, s+1/2; x) = 1 - I(s+1/2, 1/2; 1-x) keeps
        # full accuracy for x near 1, i.e. for points near the face
        wide = t * t > d * d
        I = betainc(np.where(wide, s + 0.5, 0.5), np.where(wide, 0.5, s + 0.5),
                    np.minimum(t * t, d * d) / (t * t + d * d))
        return np.sign(t) * np.where(wide, 1.0 - I, I)

    span = d ** (-2.0 * s) * (F(t_hi) - F(t_lo))
    return beta(0.5, s + 0.5) / (4.0 * s) * span.sum(axis=1)


def _clip_axis(tris, axis, value, keep_above):
    """Clip triangles against the half-plane ``x[axis] >= value`` (or <=).

    Returns (kept, discarded) lists of triangles (the discarded side is
    the complement).  Degenerate slivers below area tolerance are
    dropped.
    """
    kept, other = [], []
    for tri in tris:
        sign = tri[:, axis] - value
        if not keep_above:
            sign = -sign
        inside = sign >= 0.0
        if inside.all():
            kept.append(tri)
            continue
        if not inside.any():
            other.append(tri)
            continue
        # polygon clipping of the triangle against the line; vertices on
        # the line belong to both sides
        poly_in, poly_out = [], []
        for k in range(3):
            p, pn = tri[k], tri[(k + 1) % 3]
            sp, sn = sign[k], sign[(k + 1) % 3]
            if sp >= 0:
                poly_in.append(p)
            if sp <= 0:
                poly_out.append(p)
            if sp * sn < 0:
                t = sp / (sp - sn)
                cut = p + t * (pn - p)
                poly_in.append(cut)
                poly_out.append(cut)

        def fan(poly, out):
            if len(poly) < 3:
                return
            for k in range(1, len(poly) - 1):
                t = np.array([poly[0], poly[k], poly[k + 1]])
                area = 0.5 * abs(
                    (t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
                    - (t[2, 0] - t[0, 0]) * (t[1, 1] - t[0, 1])
                )
                if area > 1e-14:
                    out.append(t)

        fan(poly_in, kept)
        fan(poly_out, other)
    return kept, other


def _graded_tail_pieces(tri, box, h, touch):
    """Split one triangle into pieces graded toward the box faces it
    touches (``touch`` flags the faces x0 = lo0, x0 = hi0, x1 = lo1,
    x1 = hi1)."""
    pieces = [tri]
    for axis, side in (divmod(f, 2) for f in np.flatnonzero(touch)):
        value = (box.lower, box.upper)[side][axis]
        graded, remaining = [], pieces
        for k in range(1, GRADED_LEVELS + 1):
            cut = value + (h * 0.5**k) * (1 - 2 * side)
            far, near = _clip_axis(remaining, axis, cut, side == 0)
            graded.extend(far)
            remaining = near
            if not remaining:
                break
        graded.extend(remaining)
        pieces = graded
    return pieces


def kernel_tail_2d(mesh, s, g):
    """Tail quadrature of ``int_T g phi_a phi_b omega`` (no C_ns) as a list
    of ``(elements, weights, shapes)`` groups for the local-mass routine
    of :mod:`fractomo.assembly`.

    The tail weight blows up like ``dist^{-2s}`` at the box boundary, so
    boundary-touching triangles are sliced into strips whose distance to
    the face halves at each level (anisotropic grading, linear piece
    count); the leftover sliver error decays like ``2^{-levels(2-2s)}``.
    The elements of one triangle type that touch the same box faces are
    translates of each other along those faces, so one representative's
    pieces serve the whole group: translation keeps the barycentric
    coordinates of the points, and only ``omega`` is evaluated per element.
    """
    coords = mesh.nodes[mesh.elements]
    lo, hi = np.asarray(mesh.box.lower), np.asarray(mesh.box.upper)
    gap = np.stack([coords.min(axis=1) - lo, hi - coords.max(axis=1)], axis=-1)
    touch = gap.reshape(-1, 4) <= 1e-12 * (hi - lo).max()
    # element index = type * ncells + cell (see build_mesh)
    ncells = (mesh.shape[0] - 1) * (mesh.shape[1] - 1)
    key = np.arange(len(coords)) // ncells * 16 + touch @ (1, 2, 4, 8)
    bary, wts = _triangle_rule_deg4()
    groups = []
    for k in np.unique(key):
        elems = np.flatnonzero(key == k)
        tri = coords[elems[0]]
        pieces = np.asarray(_graded_tail_pieces(tri, mesh.box, mesh.h,
                                                touch[elems[0]]))
        pts, w = _leaf_points(pieces, bary.T, wts)
        pts, w = pts.reshape(-1, 2), w.ravel()
        lam = _barycentric(pts, tri)
        shifted = pts + (coords[elems, 0] - tri[0])[:, None]
        om = tail_weight_2d(shifted.reshape(-1, 2), mesh.box, s).reshape(elems.size, -1)
        verts = mesh.elements[elems]
        groups.append((verts, w * om * (g[verts] @ lam.T), lam))
    return groups
