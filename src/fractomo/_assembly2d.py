"""2D kernel-form assembly over triangle-pair panels.

Every unordered pair of triangles is a translate of a reference pair
keyed by the two triangle orientations and the cell offset.  The
reference blocks of all classes of a mesh are integrated on the unit
grid in one batch (they scale like ``h^{2-2s}``); the engine in
:mod:`fractomo.assembly` contracts them with the diffusion vertex values.
A well-separated pair gets the tensor product of degree-4 triangle
rules.  A pair that touches or nearly touches is split into its 16 child
pairs, down to a fixed depth; the midpoint split makes every child a
reference triangle at half scale, so the child pairs are again classes,
shared by all near pairs and integrated recursively one batch per level.
Thanks to the difference structure of the integrand the singularity is
only ``|x - y|^{-2s}``, so the leftover error of the depth-limited
refinement decays geometrically.  The near classes all sit in a fixed
window of cell offsets; its blocks do not depend on the mesh and are
memoized per order and depth.

The exterior-tail weight ``omega(x) = int_{box^c} |x-y|^{-2-2s} dy`` is
evaluated in closed form (one incomplete beta function per box face),
and the tail term ``int_T g phi_a phi_b omega`` goes through the same
local-mass routine as the mass and potential forms.  This 2D path
targets small desk-scale meshes; accuracy is at the percent level, and
boundary-touching tail entries additionally require ``s < 1/2``.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import beta, betainc

from .assembly import _assemble_classes, _point_pair_blocks, _triangle_rule_deg4

#: recursion depth for touching reference panels
MAX_DEPTH = 5

#: halving levels of the tail pieces graded toward the box faces
GRADED_LEVELS = 14

#: separation multiple: pairs beyond this times the radius sum are leaves
SEPARATION = 1.5

#: every class closer than SEPARATION times the radius sum has |di|, |dj|
#: <= this (its centroids are less than sqrt(5) apart)
NEAR_WINDOW = 2

#: vertices of the two triangle types on the unit cell (see build_mesh)
_REF = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))

#: the four half-size children of each triangle type, as (type, half-cell
#: x, half-cell y); the midpoint split makes each child a reference
#: triangle at half scale
_CHILDREN = (((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 0)),
             ((1, 0, 0), (1, 1, 1), (1, 0, 1), (0, 0, 1)))


def _tri_geometry(coords):
    cen = coords.mean(axis=-2)
    rad = np.sqrt(((coords - cen[..., None, :]) ** 2).sum(axis=-1)).max(axis=-1)
    return cen, rad


def _barycentric(points, tri):
    """Barycentric coordinates of points (..., 2) w.r.t. one triangle (3, 2)."""
    a, b, c = tri
    T = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    Tinv = np.linalg.inv(T)
    rel = points - a
    lam12 = rel @ Tinv.T
    lam0 = 1.0 - lam12[..., 0] - lam12[..., 1]
    return np.stack([lam0, lam12[..., 0], lam12[..., 1]], axis=-1)


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


def _class_blocks(s, keys, depth):
    """Class blocks ``xx, xy, yy`` (K, 3, 3, 3, 3, 3) on the unit grid.

    Row ``k`` of ``keys`` (K, 4) is the class ``(type_a, type_b, di, dj)``:
    triangle ``type_a`` on cell (0, 0) against ``type_b`` on cell
    ``(di, dj)``.  Every class gets the tensor product of the degree-4
    triangle rules.  A class closer than ``SEPARATION`` times the radius
    sum (with ``depth > 0``) is replaced by its 16 child pairs: each is a
    class on the half grid, so its blocks are ``2^{2s-2}`` times those of
    a unit class at ``depth - 1``, mapped to the parent's barycentric
    coordinates.  The child classes of all near keys go through one
    recursive call.
    """
    ref = np.array(_REF, dtype=float)
    tri_a = ref[keys[:, 0]]
    tri_b = ref[keys[:, 1]] + keys[:, None, 2:]
    bary, wts = _triangle_rule_deg4()
    xp, wx = _leaf_points(tri_a, bary.T, wts)
    yp, wy = _leaf_points(tri_b, bary.T, wts)
    r2 = ((xp[:, :, None] - yp[:, None]) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore"):
        K = np.where(r2 > 0.0, r2 ** (-(1.0 + s)), 0.0)
    lam = np.broadcast_to(bary.T, xp.shape[:2] + (3,))
    blocks = _point_pair_blocks(wx[:, :, None] * wy[:, None] * K, lam, lam, "labcd")
    cen_a, rad_a = _tri_geometry(tri_a)
    cen_b, rad_b = _tri_geometry(tri_b)
    near = np.sqrt(((cen_a - cen_b) ** 2).sum(axis=-1)) < SEPARATION * (rad_a + rad_b)
    if depth == 0 or not near.any():
        return blocks

    children = np.array(_CHILDREN)
    # M[t, i, p, k]: barycentric p of type t at vertex k of its child i
    M = np.array([[_barycentric(0.5 * (ref[c[0]] + c[1:]), ref[t]).T
                   for c in children[t]] for t in (0, 1)])
    ta, tb = keys[near, 0], keys[near, 1]
    ca, cb = children[ta][:, :, None], children[tb][:, None, :]
    # child pair (i, j) of a near class: (type of i, type of j, offset of
    # j from i in half cells)
    sub = np.empty((ta.size, 4, 4, 4), dtype=keys.dtype)
    sub[..., 0], sub[..., 1] = ca[..., 0], cb[..., 0]
    sub[..., 2:] = 2 * keys[near, None, None, 2:] + cb[..., 1:] - ca[..., 1:]
    uniq, inv = np.unique(sub.reshape(-1, 4), axis=0, return_inverse=True)
    C = _class_blocks(s, uniq, depth - 1)[inv.reshape(-1, 4, 4)]
    Ma, Mb = M[ta], M[tb]
    blocks[near] = 2.0 ** (2.0 * s - 2.0) * np.stack([
        np.einsum("pijabcd,piAa,piBb,piCc,pjDd->pABCD", C[:, :, :, 0],
                  Ma, Ma, Ma, Mb, optimize=True),
        np.einsum("pijabcd,piAa,pjBb,piCc,pjDd->pABCD", C[:, :, :, 1],
                  Ma, Mb, Ma, Mb, optimize=True),
        np.einsum("pijabcd,pjAa,pjBb,piCc,pjDd->pABCD", C[:, :, :, 2],
                  Mb, Mb, Ma, Mb, optimize=True),
    ], axis=1)
    return blocks


@functools.lru_cache(maxsize=8)
def _near_window_blocks(s, depth):
    """Read-only blocks of every class with ``|di|, |dj| <= NEAR_WINDOW``,
    indexed by ``(type_a, type_b, di + NEAR_WINDOW, dj + NEAR_WINDOW)``.

    The window holds every near class; its blocks do not depend on the
    mesh, so the recursion of :func:`_class_blocks` runs once per
    ``(s, depth)``.
    """
    w = range(-NEAR_WINDOW, NEAR_WINDOW + 1)
    keys = np.array([(ta, tb, di, dj) for ta in (0, 1) for tb in (0, 1)
                     for di in w for dj in w])
    blocks = _class_blocks(s, keys, depth)
    blocks = blocks.reshape((2, 2, len(w), len(w)) + blocks.shape[1:])
    blocks.flags.writeable = False
    return blocks


def kernel_inbox_2d(mesh, s, g, depth: int = MAX_DEPTH):
    """Raw double integral over box x box (no normalization factor).

    Every unordered element pair belongs to the class ``(type_a, type_b,
    di, dj)`` of its triangle types and cell offset; the reference blocks
    of all classes come from the degree-4 rule, those of the near window
    from :func:`_near_window_blocks` (``depth`` sets the refinement of
    near reference pairs), and the engine of :mod:`fractomo.assembly`
    contracts them with ``g``.
    """
    cx, cy = mesh.shape[0] - 1, mesh.shape[1] - 1
    ncells = cx * cy
    keys, pairs = [], []
    # element index = type * ncells + ix * cy + iy (see build_mesh)
    for ta, tb in ((0, 0), (0, 1), (1, 1)):
        for di in range(1 - cx, cx):
            for dj in range(1 - cy, cy):
                if ta == tb and (di, dj) < (0, 0):
                    continue  # the reversed pair is in class (-di, -dj)
                ix = np.arange(max(0, -di), min(cx, cx - di))
                iy = np.arange(max(0, -dj), min(cy, cy - dj))
                cell = (ix[:, None] * cy + iy).ravel()
                keys.append((ta, tb, di, dj))
                pairs.append((ta * ncells + cell, tb * ncells + cell + di * cy + dj))
    keys = np.array(keys)
    blocks = _class_blocks(s, keys, 0)
    inside = (np.abs(keys[:, 2:]) <= NEAR_WINDOW).all(axis=1)
    blocks[inside] = _near_window_blocks(s, depth)[
        tuple((keys[inside] + (0, 0, NEAR_WINDOW, NEAR_WINDOW)).T)]
    classes = ((b, sa, sb) for b, (sa, sb) in zip(blocks, pairs))
    return _assemble_classes(mesh.num_nodes, mesh.elements, g, classes,
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
