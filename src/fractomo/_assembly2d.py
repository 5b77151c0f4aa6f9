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
evaluated by exact sector decomposition in polar coordinates.  This 2D
path targets small desk-scale meshes; accuracy is at the percent level,
and boundary-touching tail entries additionally require ``s < 1/2``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_legendre

from .assembly import _assemble_classes, _point_pair_blocks, _triangle_rule_deg4

#: recursion depth for touching reference panels
MAX_DEPTH = 5

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


def tail_weight_2d(points, box, s, order: int = 16):
    """``omega(x) = int_{box^c} |x - y|^{-2-2s} dy`` by sector decomposition.

    For each point the plane splits into four angular sectors at the
    directions of the box corners; inside a sector the ray length to the
    boundary is analytic and the angular integral uses Gauss nodes.
    """
    pts = np.atleast_2d(points)
    (a1, a2), (b1, b2) = box.lower, box.upper
    corners = np.array([[a1, a2], [b1, a2], [b1, b2], [a1, b2]])
    xg, wg = roots_legendre(order)
    out = np.zeros(pts.shape[0])
    for k, x in enumerate(pts):
        ang = np.sort(
            np.mod(np.arctan2(corners[:, 1] - x[1], corners[:, 0] - x[0]), 2 * np.pi)
        )
        bounds = np.concatenate([ang, [ang[0] + 2 * np.pi]])
        total = 0.0
        for j in range(4):
            lo, hi = bounds[j], bounds[j + 1]
            theta = 0.5 * (hi - lo) * (xg + 1.0) + lo
            wq = 0.5 * (hi - lo) * wg
            ct, st = np.cos(theta), np.sin(theta)
            with np.errstate(divide="ignore"):
                tx = np.where(ct > 0, (b1 - x[0]) / ct,
                              np.where(ct < 0, (a1 - x[0]) / ct, np.inf))
                ty = np.where(st > 0, (b2 - x[1]) / st,
                              np.where(st < 0, (a2 - x[1]) / st, np.inf))
            rho = np.minimum(tx, ty)
            total += float(wq @ rho ** (-2.0 * s))
        out[k] = total / (2.0 * s)
    return out


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


def _graded_tail_pieces(tri, box, h, levels):
    """Split one triangle into pieces graded toward the nearby box faces."""
    (a1, a2), (b1, b2) = box.lower, box.upper
    tol = 1e-12 * max(b1 - a1, b2 - a2)
    pieces = [tri]
    faces = (
        (0, a1, True), (0, b1, False), (1, a2, True), (1, b2, False),
    )
    for axis, value, above in faces:
        dist = (tri[:, axis] - value) if above else (value - tri[:, axis])
        if dist.min() > tol:
            continue
        graded = []
        remaining = pieces
        for k in range(1, levels + 1):
            cut = value + (h * 0.5**k) * (1 if above else -1)
            far, near = _clip_axis(remaining, axis, cut, above)
            graded.extend(far)
            remaining = near
            if not remaining:
                break
        graded.extend(remaining)
        pieces = graded
    return pieces


def kernel_tail_2d(mesh, s, g, graded_levels: int = 14):
    """Per-element tail blocks ``int_T g phi_a phi_b omega`` (no C_ns) as
    ``(rows, cols, vals)``.

    The tail weight blows up like ``dist^{-2s}`` at the box boundary, so
    boundary-touching triangles are sliced into strips whose distance to
    the face halves at each level (anisotropic grading, linear piece
    count); the leftover sliver error decays like ``2^{-levels(2-2s)}``.
    """
    rows, cols, vals = [], [], []
    bary, wts = _triangle_rule_deg4()
    bary = bary.T
    coords = mesh.nodes[mesh.elements]

    for e in range(mesh.elements.shape[0]):
        tri = coords[e]
        verts = mesh.elements[e]
        tris = np.asarray(_graded_tail_pieces(tri, mesh.box, mesh.h, graded_levels))
        pts, w = _leaf_points(tris, bary, wts)
        flat = pts.reshape(-1, 2)
        lam = _barycentric(flat, tri).reshape(pts.shape[0], pts.shape[1], 3)
        om = tail_weight_2d(flat, mesh.box, s).reshape(pts.shape[0], pts.shape[1])
        ge = lam @ g[verts]
        for p in range(3):
            for qq in range(3):
                rows.append(verts[p])
                cols.append(verts[qq])
                vals.append(float((w * ge * lam[:, :, p] * lam[:, :, qq] * om).sum()))
    return np.array(rows), np.array(cols), np.array(vals)
