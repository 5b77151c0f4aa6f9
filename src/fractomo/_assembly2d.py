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
local-mass routine as the mass and potential forms.  On an element that
touches the box boundary, ``omega`` is split into the ``d^{-2s}`` part
of each face it touches, the parts homogeneous about a box corner at one
of its vertices, and a smooth rest; each part gets a Duffy-type
Gauss--Jacobi rule exact for its singular factor (cf. Sauter & Schwab,
*Boundary Element Methods*, 2011, ch. 5), so the tail entries converge
geometrically with the order.  For ``s >= 1/2`` the entries between two
hats on one box face are infinite and are cut off next to the face.
This 2D path targets small desk-scale meshes; the in-box near pairs are
accurate at the percent level.
"""

from __future__ import annotations

import collections
import functools

import numpy as np
from scipy.special import beta, betainc, roots_jacobi, roots_legendre

from .assembly import _assemble_classes, _point_pair_blocks, _triangle_rule_deg4

#: recursion depth for touching reference panels
MAX_DEPTH = 5

#: separation multiple: pairs beyond this times the radius sum are leaves
SEPARATION = 1.5

#: every class closer than SEPARATION times the radius sum has |di|, |dj|
#: <= this (its centroids are less than sqrt(5) apart)
NEAR_WINDOW = 2

#: relative width of the strip along a box face that the tail entries
#: between two hats on that face leave out for ``s >= 1/2``, where they
#: are infinite; only box-boundary rows and columns hold them, and the DN
#: map and the Poincare constant read none of these
FACE_CUTOFF = 2.0 ** -14

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


def _face_coords(points, box):
    """Normal distances ``d`` (P, 4) of points to the faces x0 = lo0,
    x1 = lo1, x0 = hi0, x1 = hi1 and the tangential offsets ``t_lo <= 0 <=
    t_hi`` of the two corners of each face."""
    x = np.atleast_2d(points)
    lo, hi = np.asarray(box.lower, float), np.asarray(box.upper, float)
    d = np.concatenate([x - lo, hi - x], axis=1)
    t_lo = np.tile(lo[::-1] - x[:, ::-1], 2)
    t_hi = np.tile(hi[::-1] - x[:, ::-1], 2)
    return d, t_lo, t_hi


def tail_weight_2d(points, box, s, faces=None, corners=None):
    """``omega(x) = int_{box^c} |x - y|^{-2-2s} dy`` in closed form, for
    points in the box, or selected terms of it.

    In polar coordinates about ``x``, ``omega = int rho(theta)^{-2s} /
    (2s) dtheta`` with ``rho`` the distance to the box boundary along the
    ray.  The rays through one face, at normal distance ``d`` with its
    corners at tangential offsets ``t_lo <= 0 <= t_hi``, give ``d^{-2s}
    [F(t_hi/d) - F(t_lo/d)]`` with ``F(tau) = int_0^{atan tau} cos^{2s} =
    sign(tau) B(1/2, s+1/2)/2 [1 - J(|tau|)]``, where ``J(tau) = I(s+1/2,
    1/2; 1/(1+tau^2))`` and ``I`` is the regularized incomplete beta
    function.  So face ``f`` contributes ``C d^{-2s} [2 - J(t_hi/d) -
    J(|t_lo|/d)]`` with ``C = B(1/2, s+1/2) / (4s)``.

    The result is ``C sum_f d^{-2s} sum_e (faces[f] - corners[f, e]
    J_e)``: ``faces`` (4,) selects the terms ``2 C d^{-2s}`` and
    ``corners`` (4, 2) the terms ``-C d^{-2s} J`` of the ends ``(t_lo,
    t_hi)``; by default all of them, which is ``omega``.
    """
    if faces is None:
        faces, corners = np.ones(4, bool), np.ones((4, 2), bool)
    d, t_lo, t_hi = _face_coords(points, box)
    f, e = np.nonzero(corners)
    t2 = np.stack([t_lo, t_hi], axis=-1)[:, f, e] ** 2
    d2 = d[:, f] ** 2
    # the argument of I stays at most 1/2, where it has full accuracy:
    # I(s+1/2, 1/2; x) = 1 - I(1/2, s+1/2; 1-x)
    wide = t2 > d2
    I = betainc(np.where(wide, s + 0.5, 0.5), np.where(wide, 0.5, s + 0.5),
                np.minimum(t2, d2) / (t2 + d2))
    # an end with both terms takes 1 - J as accurate as J itself
    ends = np.where(faces[f], np.where(wide, 1.0 - I, I),
                    np.where(wide, -I, I - 1.0))
    val = faces * (2.0 - corners.sum(axis=1)) + ends @ np.eye(4)[f]
    return beta(0.5, s + 0.5) / (4.0 * s) * (d ** (-2.0 * s) * val).sum(axis=1)


def _edge_constant(s):
    """``int_0^1 rho (1 - rho)^{-2s} drho``.  For ``s >= 1/2`` the integral
    diverges, and it stops at ``1 - FACE_CUTOFF``."""
    a = 1.0 - 2.0 * s
    if a > 0.0:
        return 1.0 / (a * (1.0 + a))
    # int_c^1 (t^{-2s} - t^{1-2s}) dt with c = FACE_CUTOFF
    ln = np.log(FACE_CUTOFF)
    head = -ln if a == 0.0 else -np.expm1(a * ln) / a
    return head + np.expm1((1.0 + a) * ln) / (1.0 + a)


def _duffy_rules(s, n):
    """The 1D rules of the Duffy square, all on [0, 1], for ``int_0^1 rho
    f`` (smooth part), ``int_0^1 rho^{1-2s} f`` (vertex part) and
    ``int_0^1 rho (1 - rho)^{-2s} f`` (edge part), each exact for
    polynomial ``f`` of degree below ``2n``, and Gauss--Legendre in the
    angle variable ``u``.

    The first two are Gauss--Jacobi with ``rho^{-2s}`` divided back out of
    the vertex weights, which multiply a part of ``omega`` evaluated at
    the points.  The edge rule writes ``f = f(1) + (1 - rho) q``: ``q``
    gets Gauss--Jacobi with the weight ``rho (1 - rho)^{1-2s}``, and the
    point ``rho = 1`` carries ``f(1)`` times the integral of the weight,
    minus the other points' share.  Only ``f(1)`` meets the non-integrable
    weight when ``s >= 1/2`` (see :func:`_edge_constant`).
    """
    def jacobi(a, b):
        r, w = roots_jacobi(n, a, b)
        return 0.5 * (r + 1.0), w * 0.5 ** (1.0 + a + b)

    smooth = jacobi(0.0, 1.0)
    rho, w = jacobi(0.0, 1.0 - 2.0 * s)
    vertex = rho, w * rho ** (2.0 * s)
    rho, w = jacobi(1.0 - 2.0 * s, 1.0)
    w = w / (1.0 - rho)
    edge = np.append(rho, 1.0), np.append(w, _edge_constant(s) - w.sum())
    u, wu = roots_legendre(n)
    return {"smooth": smooth, "vertex": vertex, "edge": edge}, (0.5 * (u + 1.0), 0.5 * wu)


def _duffy_points(tri, k, radial, angular):
    """Points (n_rho * n_u, 2) and weights of ``int_tri f`` under the Duffy
    map ``x = v + rho (e1 + u (e2 - e1))`` about vertex ``k``, whose
    Jacobian is ``rho |det(e1, e2)|`` (the radial rule carries ``rho``)."""
    (rho, wr), (u, wu) = radial, angular
    v = tri[k]
    e1, e2 = tri[(k + 1) % 3] - v, tri[(k + 2) % 3] - v
    pts = v + rho[:, None, None] * (e1 + u[:, None] * (e2 - e1))
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    return pts.reshape(-1, 2), (jac * wr[:, None] * wu).ravel()


def _tail_rules(tri, on, box, s, radial, angular):
    """Rules of one element that touches the box boundary; ``on`` (3, 4)
    flags its vertices on each face.

    ``omega`` is split into the terms of :func:`tail_weight_2d`.  On a face
    the element touches, ``2 C d^{-2s}`` is exact under the rule collapsed
    about the vertex on the face (``d`` is ``rho`` times a positive smooth
    factor: vertex rule) or about the vertex ``k`` opposite the edge on
    the face (``d`` is ``d_k (1 - rho)``: edge rule).  A term ``-C d^{-2s}
    J`` whose box corner is vertex ``k`` is homogeneous of degree ``-2s``
    about ``k`` and joins the vertex rule about ``k``.  The rest of
    ``omega`` is smooth on the element.

    Returns the points, weights and ``(faces, corners)`` selection of the
    rest, whose ``omega`` depends on the element, and the points and
    weights of the singular terms with their ``omega`` multiplied in;
    these are the same for every translate along the touched faces.
    """
    faces = on.any(axis=0)
    corners = np.zeros((4, 2), dtype=bool)
    vertex = collections.defaultdict(lambda: (np.zeros(4, bool), np.zeros((4, 2), bool)))
    pts, wts = [], []
    for f in np.flatnonzero(faces):
        verts = np.flatnonzero(on[:, f])
        if verts.size == 1:
            vertex[verts[0]][0][f] = True
        else:
            k = 3 - verts.sum()
            p, w = _duffy_points(tri, k, radial["edge"], angular)
            d_k = _face_coords(tri[k], box)[0][0, f]
            pts.append(p)
            wts.append(w * beta(0.5, s + 0.5) / (2.0 * s) * d_k ** (-2.0 * s))
        # the ends t_lo, t_hi of face f lie on faces 1 - f % 2, 3 - f % 2
        for e in (0, 1):
            for k in np.flatnonzero(on[:, f] & on[:, 1 - f % 2 + 2 * e]):
                corners[f, e] = True
                vertex[k][1][f, e] = True
    for k, (fc, cc) in vertex.items():
        p, w = _duffy_points(tri, k, radial["vertex"], angular)
        pts.append(p)
        wts.append(w * tail_weight_2d(p, box, s, fc, cc))
    rest = _duffy_points(tri, 0, radial["smooth"], angular) + (~faces, ~corners)
    return rest, (np.concatenate(pts), np.concatenate(wts))


def kernel_tail_2d(mesh, s, g, q_sing):
    """Tail quadrature of ``int_T g phi_a phi_b omega`` (no C_ns) as a list
    of ``(elements, weights, shapes)`` groups for the local-mass routine
    of :mod:`fractomo.assembly`.

    An element that touches no box face gets the degree-4 rule.  On an
    element that touches one, ``omega`` blows up like ``d^{-2s}``; it is
    split into terms (see :func:`_tail_rules`), each integrated by a
    Duffy--Jacobi rule with ``q_sing + 4`` points per direction that is
    exact for its singular factor, so the entries converge geometrically
    in ``q_sing``.  For ``s >= 1/2`` the entries between two hats on one
    face are infinite; they stop at a strip of relative width
    ``FACE_CUTOFF`` along the face, and all other entries stay exact.
    The elements of one triangle type that touch the same box faces are
    translates of each other along those faces, so one representative's
    rules serve the whole group: translation keeps the barycentric
    coordinates of the points, and only the smooth rest of ``omega`` is
    evaluated per element.
    """
    coords = mesh.nodes[mesh.elements]
    lo, hi = np.asarray(mesh.box.lower), np.asarray(mesh.box.upper)
    d = _face_coords(coords.reshape(-1, 2), mesh.box)[0].reshape(-1, 3, 4)
    on = d <= 1e-12 * (hi - lo).max()
    # element index = type * ncells + cell (see build_mesh)
    ncells = (mesh.shape[0] - 1) * (mesh.shape[1] - 1)
    key = np.arange(len(coords)) // ncells * 16 + on.any(axis=1) @ (1, 2, 4, 8)
    bary, wts = _triangle_rule_deg4()
    radial, angular = _duffy_rules(s, q_sing + 4)
    groups = []
    for k in np.unique(key):
        elems = np.flatnonzero(key == k)
        tri = coords[elems[0]]
        if on[elems[0]].any():
            (pts, w, faces, corners), (sp, sw) = _tail_rules(
                tri, on[elems[0]], mesh.box, s, radial, angular)
        else:
            pts, w = (a[0] for a in _leaf_points(tri[None], bary.T, wts))
            faces = corners = None
            sp, sw = np.zeros((0, 2)), np.zeros(0)
        shifted = pts + (coords[elems, 0] - tri[0])[:, None]
        om = tail_weight_2d(shifted.reshape(-1, 2), mesh.box, s, faces, corners)
        w = np.concatenate([w * om.reshape(elems.size, -1),
                            np.broadcast_to(sw, (elems.size, sw.size))], axis=1)
        lam = _barycentric(np.concatenate([pts, sp]), tri)
        verts = mesh.elements[elems]
        groups.append((verts, w * (g[verts] @ lam.T), lam))
    return groups
