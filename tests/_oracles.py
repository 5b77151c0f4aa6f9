"""Independent fine-quadrature oracles used by the test suite.

The kernel-form oracle evaluates every matrix entry by a midpoint rule
on a 10x-refined grid of the double integral, completely independent of
the Duffy/Gauss panel assembly under test:

* off-diagonal refined cells use plain midpoints,
* coincident refined cells use the elementary closed form of
  ``int int (x-y)^2 |x-y|^{-n-2s}`` against the locally linear hats
  (1D) or one extra midpoint refinement sweep (2D),
* the exterior-tail factor is the analytic complement weight, with the
  cells hugging the box edge refined geometrically toward the edge so
  the weakly singular weight is resolved.

The 2D class-block reference (:func:`leaf_class_blocks`) is the
leaf-by-leaf form of the same subdivision quadrature as the class
recursion in ``fractomo._assembly2d``: it collects every leaf pair of one
reference pair with an explicit stack and contracts all leaves at once.
"""

from __future__ import annotations

import numpy as np


def hat_values_1d(mesh, points):
    """Dense matrix of all hat functions at arbitrary points (npts, N)."""
    x = mesh.coords
    h = mesh.h
    vals = 1.0 - np.abs(points[:, None] - x[None, :]) / h
    return np.maximum(vals, 0.0)


def _edge_refined_cells(lo, hi, toward, levels=40):
    """Split (lo, hi) into cells accumulating geometrically at ``toward``."""
    fracs = 0.5 ** np.arange(1, levels + 1)
    if toward == "lo":
        cuts = np.concatenate([[hi], lo + (hi - lo) * fracs, [lo]])[::-1]
    else:
        cuts = np.concatenate([[lo], hi - (hi - lo) * fracs[::-1], [hi]])
    cuts = np.unique(cuts)
    return cuts[:-1], cuts[1:]


def _overlap_moment_1d(k, delta, s):
    """``int int_{c_0 x c_k} |x - y|^{1-2s} dx dy`` for cells of width
    ``delta`` at center offset ``k*delta`` (elementary tent-overlap form)."""
    b1, b2 = 2.0 - 2.0 * s, 3.0 - 2.0 * s

    def anti1(w):  # int w^{1-2s}
        return w**b1 / b1

    def anti2(w):  # int w^{2-2s}
        return w**b2 / b2

    if k == 0:
        return 2.0 * (delta * anti1(delta) - anti2(delta))
    lo, mid, hi = (k - 1) * delta, k * delta, (k + 1) * delta
    up = (delta - mid) * (anti1(mid) - anti1(lo)) + anti2(mid) - anti2(lo)
    down = (delta + mid) * (anti1(hi) - anti1(mid)) - (anti2(hi) - anti2(mid))
    return up + down


def bruteforce_kernel_form_1d(mesh, params, sqrt_gamma=None, gamma_ext=1.0,
                              refine=10):
    """Midpoint-rule oracle for the 1D kernel form (same conventions).

    Cell pairs inside a common element see locally linear hats, so their
    integrals reduce to exact tent-overlap moments of ``|x-y|^{1-2s}``
    (with the slowly varying diffusion frozen at the cell centers);
    everything else is plain midpoint.
    """
    h = mesh.h
    N = mesh.num_nodes
    s = params.s
    C = params.C_ns
    if sqrt_gamma is None:
        sqrt_gamma = np.ones(N)
    delta = h / refine
    a_box, b_box = mesh.box.lower[0], mesh.box.upper[0]
    centers = np.arange(a_box + delta / 2.0, b_box, delta)
    P = hat_values_1d(mesh, centers)          # (npts, N)
    gamma_c = hat_values_1d(mesh, centers) @ sqrt_gamma

    cell_elem = np.clip(((centers - a_box) // h).astype(int), 0,
                        mesh.elements.shape[0] - 1)
    same_elem = cell_elem[:, None] == cell_elem[None, :]
    diff = centers[:, None] - centers[None, :]
    near_kink = (~same_elem) & (np.abs(diff) < 12.0 * delta)
    with np.errstate(divide="ignore"):
        K = np.where(same_elem | near_kink, 0.0,
                     np.abs(diff) ** (-1.0 - 2.0 * s))
    W = (gamma_c[:, None] * gamma_c[None, :]) * K * delta**2
    D = P[:, None, :] - P[None, :, :]         # (npts, npts, N)
    A = 0.5 * C * np.einsum("pqi,pqj,pq->ij", D, D, W, optimize=True)

    # cross-element cells near the hat kinks: the kernel varies too fast
    # for single midpoints, refine each such cell pair 32-fold
    sub = 32
    offs = (np.arange(sub) + 0.5) * (delta / sub) - delta / 2.0
    ii, jj = np.nonzero(near_kink)
    if ii.size:
        xs = centers[ii][:, None] + offs[None, :]
        ys = centers[jj][:, None] + offs[None, :]
        Pa = hat_values_1d(mesh, xs.ravel()).reshape(ii.size, sub, N)
        Pb = hat_values_1d(mesh, ys.ravel()).reshape(jj.size, sub, N)
        ga = Pa @ sqrt_gamma
        gb = Pb @ sqrt_gamma
        dsub = np.abs(xs[:, :, None] - ys[:, None, :])
        Ksub = dsub ** (-1.0 - 2.0 * s)
        Wsub = (ga[:, :, None] * gb[:, None, :]) * Ksub * (delta / sub) ** 2
        Dsub = Pa[:, :, None, :] - Pb[:, None, :, :]
        A += 0.5 * C * np.einsum("cpqi,cpqj,cpq->ij", Dsub, Dsub, Wsub,
                                 optimize=True)

    # same-element cell pairs: exact overlap moments against the local
    # slopes, diffusion frozen at cell centers
    slopes = np.zeros((N, mesh.elements.shape[0]))
    for e, (i0, i1) in enumerate(mesh.elements):
        slopes[i0, e] = -1.0 / h
        slopes[i1, e] = 1.0 / h
    moments = np.array([_overlap_moment_1d(k, delta, s) for k in range(refine)])
    for e in range(mesh.elements.shape[0]):
        cells = np.flatnonzero(cell_elem == e)
        si = slopes[:, e]
        gsub = gamma_c[cells]
        offs = np.abs(cells[:, None] - cells[None, :])
        wloc = float((gsub[:, None] * gsub[None, :] * moments[offs]).sum())
        A += 0.5 * C * wloc * np.outer(si, si)

    # exterior tail, the two one-sided weights handled separately: cells
    # touching the singular edge use exact power-weight moments against
    # the smooth factor frozen at cell midpoints
    cells_lo = np.arange(a_box, b_box - delta / 2.0, delta)
    cells_hi = cells_lo + delta
    for edge, sign in ((a_box, 1.0), (b_box, -1.0)):
        mids, weights = [], []
        for lo, hi in zip(cells_lo, cells_hi):
            t0, t1 = sorted((sign * (lo - edge), sign * (hi - edge)))
            if t0 < 1e-12:
                # geometric subcells with exact integral of t^{-2s}
                clo, chi = _edge_refined_cells(max(t0, 0.0), t1, "lo")
                wexact = (chi ** (1.0 - 2.0 * s) - clo ** (1.0 - 2.0 * s)) / (1.0 - 2.0 * s)
                tm = 0.5 * (clo + chi)
            elif t0 < 8.0 * delta:
                sub32 = t0 + (t1 - t0) * np.arange(33) / 32.0
                clo, chi = sub32[:-1], sub32[1:]
                tm = 0.5 * (clo + chi)
                wexact = (chi - clo) * tm ** (-2.0 * s)
            else:
                tm = np.array([0.5 * (t0 + t1)])
                wexact = (t1 - t0) * tm ** (-2.0 * s)
            mids.append(edge + sign * tm)
            weights.append(wexact)
        mids = np.concatenate(mids)
        weights = np.concatenate(weights) / (2.0 * s)
        Pt = hat_values_1d(mesh, mids)
        gt = Pt @ sqrt_gamma
        A += C * gamma_ext * np.einsum(
            "pi,pj,p->ij", Pt, Pt, gt * weights, optimize=True
        )
    return A


def bruteforce_local_form_1d(mesh, weight, refine=10):
    """Midpoint oracle for mass/potential forms; ``weight`` nodal or None."""
    h = mesh.h
    delta = h / refine
    a_box, b_box = mesh.box.lower[0], mesh.box.upper[0]
    centers = np.arange(a_box + delta / 2.0, b_box, delta)
    P = hat_values_1d(mesh, centers)
    wc = np.ones_like(centers) if weight is None else P @ weight
    return np.einsum("pi,pj,p->ij", P, P, wc * delta, optimize=True)


# ---------------------------------------------------------------------------
# 2D
# ---------------------------------------------------------------------------

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


def _collect_leaves(tri_a, tri_b, max_depth, separation):
    """Leaf pairs of the subdivision of one triangle pair: a pair is a
    leaf when its centroids are ``separation`` times the radius sum apart
    or when it sits ``max_depth`` levels down."""
    def geometry(tri):
        cen = tri.mean(axis=0)
        return cen, np.sqrt(((tri - cen) ** 2).sum(axis=1)).max()

    leaves_a, leaves_b = [], []
    stack = [(tri_a, tri_b, 0)]
    while stack:
        A, B, depth = stack.pop()
        cen_a, rad_a = geometry(A)
        cen_b, rad_b = geometry(B)
        dist = np.sqrt(((cen_a - cen_b) ** 2).sum())
        if dist >= separation * (rad_a + rad_b) or depth >= max_depth:
            leaves_a.append(A)
            leaves_b.append(B)
            continue
        childs_a = _subdivide(A)
        childs_b = _subdivide(B)
        for i in range(4):
            for j in range(4):
                stack.append((childs_a[i], childs_b[j], depth + 1))
    return np.array(leaves_a), np.array(leaves_b)


def leaf_class_blocks(s, key, max_depth, separation):
    """Blocks ``xx, xy, yy`` (3, 3, 3, 3, 3) of the reference pair ``key =
    (type_a, type_b, di, dj)`` from its leaf pairs, each integrated by the
    tensor product of the degree-4 triangle rules.

    ``xx[a, b, c, d] = int int K phi_a(x) phi_b(x) phi_c(x) phi_d(y)``,
    ``xy[a, b, c, d] = -int int K phi_a(x) phi_b(y) phi_c(x) phi_d(y)`` and
    ``yy[a, b, c, d] = int int K phi_a(y) phi_b(y) phi_c(x) phi_d(y)`` with
    ``K = |x - y|^{-2-2s}`` and ``phi`` the barycentric coordinates of the
    two unit triangles.
    """
    ref = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
           np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    ta, tb, di, dj = key
    tri_a, tri_b = ref[ta], ref[tb] + np.array([float(di), float(dj)])
    bary, wts = _triangle_rule_deg4_local()

    def points(leaves, tri):
        pts = np.einsum("qa,lav->lqv", bary, leaves)
        w = _tri_areas(leaves)[:, None] * wts[None, :]
        rel = np.linalg.solve((tri[1:] - tri[0]).T, (pts - tri[0]).reshape(-1, 2).T).T
        lam = np.column_stack([1.0 - rel.sum(axis=1), rel]).reshape(pts.shape[:2] + (3,))
        return pts, w, lam

    leaves_a, leaves_b = _collect_leaves(tri_a, tri_b, max_depth, separation)
    xp, wx, lx = points(leaves_a, tri_a)
    yp, wy, ly = points(leaves_b, tri_b)
    r2 = ((xp[:, :, None, :] - yp[:, None, :, :]) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore"):
        K = np.where(r2 > 0.0, r2 ** (-(1.0 + s)), 0.0)
    W = wx[:, :, None] * wy[:, None, :] * K
    xx = np.einsum("lij,lia,lib,lic,ljd->abcd", W, lx, lx, lx, ly, optimize=True)
    xy = -np.einsum("lij,lia,ljb,lic,ljd->abcd", W, lx, ly, lx, ly, optimize=True)
    yy = np.einsum("lij,lja,ljb,lic,ljd->abcd", W, ly, ly, lx, ly, optimize=True)
    return np.stack([xx, xy, yy])


def hat_values_2d(mesh, points):
    """Dense matrix of all P1 hats at arbitrary points (npts, N)."""
    h = mesh.h
    (a1, a2) = mesh.box.lower
    nx, ny = mesh.shape
    pts = np.atleast_2d(points)
    vals = np.zeros((pts.shape[0], mesh.num_nodes))
    fx = (pts[:, 0] - a1) / h
    fy = (pts[:, 1] - a2) / h
    ix = np.clip(fx.astype(int), 0, nx - 2)
    iy = np.clip(fy.astype(int), 0, ny - 2)
    lx = fx - ix
    ly = fy - iy
    # cell split along the main diagonal: lower triangle lx >= ly
    lower = lx >= ly
    lam = np.zeros((pts.shape[0], 3))
    vids = np.zeros((pts.shape[0], 3), dtype=int)
    base = ix * ny + iy
    # lower triangle vertices (ix,iy), (ix+1,iy), (ix+1,iy+1)
    lam_lower = np.stack([1.0 - lx, lx - ly, ly], axis=1)
    vid_lower = np.stack([base, base + ny, base + ny + 1], axis=1)
    # upper triangle vertices (ix,iy), (ix+1,iy+1), (ix,iy+1)
    lam_upper = np.stack([1.0 - ly, lx, ly - lx], axis=1)
    vid_upper = np.stack([base, base + ny + 1, base + 1], axis=1)
    lam = np.where(lower[:, None], lam_lower, lam_upper)
    vids = np.where(lower[:, None], vid_lower, vid_upper)
    np.put_along_axis(
        vals, vids, np.take_along_axis(vals, vids, axis=1) + lam, axis=1
    )
    return vals


def bruteforce_kernel_form_2d(mesh, params, sqrt_gamma=None, gamma_ext=1.0,
                              refine=10):
    """Midpoint-rule oracle for the 2D kernel form.

    Touching refined cells get one extra midpoint sweep (5x5) with the
    coincident sub-pairs dropped; tail cells hugging the box edge are
    refined geometrically toward the edge along the normal direction.
    """
    h = mesh.h
    N = mesh.num_nodes
    s = params.s
    C = params.C_ns
    if sqrt_gamma is None:
        sqrt_gamma = np.ones(N)
    delta = h / refine
    (a1, a2), (b1, b2) = mesh.box.lower, mesh.box.upper
    cx = np.arange(a1 + delta / 2.0, b1, delta)
    cy = np.arange(a2 + delta / 2.0, b2, delta)
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    centers = np.column_stack([X.ravel(), Y.ravel()])
    P = hat_values_2d(mesh, centers)
    gc = P @ sqrt_gamma
    diff = centers[:, None, :] - centers[None, :, :]
    r2 = (diff**2).sum(axis=-1)
    near = r2 < (2.5 * delta) ** 2
    with np.errstate(divide="ignore"):
        K = np.where(~near, r2 ** (-(1.0 + s)), 0.0)
    W = (gc[:, None] * gc[None, :]) * K * delta**4
    D = P[:, None, :] - P[None, :, :]
    A = 0.5 * C * np.einsum("pqi,pqj,pq->ij", D, D, W, optimize=True)

    # near pairs: one extra 5x5 midpoint sweep per cell, coincident
    # sub-pairs dropped (their contribution is O(sub^{4-2s}))
    sub = 5
    dsub = delta / sub
    off = (np.arange(sub) + 0.5) * dsub - delta / 2.0
    OX, OY = np.meshgrid(off, off, indexing="ij")
    offsets = np.column_stack([OX.ravel(), OY.ravel()])
    ii, jj = np.nonzero(near)
    for lo in range(0, ii.size, 512):
        pa = centers[ii[lo:lo + 512]]
        pb = centers[jj[lo:lo + 512]]
        xa = pa[:, None, :] + offsets[None, :, :]
        yb = pb[:, None, :] + offsets[None, :, :]
        Pa = hat_values_2d(mesh, xa.reshape(-1, 2)).reshape(len(pa), sub * sub, N)
        Pb = hat_values_2d(mesh, yb.reshape(-1, 2)).reshape(len(pb), sub * sub, N)
        ga = Pa @ sqrt_gamma
        gb = Pb @ sqrt_gamma
        d2 = ((xa[:, :, None, :] - yb[:, None, :, :]) ** 2).sum(axis=-1)
        with np.errstate(divide="ignore"):
            Ksub = np.where(d2 > 0.0, d2 ** (-(1.0 + s)), 0.0)
        Wsub = (ga[:, :, None] * gb[:, None, :]) * Ksub * dsub**4
        Dsub = Pa[:, :, None, :] - Pb[:, None, :, :]
        A += 0.5 * C * np.einsum("cpqi,cpqj,cpq->ij", Dsub, Dsub, Wsub,
                                 optimize=True)

    A += C * gamma_ext * bruteforce_tail_2d(mesh, s, sqrt_gamma)
    return A


def halfplane_constant(s):
    """``int_{halfplane at distance d} |z|^{-2-2s} dz = C_H d^{-2s}``."""
    from scipy.special import gamma as G

    return float(np.sqrt(np.pi) * G(s + 0.5) / (2.0 * s * G(s + 1.0)))


def corner_profile(s, n_theta=48):
    """``Q(a, b) = r^{-2s} S(theta)``: angular profile of the quadrant
    integral ``int_{u>a, w>b} |z|^{-2-2s} dz`` on a Gauss-backed grid."""
    from scipy.special import roots_legendre as _rl

    xg, wg = _rl(32)
    thetas = np.linspace(1e-9, np.pi / 2 - 1e-9, n_theta)
    vals = np.zeros(n_theta)
    for k, th in enumerate(thetas):
        # int_0^th (sin(phi)/sin(th))^{2s} + int_th^{pi/2} (cos(phi)/cos(th))^{2s}
        p1 = 0.5 * th * (xg + 1.0)
        w1 = 0.5 * th * wg
        p2 = th + 0.5 * (np.pi / 2 - th) * (xg + 1.0)
        w2 = 0.5 * (np.pi / 2 - th) * wg
        i1 = w1 @ (np.sin(p1) / np.sin(th)) ** (2.0 * s)
        i2 = w2 @ (np.cos(p2) / np.cos(th)) ** (2.0 * s)
        vals[k] = (i1 + i2) / (2.0 * s)
    fine_t = np.linspace(0.0, np.pi / 2, 2049)
    fine_v = np.interp(fine_t, thetas, vals)
    return fine_t, fine_v


def _corner_Q(pts, corner, sx, sy, s, profile):
    """Quadrant integral values at points; (sx, sy) orient the quadrant."""
    a = sx * (pts[:, 0] - corner[0])
    b = sy * (pts[:, 1] - corner[1])
    r = np.sqrt(a**2 + b**2)
    th = np.arctan2(np.maximum(b, 0.0), np.maximum(a, 0.0))
    S = np.interp(th, profile[0], profile[1])
    return r ** (-2.0 * s) * S


def _segment_at(tri, axis, value):
    """Cross-section interval of a triangle at a fixed coordinate."""
    pts = []
    for k in range(3):
        p0, p1 = tri[k], tri[(k + 1) % 3]
        d0, d1 = p0[axis] - value, p1[axis] - value
        if abs(d1 - d0) < 1e-14:
            if abs(d0) < 1e-12:
                pts.extend([p0[1 - axis], p1[1 - axis]])
            continue
        t = d0 / (d0 - d1)
        if -1e-12 <= t <= 1 + 1e-12:
            pts.append(p0[1 - axis] + t * (p1[1 - axis] - p0[1 - axis]))
    return (min(pts), max(pts)) if pts else (0.0, 0.0)


def bruteforce_tail_2d(mesh, s, sqrt_gamma):
    """Independent 2D tail oracle via the faces-minus-corners identity

    ``omega(x) = C_H sum_faces d_f^{-2s} - sum_corners Q(d_cx, d_cy)``.

    Face terms integrate exactly in the singular coordinate (geometric
    ladders with exact power moments) times Gauss cross-sections; corner
    terms use polar Gauss--Jacobi rules on corner-vertex triangles and
    subdivided triangle rules elsewhere.
    """
    from scipy.special import roots_jacobi as _rj, roots_legendre as _rl

    N = mesh.num_nodes
    tail = np.zeros((N, N))
    C_H = halfplane_constant(s)
    profile = corner_profile(s)
    (a1, a2), (b1, b2) = mesh.box.lower, mesh.box.upper
    tol = 1e-12 * max(b1 - a1, b2 - a2)
    xg6, wg6 = _rl(6)
    xg12, wg12 = _rl(12)
    xj, wj = _rj(6, 0.0, 1.0 - 2.0 * s)
    xj8, wj8 = _rj(8, 0.0, -2.0 * s)
    bary, wts = _triangle_rule_deg4_local()

    def accumulate(verts, pts, w):
        lam = hat_values_2d(mesh, pts)
        ge = lam @ sqrt_gamma
        cols = lam[:, verts]
        loc = np.einsum("pa,pb,p->ab", cols, cols, ge * w, optimize=True)
        tail[np.ix_(verts, verts)] += loc

    faces = ((0, a1, 1.0), (0, b1, -1.0), (1, a2, 1.0), (1, b2, -1.0))
    corners = (
        ((a1, a2), 1.0, 1.0), ((b1, a2), -1.0, 1.0),
        ((a1, b2), 1.0, -1.0), ((b1, b2), -1.0, -1.0),
    )
    coords = mesh.nodes[mesh.elements]
    for e in range(mesh.elements.shape[0]):
        tri = coords[e]
        verts = mesh.elements[e]
        # --- face terms: split at vertex coordinates so the cross-section
        # integral is polynomial per piece, then Jacobi (singular piece)
        # or Gauss (regular pieces) in the normal coordinate
        for axis, edge, sign in faces:
            tv = np.sort(np.maximum(sign * (tri[:, axis] - edge), 0.0))
            pieces = [
                (float(tv[k]), float(tv[k + 1]))
                for k in range(2)
                if tv[k + 1] - tv[k] > tol
            ]
            tm_all, wt_all = [], []
            for ta, tb in pieces:
                if ta < tol:
                    tm = 0.5 * tb * (xj8 + 1.0)
                    wt = wj8 * (0.5 * tb) ** (1.0 - 2.0 * s)
                else:
                    tm = ta + 0.5 * (tb - ta) * (xg6 + 1.0)
                    wt = 0.5 * (tb - ta) * wg6 * tm ** (-2.0 * s)
                tm_all.append(tm)
                wt_all.append(wt)
            if not tm_all:
                continue
            tm = np.concatenate(tm_all)
            wt = np.concatenate(wt_all)
            pts_list, w_list = [], []
            for tmid, wmid in zip(tm, wt):
                coord = edge + sign * tmid
                lo, hi = _segment_at(tri, axis, coord)
                if hi - lo < 1e-14:
                    continue
                inner = lo + 0.5 * (hi - lo) * (xg6 + 1.0)
                win = 0.5 * (hi - lo) * wg6
                p = np.empty((6, 2))
                p[:, axis] = coord
                p[:, 1 - axis] = inner
                pts_list.append(p)
                w_list.append(C_H * wmid * win)
            if pts_list:
                accumulate(verts, np.vstack(pts_list), np.concatenate(w_list))
        # --- corner terms (subtracted)
        for corner, sx, sy in corners:
            cpt = np.asarray(corner)
            dv = np.sqrt(((tri - cpt[None, :]) ** 2).sum(axis=1))
            at_corner = np.flatnonzero(dv < tol)
            if at_corner.size:
                # polar Gauss--Jacobi around the corner vertex
                v = tri[at_corner[0]]
                others = tri[[k for k in range(3) if k != at_corner[0]]]
                d1 = others[0] - v
                d2 = others[1] - v
                th1 = np.arctan2(sy * d1[1], sx * d1[0])
                th2 = np.arctan2(sy * d2[1], sx * d2[0])
                tlo, thi = min(th1, th2), max(th1, th2)
                thetas = tlo + 0.5 * (thi - tlo) * (xg12 + 1.0)
                wth = 0.5 * (thi - tlo) * wg12
                # opposite edge: line through the two other vertices
                nvec = np.array([-(others[1] - others[0])[1],
                                 (others[1] - others[0])[0]])
                cval = nvec @ (others[0] - v)
                dirs = np.stack([sx * np.cos(thetas), sy * np.sin(thetas)], axis=1)
                R = cval / (dirs @ nvec)
                Sv = np.interp(thetas, profile[0], profile[1])
                pts_list, w_list = [], []
                for Rk, dk, wk, Sk in zip(R, dirs, wth, Sv):
                    r = 0.5 * Rk * (xj + 1.0)
                    wr = wj * (0.5 * Rk) ** (2.0 - 2.0 * s)
                    pts_list.append(v[None, :] + r[:, None] * dk[None, :])
                    w_list.append(-wk * Sk * wr)
                accumulate(verts, np.vstack(pts_list), np.concatenate(w_list))
            else:
                # Q is smooth here: subdivided degree-4 rule
                tris = _subdivide(_subdivide(tri)).reshape(-1, 3, 2)
                pts = np.einsum("qa,lav->lqv", bary, tris)
                ar = _tri_areas(tris)
                w = (ar[:, None] * wts[None, :]).ravel()
                flat = pts.reshape(-1, 2)
                Qv = _corner_Q(flat, cpt, sx, sy, s, profile)
                accumulate(verts, flat, -w * Qv)
    return tail


def _triangle_rule_deg4_local():
    from fractomo.assembly import _triangle_rule_deg4

    b, w = _triangle_rule_deg4()
    return b.T, w


def _tri_areas(tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    return 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )


def adaptive_tail_block(mesh, element, s, sqrt_gamma, pairs=None, rtol=1e-9):
    """Local tail entries ``int_T g_h phi_a phi_b omega`` of one element for
    the local vertex pairs ``(a, b)`` (default: ``a <= b`` in
    ``np.triu_indices(3)`` order), by adaptive quadrature of the
    closed-form ``omega`` over the element's Duffy square.

    The square is the map ``x = v0 + rho (e1 + u (e2 - e1))`` about the
    element's first vertex.  The outer integral over ``rho`` is adaptive
    (``quad_vec``, all entries at once); the inner one over ``u`` is a
    tanh-sinh rule evaluated as one vector, whose nodes cluster doubly
    exponentially at both ends, down to 1e-150 from u = 0.  A face the
    element touches should lie on a coordinate line ``x_i = 0``, so that
    the distance to it keeps full relative precision that close.
    """
    from scipy.integrate import quad_vec
    from fractomo._assembly2d import tail_weight_2d

    tri = mesh.nodes[mesh.elements[element]]
    v, e1, e2 = tri[0], tri[1] - tri[0], tri[2] - tri[0]
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    T = np.array([[1.0, 1.0, 1.0], tri[:, 0], tri[:, 1]])
    ge = sqrt_gamma[mesh.elements[element]]
    a, b = np.triu_indices(3) if pairs is None else np.asarray(pairs).T
    t = np.linspace(-6.5, 6.5, 131)
    sh = 0.5 * np.pi * np.sinh(t)
    with np.errstate(over="ignore"):
        u = 1.0 / (1.0 + np.exp(-2.0 * sh))
        wu = (t[1] - t[0]) * 0.25 * np.pi * np.cosh(t) / np.cosh(sh) ** 2
    # nodes closer than 1e-150 to u = 0 would overflow d^{-2s} for s > 1/2
    keep = (u > 1e-150) & (u < 1.0)
    u, wu = u[keep], wu[keep]

    def inner(rho):
        x = v + rho * (e1 + u[:, None] * (e2 - e1))
        lam = np.linalg.solve(T, np.vstack([np.ones(len(u)), x.T])).T
        dens = wu * tail_weight_2d(x, mesh.box, s) * (lam @ ge)
        return rho * jac * (dens @ (lam[:, a] * lam[:, b]))

    return quad_vec(inner, 0.0, 1.0, epsabs=0.0, epsrel=rtol)[0]


def tail_matrix_2d(mesh, s, sqrt_gamma, q_sing):
    """The 2D exterior tail ``int g phi_a phi_b omega`` (no C_ns) as a dense
    matrix, from the groups of ``kernel_tail_2d``."""
    from fractomo._assembly2d import kernel_tail_2d
    from fractomo.assembly import _add_local_mass

    T = np.zeros((mesh.num_nodes, mesh.num_nodes))
    for elements, w, lam in kernel_tail_2d(mesh, s, sqrt_gamma, q_sing):
        _add_local_mass(T, elements, w, lam)
    return T
