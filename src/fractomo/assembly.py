"""Galerkin assembly of the nonlocal bilinear forms on nodal P1 bases.

Every form is a dense symmetric matrix over the full nodal basis of the
mesh; nodal functions are extended by zero outside the computational box.
The kernel-type forms (Gagliardo energy and weighted-diffusion energy)
come from one engine (:func:`_assemble_classes`).  On the uniform mesh
every element pair is a translate of a reference pair: its class is the
offset ``d`` in 1D and ``(type_a, type_b, di, dj)`` in 2D.  The P1
diffusion weight enters bilinearly through its vertex values, so a class
reduces to vertex-resolved reference blocks, integrated once on unit
elements, scaled by ``h^{n-2s}``, contracted with the diffusion and
scattered over all pairs of the class.  The blocks come from

* Duffy-type transformations with Gauss--Jacobi rules for identical and
  node-sharing 1D pairs, which integrate the weakly singular factor
  exactly against the polynomial part,
* tensor Gauss rules for separated 1D pairs,
* degree-4 triangle-pair rules for 2D pairs, near pairs refined by a
  batched recursion over their child classes (see ``_assembly2d``).

The contribution of the box complement (where nodal functions vanish
and the diffusion equals its constant exterior value) is the weighted
local mass ``int g phi_a phi_b omega`` with the complement weight
``omega(x) = int_{box^c} |x - y|^{-n-2s} dy``, known in closed form in
1D and 2D.  One routine (:func:`_add_local_mass`) assembles it, the mass
matrix and the potential form from per-element quadrature weights.

The adopted energy convention is ``u^T A u = ||(-Delta)^{s/2} u||_L2^2``,
i.e. the assembled Gagliardo form carries the factor ``C_ns / 2`` in
front of the double integral.

Forms remember their exterior-tail row sums (``tail_row``): the coupling
of each hat with a unit constant on the box complement.  By construction
``sum_j entries[i, j] == tail_row[i]`` up to round-off, which makes
globally constant functions exact kernel elements of the diffusion form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, roots_jacobi, roots_legendre

from .errors import NonPositiveGamma, QuadratureFailure
from .mesh import Mesh


def normalization_constant(n: int, s: float) -> float:
    """Normalization constant of the singular-integral fractional Laplacian.

    Uses the standard choice ``4^s Gamma(n/2 + s) / (pi^{n/2} |Gamma(-s)|)``
    which makes the singular integral agree with the Fourier symbol
    ``|xi|^{2s}``.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"order s={s} outside (0, 1)")
    return float(
        4.0**s * gamma_fn(n / 2.0 + s) / (np.pi ** (n / 2.0) * abs(gamma_fn(-s)))
    )


@dataclass(frozen=True)
class KernelParams:
    """Dimension, fractional order and kernel normalization.

    ``C_ns`` defaults to :func:`normalization_constant`; it may be
    overridden from the configuration to experiment with other
    conventions.  Orders must satisfy ``0 < s < min(1, n/2)``.
    """

    n: int
    s: float
    C_ns: float = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not 0.0 < self.s < min(1.0, self.n / 2.0):
            raise ValueError(
                f"order s={self.s} outside (0, min(1, n/2)) for n={self.n}"
            )
        if self.C_ns is None:
            object.__setattr__(self, "C_ns", normalization_constant(self.n, self.s))
        if not self.C_ns > 0:
            raise ValueError("C_ns must be positive")


@dataclass(frozen=True)
class Coefficients:
    """Nodal diffusion and absorption data.

    Attributes
    ----------
    gamma : ndarray
        Nodal diffusion values, bounded below by ``gamma0 > 0``.
    q : ndarray
        Nodal absorption (potential) values.
    m_gamma : ndarray
        Background deviation ``sqrt(gamma) - 1``, kept exactly consistent
        with ``gamma``.
    gamma0 : float
        Uniform ellipticity lower bound.
    gamma_exterior : float
        Constant diffusion value on the box complement (1 unless a
        globally rescaled problem is set up).
    """

    gamma: np.ndarray
    q: np.ndarray
    m_gamma: np.ndarray
    gamma0: float
    gamma_exterior: float = 1.0

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        q = np.asarray(self.q, dtype=float)
        m = np.asarray(self.m_gamma, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m_gamma", m)
        if not self.gamma0 > 0:
            raise NonPositiveGamma(f"gamma0={self.gamma0} is not positive")
        if gamma.min() < self.gamma0 - 1e-14:
            raise NonPositiveGamma(
                f"gamma dips to {gamma.min()} below gamma0={self.gamma0}"
            )
        if self.gamma_exterior <= 0:
            raise NonPositiveGamma("exterior diffusion value must be positive")
        if not np.array_equal(np.sqrt(gamma) - 1.0, m):
            raise ValueError("m_gamma must equal sqrt(gamma) - 1 exactly")
        if not (np.isfinite(gamma).all() and np.isfinite(q).all()):
            raise ValueError("coefficients must be finite")

    @classmethod
    def from_arrays(cls, gamma, q=None, gamma0=None, gamma_exterior=1.0):
        """Build validated coefficients; ``m_gamma`` is derived."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.size and gamma.min() <= 0.0:
            raise NonPositiveGamma(f"gamma attains {gamma.min()} <= 0")
        if q is None:
            q = np.zeros_like(gamma)
        if gamma0 is None:
            gamma0 = float(gamma.min())
        return cls(
            gamma=gamma,
            q=np.asarray(q, dtype=float),
            m_gamma=np.sqrt(gamma) - 1.0,
            gamma0=float(gamma0),
            gamma_exterior=float(gamma_exterior),
        )

    @classmethod
    def background(cls, mesh: Mesh):
        """Unit diffusion, zero absorption."""
        return cls.from_arrays(np.ones(mesh.num_nodes), np.zeros(mesh.num_nodes))

    def with_q(self, q: np.ndarray) -> "Coefficients":
        return Coefficients(
            self.gamma, np.asarray(q, dtype=float), self.m_gamma,
            self.gamma0, self.gamma_exterior,
        )


@dataclass
class SymForm:
    """Dense symmetric bilinear form over the nodal basis."""

    dim: int
    entries: np.ndarray
    tail_row: np.ndarray = None

    def __post_init__(self):
        if self.tail_row is None:
            self.tail_row = np.zeros(self.dim)

    def __add__(self, other: "SymForm") -> "SymForm":
        if self.dim != other.dim:
            raise ValueError("form dimensions differ")
        return SymForm(
            self.dim,
            self.entries + other.entries,
            self.tail_row + other.tail_row,
        )

    def __mul__(self, scalar: float) -> "SymForm":
        return SymForm(self.dim, self.entries * scalar, self.tail_row * scalar)

    __rmul__ = __mul__

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.entries @ u

    def pair(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ (self.entries @ v))

    def energy(self, u: np.ndarray, far_field: float = 0.0) -> float:
        """``B(u + c 1_ext, u + c 1_ext)`` for far-field constant ``c``."""
        e = float(u @ (self.entries @ u))
        if far_field != 0.0:
            e -= 2.0 * far_field * float(self.tail_row @ u)
            e += far_field**2 * float(self.tail_row.sum())
        return e

    def symmetry_defect(self) -> float:
        scale = np.abs(self.entries).max()
        if scale == 0.0:
            return 0.0
        return float(np.abs(self.entries - self.entries.T).max() / scale)


# ---------------------------------------------------------------------------
# local (mass / potential / exterior-tail) forms
# ---------------------------------------------------------------------------

def _add_local_mass(A, elements, w, lam):
    """Add ``int rho phi_a phi_b`` over every element into ``A`` in place.

    ``w`` (E, P) holds each element's quadrature weights with the density
    ``rho`` folded in; ``lam`` (P, nv) or (E, P, nv) holds the P1 shape
    values at the points.  Only the local entries ``a <= b`` are
    contracted; each off-diagonal one is added at ``(r, c)`` and at
    ``(c, r)``, which keeps ``A`` exactly symmetric.  Returns the row sums
    of what was added.
    """
    a, b = np.triu_indices(elements.shape[1])
    local = (w[..., None] * (lam[..., a] * lam[..., b])).sum(axis=-2)
    off = a != b
    rows = np.concatenate([elements[:, a], elements[:, b[off]]], axis=1).ravel()
    cols = np.concatenate([elements[:, b], elements[:, a[off]]], axis=1).ravel()
    vals = np.concatenate([local, local[:, off]], axis=1).ravel()
    np.add.at(A, (rows, cols), vals)
    return np.bincount(rows, vals, A.shape[0])


def _shapes_1d(t):
    """P1 shape values (..., 2) at local coordinates ``t`` in (0, 1)."""
    return np.stack([1.0 - t, t], axis=-1)


def mass_matrix(mesh: Mesh) -> SymForm:
    """Exact P1 mass matrix (symmetric positive definite)."""
    return potential_form(mesh, np.ones(mesh.num_nodes))


def potential_form(mesh: Mesh, q: np.ndarray) -> SymForm:
    """Weighted mass form ``(u, v) -> int q_h u v`` with P1-interpolated q.

    The rules (two-point Gauss in 1D, the degree-4 triangle rule in 2D)
    are exact for the cubic integrand ``q_h phi_a phi_b``.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[0] != mesh.num_nodes:
        raise ValueError("potential vector has wrong length for this mesh")
    if not np.isfinite(q).all():
        raise ValueError("potential must be finite at all nodes")
    if mesh.n == 1:
        xg, wg = roots_legendre(2)
        lam = _shapes_1d(0.5 * (xg + 1.0))
        w = 0.5 * wg * mesh.h
    else:
        bary, w = _triangle_rule_deg4()
        lam = bary.T
        w = w * (mesh.h**2 / 2.0)
    N = mesh.num_nodes
    A = np.zeros((N, N))
    _add_local_mass(A, mesh.elements, w * (q[mesh.elements] @ lam.T), lam)
    return SymForm(N, A)


def _triangle_rule_deg4():
    """Six-point degree-4 rule on the reference triangle.

    Returns barycentric coordinates with shape (3, 6) and weights summing
    to one (multiply by the triangle area).
    """
    a1, b1 = 0.816847572980459, 0.091576213509771
    a2, b2 = 0.108103018168070, 0.445948490915965
    w1, w2 = 0.109951743655322, 0.223381589678011
    pts = np.array(
        [
            [a1, b1, b1],
            [b1, a1, b1],
            [b1, b1, a1],
            [a2, b2, b2],
            [b2, a2, b2],
            [b2, b2, a2],
        ]
    )
    weights = np.array([w1, w1, w1, w2, w2, w2]) * 3.0
    return pts.T.copy(), weights / weights.sum()


# ---------------------------------------------------------------------------
# kernel-type forms
# ---------------------------------------------------------------------------

def gagliardo_form(mesh: Mesh, params: KernelParams, *, order_singular: int = 6,
                   order_regular: int = 4, check: bool = False) -> SymForm:
    """Fractional Dirichlet energy form.

    ``u^T A v = <(-Delta)^{s/2} u, (-Delta)^{s/2} v>_{L2}`` for the zero
    extensions of the nodal interpolants; the integral over the box
    complement is included (its weight in closed form).  Restricted to any
    nonempty compactly supported subspace the matrix is positive
    definite.

    Parameters
    ----------
    order_singular : int
        Gauss--Jacobi order for identical / node-sharing panels and the
        exterior tail of boundary elements (``order_singular + 4`` per
        direction in 2D).
    order_regular : int
        Tensor Gauss order for separated panels.
    check : bool
        Re-assemble with elevated orders on the same mesh and raise
        :class:`QuadratureFailure` if the two assemblies disagree.
    """
    ones = np.ones(mesh.num_nodes)
    return _kernel_form(mesh, params, ones, 1.0, order_singular, order_regular,
                        check)


def conductivity_form(mesh: Mesh, params: KernelParams, coeffs: Coefficients, *,
                      order_singular: int = 6, order_regular: int = 4,
                      check: bool = False) -> SymForm:
    """Weighted-diffusion energy form with kernel weight
    ``sqrt(gamma)(x) sqrt(gamma)(y)``.

    ``sqrt(gamma)`` enters the quadrature by nodal P1 interpolation; the
    diffusion equals ``coeffs.gamma_exterior`` on the box complement.
    """
    gamma = np.asarray(coeffs.gamma, dtype=float)
    if gamma.shape[0] != mesh.num_nodes:
        raise ValueError("gamma has wrong length for this mesh")
    if gamma.min() <= 0.0:
        raise NonPositiveGamma(f"gamma attains {gamma.min()} <= 0")
    return _kernel_form(
        mesh, params, np.sqrt(gamma), float(np.sqrt(coeffs.gamma_exterior)),
        order_singular, order_regular, check,
    )


def _kernel_form(mesh, params, sqrt_gamma, sqrt_gamma_ext, order_singular,
                 order_regular, check):
    if params.n != mesh.n:
        raise ValueError("mesh and kernel params dimensions differ")

    def build(q_sing, q_reg, extra_depth=0):
        if mesh.n == 1:
            A = _kernel_inbox_1d(mesh, params.s, sqrt_gamma, q_sing, q_reg)
            tail = _kernel_tail_1d(mesh, params.s, sqrt_gamma, q_sing)
        else:
            from ._assembly2d import MAX_DEPTH, kernel_inbox_2d, kernel_tail_2d

            A = kernel_inbox_2d(mesh, params.s, sqrt_gamma,
                                depth=MAX_DEPTH + extra_depth)
            tail = kernel_tail_2d(mesh, params.s, sqrt_gamma, q_sing)
        A *= 0.5 * params.C_ns
        scale = params.C_ns * sqrt_gamma_ext
        return A, sum(_add_local_mass(A, elements, scale * w, lam)
                      for elements, w, lam in tail)

    A, tail_row = build(order_singular, order_regular)
    if check:
        A2, _ = build(order_singular + 4, order_regular + 4, extra_depth=1)
        defect = float(np.abs(A - A2).max() / max(np.abs(A).max(), 1e-300))
        if defect > 5e-4:
            raise QuadratureFailure(
                f"panel self check failed: relative defect {defect:.2e}"
            )
    return SymForm(mesh.num_nodes, A, tail_row)


def _jacobi_rule(order, beta, length):
    """Nodes/weights for ``int_0^L t^beta f(t) dt`` with smooth ``f``."""
    xk, wk = roots_jacobi(order, 0.0, beta)
    t = 0.5 * length * (xk + 1.0)
    w = wk * (0.5 * length) ** (beta + 1.0)
    return t, w


def _point_pair_blocks(W, lx, ly, out):
    """Class blocks ``xx, xy, yy`` from a tensor point-pair rule.

    ``W[l, i, j]`` holds the weights times the kernel at x point ``i`` and
    y point ``j`` of leaf ``l``; ``lx[l, i]`` and ``ly[l, j]`` hold the P1
    shape values there, which serve both as test hats and as diffusion
    vertex weights.  ``out`` is ``"abcd"`` to sum over the leaves or
    ``"labcd"`` to keep them apart.  Returns (..., 3, nv, nv, nv, nv).
    """
    colY = np.einsum("lij,ljd->lid", W, ly)
    colX = np.einsum("lij,lic->ljc", W, lx)
    xx = np.einsum("lid,lia,lib,lic->" + out, colY, lx, lx, lx, optimize=True)
    xy = -np.einsum("lij,lia,ljb,lic,ljd->" + out, W, lx, ly, lx, ly,
                    optimize=True)
    yy = np.einsum("ljc,lja,ljb,ljd->" + out, colX, ly, ly, ly, optimize=True)
    return np.stack([xx, xy, yy], axis=-5)


def _scatter_plan(nv):
    """Block entries an element pair adds and where each add lands.

    Local vertex ``k < nv`` is vertex ``k`` of the x element, ``nv + k``
    vertex ``k`` of the y element.  ``xx`` and ``yy`` are symmetric in the
    test hats and ``yx`` is the transpose of ``xy``, so only the entries
    ``alpha <= beta`` of ``xx``/``yy`` and all of ``xy`` are contracted;
    each off-diagonal one is added at ``(r, c)`` and right after at
    ``(c, r)``, which keeps the assembled form exactly symmetric.
    """
    entries, adds = [], []
    for k, (ox, oy) in enumerate(((0, 0), (0, nv), (nv, nv))):
        for a in range(nv):
            for b in range(nv):
                if k != 1 and b < a:
                    continue
                adds.append((len(entries), ox + a, oy + b))
                if k == 1 or a != b:
                    adds.append((len(entries), oy + b, ox + a))
                entries.append((k * nv + a) * nv + b)
    return np.array(entries), np.array(adds).T


def _assemble_classes(num_nodes, elements, g, classes, scale):
    """Dense kernel form from element-pair translation classes.

    ``classes`` yields ``(blocks, sa, sb)``: the reference blocks
    ``xx, xy, yy`` of one class as (3, nv, nv, nv, nv) on unit elements,
    where ``blocks[k, alpha, beta, c, d]`` pairs the test hats ``alpha,
    beta`` with the diffusion vertex weights ``c`` (x element) and ``d``
    (y element), and the element indices of its pairs, each unordered
    pair once.  Every block is contracted with the vertex values of
    ``g`` and scaled by ``scale`` (``h^{n-2s}``), once for identical
    pairs and twice (both orders of the double integral) for distinct
    ones, then scattered into the form.
    """
    nv = elements.shape[1]
    entries, (entry, row, col) = _scatter_plan(nv)
    A = np.zeros((num_nodes, num_nodes))
    flat = A.reshape(-1)
    for blocks, sa, sb in classes:
        va, vb = elements[sa], elements[sb]
        w = (g[va][:, :, None] * g[vb][:, None, :]).reshape(sa.size, nv * nv)
        w *= scale * np.where(sa == sb, 1.0, 2.0)[:, None]
        local = w @ blocks.reshape(-1, nv * nv)[entries].T
        v = np.concatenate([va, vb], axis=1)
        np.add.at(flat, (v[:, row] * num_nodes + v[:, col]).ravel(),
                  local[:, entry].ravel())
    return A


def _touching_blocks_1d(s, q_sing):
    """Blocks of the identical (offset 0) and node-sharing (offset 1)
    classes on unit elements, shape (2, 3, 2, 2, 2, 2).

    Duffy-type transformations expose the weakly singular factor, which
    Gauss--Jacobi rules integrate exactly against the polynomial part.
    Where the two elements share vertices the whole local block goes
    into ``xx`` and the rest into ``xy``/``yy``, each entry once.
    """
    blocks = np.zeros((2, 3, 2, 2, 2, 2))

    # identical: the hat slopes are (-1, 1), so the integrand is
    # lam_c(x) lam_d(y) |x - y|^{1-2s}; Q is the half x = y + t, t > 0,
    # with the inner integral over y in (0, 1 - t) exact by 2-pt Gauss,
    # and Q.T the other half
    tk, twk = _jacobi_rule(q_sing, 1.0 - 2.0 * s, 1.0)
    yg, ywg = roots_legendre(2)
    L = 1.0 - tk
    Y = L[:, None] * 0.5 * (yg + 1.0)
    Q = np.einsum("k,j,kjc,kjd->cd", twk * L, 0.5 * ywg, _shapes_1d(Y),
                  _shapes_1d(Y + tk[:, None]))
    slope = np.array([-1.0, 1.0])
    blocks[0, 0] = np.einsum("a,b,cd->abcd", slope, slope, Q + Q.T)

    # node-sharing: with x = p - u on the left element and y = p + v on
    # the right one, every hat difference over the union (l, p, r) is
    # homogeneous linear, d_i = a_i u + b_i v, and the two Duffy branches
    # expose the weight r^{2-2s} exactly
    ab = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    vk, vwk = _jacobi_rule(q_sing, 2.0 - 2.0 * s, 1.0)
    sg, swg = roots_legendre(q_sing)
    sg = 0.5 * (sg + 1.0)
    ker = (1.0 + sg) ** (-1.0 - 2.0 * s) * 0.5 * swg
    X1 = ab[:, :1] * sg + ab[:, 1:]  # branch u = sg v
    X2 = ab[:, :1] + ab[:, 1:] * sg  # branch v = sg u
    us = sg[None, :] * vk[:, None]  # (k, j)
    # the left element's vertices are (l, p): shapes at 1 - u
    F1 = np.einsum("k,kjc,kd->cdj", vwk, _shapes_1d(1.0 - us), _shapes_1d(vk))
    F2 = np.einsum("k,kc,kjd->cdj", vwk, _shapes_1d(1.0 - vk), _shapes_1d(us))
    U = (np.einsum("cdj,j,pj,qj->pqcd", F1, ker, X1, X1)
         + np.einsum("cdj,j,pj,qj->pqcd", F2, ker, X2, X2))
    blocks[1, 0] = U[:2, :2]
    blocks[1, 1, :, 1] = U[:2, 2]
    blocks[1, 2, 1, 1] = U[2, 2]
    return blocks


def _separated_blocks_1d(s, M, q_reg):
    """Blocks of the classes at offsets ``2 .. M-1`` (tensor Gauss)."""
    xg, xwg = roots_legendre(q_reg)
    xi = 0.5 * (xg + 1.0)
    wq = 0.5 * xwg
    d = np.arange(2, M)[:, None, None]
    W = wq[:, None] * wq[None, :] * np.abs(xi[:, None] - xi[None, :] - d) ** (
        -1.0 - 2.0 * s)
    lam = np.broadcast_to(_shapes_1d(xi), (W.shape[0], q_reg, 2))
    return _point_pair_blocks(W, lam, lam, "labcd")


def _kernel_inbox_1d(mesh, s, g, q_sing, q_reg):
    """Raw double integral over box x box (without the C_ns/2 factor).

    The translation class of an element pair is its offset ``d``.
    """
    M = mesh.elements.shape[0]
    blocks = np.concatenate([_touching_blocks_1d(s, q_sing),
                             _separated_blocks_1d(s, M, q_reg)])
    e = np.arange(M)
    classes = ((blocks[d], e[:M - d], e[d:]) for d in range(M))
    return _assemble_classes(mesh.num_nodes, mesh.elements, g, classes,
                             mesh.h ** (1.0 - 2.0 * s))


def _kernel_tail_1d(mesh, s, g, q_sing):
    """Tail quadrature of ``int_E g phi_a phi_b omega`` with ``omega(x) =
    ((x - a)^{-2s} + (b - x)^{-2s}) / (2s)`` (no C_ns), as one
    ``(elements, weights, shapes)`` group for :func:`_add_local_mass`.

    Every element carries one rule per one-sided weight: Gauss--Jacobi
    absorbs the singular weight on its end element, and Gauss of order
    ``max(q_sing, 8)`` integrates the smooth weights elsewhere.
    """
    h = mesh.h
    a_box, b_box = mesh.box.lower[0], mesh.box.upper[0]
    xl = mesh.coords[mesh.elements[:, 0]][:, None]
    q = max(q_sing, 8)
    xg, xwg = roots_legendre(q)
    t = np.tile(0.5 * h * (xg + 1.0), (xl.shape[0], 2))  # (E, 2q) in (0, h)
    w = np.tile(0.5 * h * xwg, (xl.shape[0], 2))
    w[:, :q] *= ((xl - a_box) + t[:, :q]) ** (-2.0 * s)
    w[:, q:] *= ((b_box - xl) - t[:, q:]) ** (-2.0 * s)
    # left weight (x - a)^{-2s}, singular on the first element
    t[0, :q], w[0, :q] = _jacobi_rule(q, -2.0 * s, h)
    # right weight (b - x)^{-2s}, singular on the last element
    xj, wj = roots_jacobi(q, -2.0 * s, 0.0)
    t[-1, q:] = 0.5 * h * (xj + 1.0)
    w[-1, q:] = wj * (0.5 * h) ** (1.0 - 2.0 * s)
    lam = _shapes_1d(t / h)
    g_h = (lam * g[mesh.elements][:, None, :]).sum(axis=-1)
    return [(mesh.elements, w * g_h / (2.0 * s), lam)]
