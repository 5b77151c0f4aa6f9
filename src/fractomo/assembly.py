"""Galerkin assembly of the nonlocal bilinear forms on nodal P1 bases.

Every form is a symmetric matrix over the full nodal basis of the mesh;
nodal functions are extended by zero outside the computational box.  A
kernel form is dense (:class:`SymForm`); a local form, the mass matrix
or a potential form, couples only the nodes of one element and is
stored as its nonzero diagonals (:class:`LocalForm`: 3 in 1D, 7 in 2D),
so it never takes N x N memory.  Both kinds offer the same reads: the
product ``form @ x`` and a dense block ``form.block(rows, cols)``;
``entries`` of a local form is a dense view built on demand for tests
and checks only.  Only a dense form has a tail row: a local form couples
no hat with the box complement.  Adding a local form to a dense one
(``SymForm + LocalForm`` on a copy, or ``+=`` in place) adds its band
to the dense entries, one addition per entry as in the dense sum, and
leaves the tail row as it is.  The
kernel-type forms (Gagliardo energy and weighted-diffusion energy)
come from one engine (:func:`_offset_plan`, :func:`_apply_offsets`).  On
the uniform mesh every element pair is a translate of a reference pair:
its class is the offset ``d`` in 1D and ``(type_a, type_b, di, dj)`` in
2D.  The P1 diffusion weight enters bilinearly through its vertex
values, so a class reduces to vertex-resolved reference blocks,
integrated once on unit elements and scaled by ``h^{n-2s}``.  Because
a class depends only on its offset, the form is a sum of Toeplitz (1D)
or block-Toeplitz (2D) matrices scaled on both sides by shifted copies
of the diffusion weight: ``sum_pq D_p T_pq D_q`` over the node offsets
``p, q`` within an element (3 in 1D, 7 in 2D), with
``D_p = diag(g[i + p])`` (cf. Ainsworth & Glusa, 2018, on this structure
for the fractional Laplacian).  That identity assumes every element next
to a node exists; the rows and columns of the nodes on the box boundary
are evaluated with the elements that do.  A form pays for all the terms
only on the support rows of its weight.  Where every ``D_p`` of a row
and a column holds one constant ``c`` (``g`` at the lower box corner),
the terms collapse to ``c^2`` times one Toeplitz/BTTB matrix, filled
through a sliding window over one sequence; between a support row and
such a column they collapse to 3 (1D) or 7 (2D) partial sums.  The
box-face rows take the same split, from their values for a unit weight.
So a Gagliardo form (``g = 1``) costs one window and a copy, and a
weight that differs from its background on a compact set, as the
paper's coefficients do, pays the full sums on the grid lines around
that set only.  The element-local blocks are correlations of the
diffusion with the class blocks, one batched FFT in either dimension.

A kernel form is built in two steps.  The grid plan holds what depends
on the grid and the order but not on the coefficients: the element
table, the identical-pair entries, the operand of the element-local
correlations (the conjugate spectrum of the class blocks), the slot-pair
sequences of the box-face rows and those rows for a unit weight, the
merged Toeplitz/BTTB sequences with their collapsed and partial sums, the
node offsets and the slot masks (:func:`_offset_plan`), and the
exterior-tail rules with ``omega`` multiplied in.  One bounded LRU cache
(:func:`_grid_plan`, :data:`PLAN_CACHE` plans) keeps the plans with
their arrays read-only, keyed by the builder (in-box or tail, 1D or 2D),
the box, the spacing, ``s`` and the quadrature orders the builder
reads.  Every form, the first one too, takes its plans from there and
contracts them with its diffusion weight (:func:`_apply_offsets` and
the tail weights), so a form from a cached plan is bit-identical to one
built from scratch.  A plan grows linearly with the grid, a dense form
quadratically: an in-box plan holds about 0.7 kB per node in 1D and
21 kB per node in 2D (mostly the face-row sequences, the face rows of a
unit weight and the correlation spectrum), a 1D tail plan 0.4 kB per
node, and a 2D one grows with the boundary elements and their singular
rules.  In-box plus tail plan take 0.97 + 0.56 MB at N = 1409 in 1D (a
form: 15.9 MB), 1.4 + 0.2 MB at N = 81 in 2D, and 88 + 1.5 MB at N =
4225 (h = 1/32 on ``[-1, 1]^2``, a form: 143 MB).

The blocks come from

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
1D and 2D.  One routine (:func:`_local_mass`) computes its element
matrices and those of the mass matrix and the potential form from
per-element quadrature weights, and one scatter (:func:`_scatter`) lays
them out: ``np.add.at`` adds the tail's into the dense kernel form, and
one ``bincount`` per form sums a local form's into its diagonals, in
the scatter's order, so each band entry is bit for bit the entry that
``np.add.at`` on a zero matrix gives.

The adopted energy convention is ``u^T A u = ||(-Delta)^{s/2} u||_L2^2``,
i.e. the assembled Gagliardo form carries the factor ``C_ns / 2`` in
front of the double integral.

A dense form keeps the exterior-tail row sums of its kernel form
(``tail_row``): the coupling of each hat with a unit constant on the box
complement.  By construction ``sum_j entries[i, j] == tail_row[i]`` up
to round-off, which makes globally constant functions exact kernel
elements of the diffusion form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gamma as gamma_fn, roots_jacobi, roots_legendre

from .errors import NonPositiveGamma, QuadratureFailure
from .mesh import ELEMENT_VERTS, Mesh, build_mesh, grid_elements

#: Gauss--Jacobi order of the identical and node-sharing 1D panels and of
#: the exterior tail of boundary elements (``ORDER_SINGULAR + 4`` points
#: per direction in 2D)
ORDER_SINGULAR = 6

#: tensor Gauss order of the separated 1D panels
ORDER_REGULAR = 4


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

    ``C_ns`` is always :func:`normalization_constant` of ``(n, s)``.
    Orders must satisfy ``0 < s < min(1, n/2)``.
    """

    n: int
    s: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not 0.0 < self.s < min(1.0, self.n / 2.0):
            raise ValueError(
                f"order s={self.s} outside (0, min(1, n/2)) for n={self.n}"
            )

    @property
    def C_ns(self) -> float:
        return normalization_constant(self.n, self.s)


@dataclass(frozen=True)
class Coefficients:
    """Nodal diffusion and absorption data.

    Attributes
    ----------
    gamma : ndarray
        Nodal diffusion values, bounded below by ``gamma0 > 0``.
    q : ndarray
        Nodal absorption (potential) values.
    gamma0 : float
        Uniform ellipticity lower bound.
    gamma_exterior : float
        Constant diffusion value on the box complement (1 unless a
        globally rescaled problem is set up).
    """

    gamma: np.ndarray
    q: np.ndarray
    gamma0: float
    gamma_exterior: float = 1.0

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "q", q)
        if not self.gamma0 > 0:
            raise NonPositiveGamma(f"gamma0={self.gamma0} is not positive")
        if gamma.min() <= 0.0 or gamma.min() < self.gamma0 - 1e-14:
            raise NonPositiveGamma(
                f"gamma dips to {gamma.min()} below gamma0={self.gamma0}"
            )
        if self.gamma_exterior <= 0:
            raise NonPositiveGamma("exterior diffusion value must be positive")
        if not (np.isfinite(gamma).all() and np.isfinite(q).all()):
            raise ValueError("coefficients must be finite")

    @property
    def m_gamma(self) -> np.ndarray:
        """Background deviation ``sqrt(gamma) - 1``."""
        return np.sqrt(self.gamma) - 1.0

    @classmethod
    def from_arrays(cls, gamma, q=None, gamma0=None, gamma_exterior=1.0):
        """Build validated coefficients; ``gamma0`` defaults to ``min(gamma)``."""
        gamma = np.asarray(gamma, dtype=float)
        if q is None:
            q = np.zeros_like(gamma)
        if gamma0 is None:
            gamma0 = float(gamma.min())
        return cls(
            gamma=gamma,
            q=np.asarray(q, dtype=float),
            gamma0=float(gamma0),
            gamma_exterior=float(gamma_exterior),
        )

    @classmethod
    def background(cls, mesh: Mesh):
        """Unit diffusion, zero absorption."""
        return cls.from_arrays(np.ones(mesh.num_nodes), np.zeros(mesh.num_nodes))


@dataclass
class SymForm:
    """Dense symmetric bilinear form over the nodal basis (a kernel form,
    or a sum of one with local forms) with its exterior-tail row sums."""

    entries: np.ndarray
    tail_row: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.entries.shape

    def __add__(self, other: "LocalForm") -> "SymForm":
        """The sum with a local form: a copy of this form, the band of
        ``other`` added in place."""
        total = SymForm(self.entries.copy(), self.tail_row.copy())
        total += other
        return total

    def __iadd__(self, other: "LocalForm") -> "SymForm":
        """Add a local form into ``entries`` in place, on its band only;
        it couples no hat with the box complement, so ``tail_row`` stays."""
        if self.shape != other.shape:
            raise ValueError("form dimensions differ")
        for offset, diagonal in other.diagonals():
            _diagonal(self.entries, offset)[:] += diagonal
        return self

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ x

    def block(self, rows, cols) -> np.ndarray:
        """The dense block ``entries[rows][:, cols]``, a new array.  Where
        both index arrays are runs of consecutive indices (always in 1D)
        it is copied from a slice, several times faster than a gather."""
        r, c = _run(rows), _run(cols)
        if r is not None and c is not None:
            return self.entries[r, c].copy()
        return self.entries[np.ix_(rows, cols)]

    def symmetry_defect(self) -> float:
        return _asymmetry(self.entries)


@dataclass
class LocalForm:
    """Symmetric form of element-local integrals (a mass or a potential
    form), stored as its nonzero diagonals: 3 in 1D, 7 in 2D.

    ``offsets`` lists the diagonals outward from the main one (0, -1, 1,
    -2, 2, ...), the order in which every product adds them; row ``m`` of
    ``band`` holds the diagonal of offset ``offsets[m]`` in its first
    ``N - |offsets[m]|`` entries and zeros after.  A local form couples
    no hat with the box complement: it has no tail row, and adding it to
    a dense form leaves that form's ``tail_row`` as it is.
    """

    offsets: tuple
    band: np.ndarray

    @property
    def shape(self) -> tuple:
        N = self.band.shape[1]
        return (N, N)

    def diagonals(self):
        """The ``(offset, diagonal)`` pairs, in the order of ``offsets``."""
        N = self.band.shape[1]
        return [(k, d[:N - abs(k)]) for k, d in zip(self.offsets, self.band)]

    @property
    def entries(self) -> np.ndarray:
        """The dense N x N matrix, built on every read and read-only.
        It is a view for tests and checks: no product needs it."""
        A = np.zeros(self.shape)
        for offset, diagonal in self.diagonals():
            _diagonal(A, offset)[:] = diagonal
        A.flags.writeable = False
        return A

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return _diagonal_matvec(self.diagonals(), x)

    def block(self, rows, cols) -> np.ndarray:
        """The dense block of ``rows`` and ``cols`` (index arrays), filled
        from the band."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        where = np.full((2, self.band.shape[1]), -1)
        where[0, rows] = np.arange(rows.size)
        where[1, cols] = np.arange(cols.size)
        out = np.zeros((rows.size, cols.size))
        for offset, diagonal in self.diagonals():
            r, c = _band_index(offset, diagonal.size)
            i, j = where[0, r], where[1, c]
            keep = (i >= 0) & (j >= 0)
            out[i[keep], j[keep]] = diagonal[keep]
        return out

    def scaled(self, weight: np.ndarray) -> "LocalForm":
        """The form ``(u, v) -> B(weight u, weight v)``: entry ``ij``
        becomes ``(weight_i B_ij) weight_j``."""
        band = np.zeros_like(self.band)
        for m, (offset, diagonal) in enumerate(self.diagonals()):
            r, c = _band_index(offset, diagonal.size)
            band[m, :diagonal.size] = weight[r] * diagonal * weight[c]
        return LocalForm(self.offsets, band)


def _run(indices):
    """The slice of ``indices`` if they are one run of consecutive
    integers, else None."""
    indices = np.asarray(indices)
    # the span of the ends rules out most other index sets at once
    if (indices.size and indices[-1] - indices[0] == indices.size - 1
            and (np.diff(indices) == 1).all()):
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return None


def _band_index(offset: int, size: int) -> tuple:
    """The slices of the rows and of the columns of the ``size`` entries
    of the diagonal of ``offset`` (positive above the main diagonal)."""
    first = max(-offset, 0)
    return slice(first, first + size), slice(first + offset, first + offset + size)


def _diagonal(A, offset: int) -> np.ndarray:
    """The diagonal of ``offset`` of the square ``A`` as a writable view."""
    rows, cols = _band_index(offset, A.shape[0] - abs(offset))
    return np.einsum("ii->i", A[rows, cols])


def _diagonal_matvec(diagonals, y):
    """``A @ y`` for a vector or a block of columns ``y``, from the
    ``(offset, diagonal)`` pairs of ``A``, each diagonal's product added
    in their order."""
    z = np.zeros(np.shape(y))
    for offset, diagonal in diagonals:
        rows, cols = _band_index(offset, diagonal.size)
        z[rows] += diagonal.reshape(-1, *(1,) * (z.ndim - 1)) * y[cols]
    return z


def _asymmetry(entries: np.ndarray) -> float:
    """``max |A - A^T| / max |A|`` of a square matrix (0 for ``A = 0``)."""
    scale = np.abs(entries).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(entries - entries.T).max() / scale)


# ---------------------------------------------------------------------------
# local (mass / potential / exterior-tail) forms
# ---------------------------------------------------------------------------

#: the local entries ``a <= b`` of an element with 2 (1D) or 3 (2D)
#: vertices, in ``triu_indices`` order
_TRIU = {nv: np.triu_indices(nv) for nv in (2, 3)}


def _local_mass(elements, w, lam):
    """Local entries ``int rho phi_a phi_b`` of every element, in the
    layout of :func:`_scatter`.

    ``w`` (E, P) holds each element's quadrature weights with the density
    ``rho`` folded in; ``lam`` (P, nv) or (E, P, nv) holds the P1 shape
    values at the points.
    """
    a, b = _TRIU[elements.shape[1]]
    return (w[..., None] * (lam[..., a] * lam[..., b])).sum(axis=-2)


def _add_local_mass(A, elements, w, lam):
    """Add ``int rho phi_a phi_b`` over every element into ``A`` in place
    (see :func:`_local_mass`); returns the row sums of what was added."""
    return _add_local(A, elements, _local_mass(elements, w, lam))


def _scatter(elements, local):
    """The ``(rows, cols, vals)`` of the element matrices ``local``.

    ``local`` (E, nv (nv + 1) / 2) holds the local entries ``a <= b`` of
    each element in ``triu_indices`` order; each off-diagonal one goes to
    ``(r, c)`` and to ``(c, r)``, which keeps the sum exactly symmetric.
    """
    a, b = _TRIU[elements.shape[1]]
    off = a != b
    rows = np.concatenate([elements[:, a], elements[:, b[off]]], axis=1).ravel()
    cols = np.concatenate([elements[:, b], elements[:, a[off]]], axis=1).ravel()
    vals = np.concatenate([local, local[:, off]], axis=1).ravel()
    return rows, cols, vals


def _add_local(A, elements, local):
    """Add element matrices (see :func:`_scatter`) into ``A`` in place;
    returns the row sums of what was added."""
    rows, cols, vals = _scatter(elements, local)
    np.add.at(A, (rows, cols), vals)
    return np.bincount(rows, vals, A.shape[0])


def _local_form(N, elements, local):
    """The :class:`LocalForm` of the element matrices ``local`` (see
    :func:`_scatter`) on ``N`` nodes.

    One ``bincount`` sums the scatter into a bin per diagonal entry, in
    the order of the scatter: every entry is the same sum, in the same
    order, as ``np.add.at`` of the scatter on a zero matrix.
    """
    rows, cols, vals = _scatter(elements, local)
    keys = cols - rows + (N - 1)  # the offset of each entry, shifted to >= 0
    present = np.flatnonzero(np.bincount(keys, minlength=2 * N - 1)) - (N - 1)
    offsets = sorted(present.tolist(), key=lambda k: (abs(k), k > 0))
    slot = np.zeros(2 * N - 1, dtype=np.int64)  # shifted offset -> band row
    slot[np.add(offsets, N - 1)] = np.arange(len(offsets))
    band = np.bincount(slot[keys] * N + np.minimum(rows, cols), vals, len(offsets) * N)
    return LocalForm(tuple(offsets), band.reshape(-1, N))


def _shapes_1d(t):
    """P1 shape values (..., 2) at local coordinates ``t`` in (0, 1)."""
    return np.stack([1.0 - t, t], axis=-1)


def mass_matrix(mesh: Mesh) -> LocalForm:
    """Exact P1 mass matrix (symmetric positive definite)."""
    return potential_form(mesh, np.ones(mesh.num_nodes))


def potential_form(mesh: Mesh, q: np.ndarray) -> LocalForm:
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
    elements = mesh.elements
    return _local_form(mesh.num_nodes, elements,
                       _local_mass(elements, w * (q[elements] @ lam.T), lam))


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


#: grid plans that :func:`_grid_plan` keeps, the least recently used
#: dropped first.  A run builds the kernel forms of one mesh together, each
#: from an in-box and a tail plan per order (two orders with the quadrature
#: self check): 2 or 4 plans per mesh.  8 keep both meshes of a
#: ``reconstruct`` and a ``counterexample`` run warm with the self check;
#: a refining subcommand needs the plans of one level at a time
PLAN_CACHE = 8


@functools.lru_cache(maxsize=PLAN_CACHE)
def _grid_plan(build, box, h, s, *orders):
    """``build(mesh, s, *orders)`` on the mesh ``build_mesh(box, h)``,
    with every array in it read-only.

    A plan holds what a kernel form needs from the grid and the order but
    not from the coefficients, so every form on one grid and order shares
    it; each form contracts it with its diffusion weight.  The key is the
    builder (in-box or tail, 1D or 2D), the box, the spacing, the order
    ``s`` and the quadrature orders the builder reads.
    """
    return _frozen(build(build_mesh(box, h), s, *orders))


def _frozen(plan):
    """``plan`` (an array or nested tuples of them) made read-only."""
    if isinstance(plan, np.ndarray):
        plan.flags.writeable = False
    elif isinstance(plan, tuple):
        for item in plan:
            _frozen(item)
    return plan


# ---------------------------------------------------------------------------
# kernel-type forms
# ---------------------------------------------------------------------------

def gagliardo_form(mesh: Mesh, params: KernelParams, *,
                   check: bool = False) -> SymForm:
    """Fractional Dirichlet energy form.

    ``u^T A v = <(-Delta)^{s/2} u, (-Delta)^{s/2} v>_{L2}`` for the zero
    extensions of the nodal interpolants; the integral over the box
    complement is included (its weight in closed form).  Restricted to any
    nonempty compactly supported subspace the matrix is positive
    definite.

    The quadrature orders are :data:`ORDER_SINGULAR` and
    :data:`ORDER_REGULAR`.

    Parameters
    ----------
    check : bool
        Re-assemble with both orders raised by 4 (and the 2D recursion one
        level deeper) on the same mesh and raise
        :class:`QuadratureFailure` if the two assemblies disagree.
    """
    return _kernel_form(mesh, params, np.ones(mesh.num_nodes), 1.0, check)


def conductivity_form(mesh: Mesh, params: KernelParams, coeffs: Coefficients, *,
                      check: bool = False) -> SymForm:
    """Weighted-diffusion energy form with kernel weight
    ``sqrt(gamma)(x) sqrt(gamma)(y)``.

    ``sqrt(gamma)`` enters the quadrature by nodal P1 interpolation; the
    diffusion equals ``coeffs.gamma_exterior`` on the box complement.
    Orders and ``check`` as in :func:`gagliardo_form`.
    """
    gamma = np.asarray(coeffs.gamma, dtype=float)
    if gamma.shape[0] != mesh.num_nodes:
        raise ValueError("gamma has wrong length for this mesh")
    if gamma.min() <= 0.0:
        raise NonPositiveGamma(f"gamma attains {gamma.min()} <= 0")
    return _kernel_form(mesh, params, np.sqrt(gamma),
                        float(np.sqrt(coeffs.gamma_exterior)), check)


def _kernel_form(mesh, params, sqrt_gamma, sqrt_gamma_ext, check):
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

    A, tail_row = build(ORDER_SINGULAR, ORDER_REGULAR)
    if check:
        A2, _ = build(ORDER_SINGULAR + 4, ORDER_REGULAR + 4, extra_depth=1)
        defect = float(np.abs(A - A2).max() / max(np.abs(A).max(), 1e-300))
        if defect > 5e-4:
            raise QuadratureFailure(
                f"panel self check failed: relative defect {defect:.2e}"
            )
    return SymForm(A, tail_row)


def _jacobi_rule(order, a, b, length=1.0):
    """Gauss--Jacobi nodes/weights for ``int_0^L (L - t)^a t^b f(t) dt``,
    exact for polynomial ``f`` of degree below ``2 * order``."""
    xk, wk = roots_jacobi(order, a, b)
    return 0.5 * length * (xk + 1.0), wk * (0.5 * length) ** (1.0 + a + b)


def _point_pair_blocks(W, lam):
    """Class blocks ``xx, xy, yy`` of each leaf from a tensor point-pair
    rule with the same points on both elements.

    ``W[l, i, j]`` holds the weights times the kernel at x point ``i`` and
    y point ``j`` of leaf ``l``; ``lam[l, i]`` holds the P1 shape values at
    point ``i``, which serve both as test hats and as diffusion vertex
    weights.  Returns (L, 3, nv, nv, nv, nv).
    """
    colY = np.einsum("lij,ljd->lid", W, lam)
    colX = np.einsum("lij,lic->ljc", W, lam)
    xx = np.einsum("lid,lia,lib,lic->labcd", colY, lam, lam, lam, optimize=True)
    xy = -np.einsum("lij,lia,ljb,lic,ljd->labcd", W, lam, lam, lam, lam,
                    optimize=True)
    yy = np.einsum("ljc,lja,ljb,ljd->labcd", colX, lam, lam, lam, optimize=True)
    return np.stack([xx, xy, yy], axis=-5)


#: rows of the form per block of the offset sums (whole grid lines in 2D)
ROW_BLOCK = 64


def _toeplitz(seq, shape):
    """The Toeplitz (1D) or BTTB (2D) matrices of the sequences ``seq``
    (..., *(2 shape - 1)) on the node grid ``shape``, as a read-only view:
    ``[..., *i, *j]`` is ``seq[..., *(j - i + shape - 1)]``."""
    n = len(shape)
    win = sliding_window_view(seq, shape, axis=tuple(range(seq.ndim - n, seq.ndim)))
    return win[(Ellipsis,) + (slice(None, None, -1),) * n + (slice(None),) * n]


def _offset_sum(seq, left, right, rows, cols):
    """Block ``sum_ab left[a][i] seq[a, b][j - i] right[b][j]`` of a sum of
    diagonally scaled Toeplitz (1D) or BTTB (2D) matrices, or ``sum_a
    left[a][i] seq[a][j - i]`` where ``right`` is None.

    ``left`` (na, *shape) and ``right`` (nb, *shape) are nodal weights on
    the node grid, and ``seq[a, b]`` (or ``seq[a]``) holds one value per
    node offset ``k``, stored at ``k + shape - 1``.  ``rows`` and ``cols``
    are tuples of basic indices (ints and slices) into the node grid that
    select the nodes ``i`` and ``j``.  The Toeplitz matrices are read
    through :func:`_toeplitz` and never formed.
    """
    lead = seq.ndim - (left.ndim - 1)
    win = _toeplitz(seq, left.shape[1:])[(slice(None),) * lead + rows + cols]
    lw = left[(slice(None),) + rows]
    i = "rst"[:lw.ndim - 1]
    j = "uvw"[:win.ndim - lead - len(i)]
    if right is None:
        return np.einsum(f"a{i},a{i}{j}->{i}{j}", lw, win)
    return np.einsum(f"a{i},ab{i}{j},b{j}->{i}{j}", lw, win,
                     right[(slice(None),) + cols])


def _mirror_upper(M):
    """Overwrite the strict lower triangle of the square ``M`` with its
    upper one, in place."""
    np.copyto(M, M.T, where=_strict_lower(M.shape[0]))


@functools.lru_cache(maxsize=16)
def _strict_lower(m):
    """Read-only mask of the strict lower triangle of an ``m x m`` matrix.

    A form mirrors the diagonal blocks of its support rows and its face
    rows.  The blocks hold :data:`ROW_BLOCK` rows (whole grid lines in 2D)
    but the last one, whose size follows the support of ``g`` and so
    changes from form to form; the cache keeps the 16 masks used last.
    """
    return _frozen(np.tri(m, k=-1, dtype=bool))


def _partner_plan(T, cells, ta, tb, D, xx, yy):
    """Operand of :func:`_partner_terms` for the distinct classes ``(ta,
    tb, D)`` between element types ``0 .. T-1`` on the cell grid
    ``cells``.

    ``xx`` and ``yy`` (K, nab, nv, nv) hold the entries ``ab`` of each
    class for the x and for the y element.  They are laid out as
    ``P[t, u, ab, c, d, D mod period]``: the x element's partner sits at
    ``D``, the y element's at ``-D``, and within one statement every class
    lands at its own ``(t, u, D)``.  An FFT of length ``period = 2 cells``
    has no wrap-around at the offsets ``|D| < cells``, and the even length
    keeps it fast.  The operand is the conjugate spectrum of ``P``.
    """
    n = len(cells)
    period = tuple(2 * c for c in cells)
    P = np.zeros((T, T) + xx.shape[1:] + period)
    P[(ta, tb) + (slice(None),) * 3 + tuple((D % period).T)] += xx
    P[(tb, ta) + (slice(None),) * 3 + tuple((-D % period).T)] += yy.swapaxes(2, 3)
    return np.fft.rfftn(P, axes=tuple(range(-n, 0))).conj()


def _partner_terms(gv, partners):
    """Local entries ``ab`` (T, *cells, nab) that the distinct pairs give
    every element ``(t, C)``: ``sum_cd gv[t, c, C] P[t, u, D, ab, c, d]
    gv[u, d, C + D]``, summed over the partners ``(u, C + D)`` that exist.

    ``gv`` (T, nv, *cells) holds the vertex values of ``g`` of every
    element and ``partners`` the operand of :func:`_partner_plan`.  The
    sum over ``D`` is a correlation, one batched FFT for all elements.
    """
    T, nv, *cells = gv.shape
    n = len(cells)
    period = tuple(2 * c for c in cells)
    ax = tuple(range(-n, 0))
    spec = np.einsum("tuecd...,ud...->tec...", partners,
                     np.fft.rfftn(gv, s=period, axes=ax))
    corr = np.fft.irfftn(spec, s=period, axes=ax)[
        (Ellipsis,) + tuple(slice(c) for c in cells)]
    return np.einsum("tc...,tec...->t...e", gv, corr)


class _OffsetPlan(NamedTuple):
    """The part of an in-box kernel form that depends only on the grid and
    the order (see :func:`_offset_plan`)."""

    shape: tuple  # the node grid
    elements: np.ndarray  # (T, nv, *cells), see mesh.grid_elements
    own: np.ndarray  # (T, nab, nv, nv) identical-pair entries per type
    partners: np.ndarray  # operand of _partner_terms
    V: np.ndarray  # (na, na, *(2 shape - 1)) slot-pair sequences
    S: np.ndarray  # (P, P, *(2 shape - 1)) sequences merged by offset
    S_part: np.ndarray  # (P, *(2 shape - 1)) partial sums sum_q S[p, q]
    S_sum: np.ndarray  # (*(2 shape - 1)) sum_pq S[p, q], made symmetric
    offsets: np.ndarray  # (P, n) node offsets p
    p: np.ndarray  # (na,) offset index of each slot
    exists: np.ndarray  # (T, nv, *shape) where each slot's element exists
    faces: tuple  # (slices of the face, its node indices) per face
    face_rows: tuple  # (face nodes, N) per face: its rows at g = 1


def _offset_plan(shape, verts, keys, blocks, scale):
    """Plan of the dense kernel form on the uniform node grid ``shape``
    from the element-pair translation classes; :func:`_apply_offsets`
    contracts it with the diffusion weight ``g``.

    ``verts`` (T, nv, n) holds the vertex offsets of each element type on
    its cell, with the elements numbered by
    :func:`fractomo.mesh.grid_elements`.  Row ``l`` of ``keys`` is the
    class ``(type_a, type_b, *D)``: type ``type_a`` on cell ``C`` against
    type ``type_b`` on cell ``C + D``, each unordered pair of elements in
    one class.
    ``blocks[l]`` holds its reference blocks ``xx, xy, yy`` (3, nv, nv,
    nv, nv) on unit elements, where ``blocks[l, k, alpha, beta, c, d]``
    pairs the test hats ``alpha, beta`` with the diffusion vertex weights
    ``c`` (x element) and ``d`` (y element).  A class counts once for
    identical pairs and twice (both orders of the double integral) for
    distinct ones, times ``scale`` (``h^{n-2s}``).

    The blocks reach the form as offset sequences, not pair by pair.  A
    slot ``a = (t, alpha, c)`` is vertex ``alpha`` of an element of type
    ``t``, weighted by ``g`` at its vertex ``c``, the node offset ``p(a) =
    V_c - V_alpha`` away.  An ``xy`` entry of a distinct pair couples
    node ``i`` with node ``j = i + D + V_beta - V_alpha``, so the ``xy``
    parts sum to ``sum_ab L_a[i] L_b[j] V_ab[j - i]``, with one sequence
    ``V_ab`` per slot pair and ``L_a[i] = g[i + p(a)]`` where the element
    of slot ``a`` at node ``i`` exists, 0 where it does not:

    * next to a node off the box boundary every element exists, and the
      slots with equal ``p`` merge: those rows and columns are ``sum_pq
      D_p T_pq D_q`` with ``D_p = diag(g[i + p])`` (``g`` zero-padded)
      and ``T_pq`` the Toeplitz (1D) or BTTB (2D) matrix of the sequence
      ``S_pq``, the sum of the ``V_ab`` with ``p(a) = p, p(b) = q``: 9
      terms in 1D, 49 in 2D.  Where every ``D_p`` of a row and of a
      column holds one constant ``c``, the entry collapses to ``c^2``
      times the Toeplitz/BTTB matrix of ``S_sum = sum_pq S_pq``; where
      only those of the column do, to ``sum_p D_p T_p c`` with the
      partial sums ``S_part[p] = sum_q S_pq``, 3 terms in 1D, 7 in 2D
      (see :func:`_apply_offsets`).  ``S_sum`` adds its terms in the
      order of the full sum and takes its negative offsets from the
      positive ones, so at ``c = 1`` a window over it reproduces the
      upper triangle of the full sum and its mirror bit for bit;
    * the rows of each box face, and so its columns, take the masked
      ``L_a`` and every ``V_ab``.  The plan keeps these rows for ``g =
      1``: where ``g`` is the constant ``c`` on both stencils, an entry
      is ``c^2`` times its value there.

    The ``xx``/``yy`` blocks of the distinct pairs give each element a
    local matrix (see :func:`_partner_terms`).  An identical pair lies in
    one element, so all three of its blocks go straight into that
    element's local matrix.  The local matrices are added by the mirrored
    scatter of :func:`_add_local`.  Every entry is written once and
    mirrored, so the form is exactly symmetric.
    """
    shape, verts = np.asarray(shape), np.asarray(verts)
    T, nv, n = verts.shape
    cells = shape - 1
    full = (slice(None),) * n
    index = np.arange(int(shape.prod())).reshape(shape)

    ta, tb, D = keys[:, 0], keys[:, 1], keys[:, 2:]
    same = (ta == tb) & ~D.any(axis=1)
    ia, ib = _TRIU[nv]
    xx, xy, yy = np.moveaxis(blocks[same], 1, 0)
    own = np.zeros((T, ia.size, nv, nv))
    own[ta[same]] = scale * (xx + yy + xy + xy.swapaxes(1, 2))[:, ia, ib]
    pair = np.flatnonzero(~same)
    ta, tb, D, w = ta[pair], tb[pair], D[pair], 2.0 * scale
    partners = _partner_plan(T, tuple(int(c) for c in cells), ta, tb, D,
                             w * blocks[pair[:, None], 0, ia, ib],
                             w * blocks[pair[:, None], 2, ia, ib])

    # V[ta, alpha, c, tb, beta, d, k + shape - 1]; within one statement
    # every class lands at its own (ta, tb, D)
    V = np.zeros((T, nv, nv, T, nv, nv) + tuple(2 * shape - 1))
    for al in range(nv):
        for be in range(nv):
            k = D + verts[tb, be] - verts[ta, al] + shape - 1
            v = w * blocks[pair, 1, al, be]
            V[(ta, al, slice(None), tb, be, slice(None)) + tuple(k.T)] += v
            V[(tb, be, slice(None), ta, al, slice(None))
              + tuple((2 * shape - 2 - k).T)] += v.swapaxes(1, 2)
    del blocks  # the callers keep no reference: freed before S is merged
    na = T * nv * nv
    V = V.reshape((na, na) + V.shape[6:])
    offsets, p = np.unique((verts[:, None] - verts[:, :, None]).reshape(na, n),
                           axis=0, return_inverse=True)
    p = p.ravel()
    merge = np.eye(len(offsets))[p]
    # contiguous along the offsets, which the windows read
    S = np.ascontiguousarray(np.einsum("ap,ab...,bq->pq...", merge, V, merge,
                                       optimize=True))
    P = len(offsets)
    # S_sum adds (p, q) in turn, as the full offset sum does; offset 0 sits
    # at the middle of the raveled sequence and -k mirrors k about it
    S_sum = S.reshape(P * P, -1).sum(axis=0)
    S_sum[:S_sum.size // 2] = S_sum[:S_sum.size // 2:-1]

    anchor = np.indices(shape)[None, None] - verts.reshape(T, nv, n, *(1,) * n)
    exists = ((anchor >= 0) & (anchor < cells.reshape(n, *(1,) * n))).all(axis=2)
    # the slot weights L of g = 1, and the face rows they give; a face is
    # one bounded slice per axis, the first over the grid lines
    L1 = np.repeat(exists, nv, axis=1).reshape(na, *shape).astype(float)
    faces, face_rows = [], []
    for d in range(n):
        for side in (0, shape[d] - 1):
            face = tuple(slice(side, side + 1) if k == d else slice(0, m)
                         for k, m in enumerate(shape))
            rows = index[face].ravel()
            faces.append((face, rows))
            face_rows.append(_face_rows(V, L1, face, full).reshape(rows.size, -1))
            _mirror_face(face_rows[-1], rows)
    return _OffsetPlan(tuple(int(m) for m in shape), grid_elements(shape, verts),
                       own, partners, V, S, S.sum(axis=1), S_sum.reshape(S.shape[2:]),
                       offsets, p, exists, tuple(faces), tuple(face_rows))


def _face_rows(V, L, rows, cols):
    """Block ``sum_ab L_a[i] V_ab[j - i] L_b[j]`` of the box-face nodes
    ``i`` in ``rows`` against the nodes ``j`` in ``cols`` (basic indices
    into the node grid), over the slots ``a`` that exist on those rows."""
    live = L[(slice(None),) + rows].reshape(len(L), -1).any(axis=1)
    return _offset_sum(V[live], L[live], L, rows, cols)


def _mirror_face(R, rows):
    """Make the block of the face rows ``R`` (rows.size, N) on the face's
    own columns ``rows`` symmetric: its upper triangle, mirrored."""
    sub = R[:, rows]
    _mirror_upper(sub)
    R[:, rows] = sub


def _apply_offsets(plan, g):
    """The dense form of :func:`_offset_plan` with the nodal diffusion
    weight ``g``.

    ``g`` counts as the constant ``c = g[0]`` (the lower box corner)
    except on its support lines: the grid lines of the nodes whose
    stencil ``i + p`` sees another value, widened to one contiguous range
    of node rows.

    1. The form is filled once with ``c^2`` times the Toeplitz/BTTB
       matrix of ``S_sum`` (a window, no sums).
    2. The support rows take the full sums of ``S`` on and above the
       diagonal of the support block, mirrored below it, and the partial
       sums ``S_part`` times ``c`` towards the other columns, a
       :data:`ROW_BLOCK` of rows at a time; their columns take their
       mirror.
    3. The box-face rows are ``c^2`` times the plan's rows of ``g = 1``,
       with the full sums over every ``V_ab`` in the support lines and
       the support columns; they overwrite their rows and columns.
    4. The element-local terms are scattered in.

    So a form with a constant weight costs a window and a copy, and any
    other one the full sums on its support lines only.
    """
    shape, elements = np.asarray(plan.shape), plan.elements
    T, nv, *_ = elements.shape
    n, N = len(plan.shape), int(shape.prod())
    na, full = len(plan.p), (slice(None),) * n
    gv = g[elements]
    local = (np.einsum("tc...,td...,tecd->t...e", gv, gv, plan.own)
             + _partner_terms(gv, plan.partners))

    # nodal weights: G[p] = g[i + p], and L[a] = G[p(a)] where slot a exists
    gpad = np.pad(g.reshape(shape), 1)
    G = np.stack([gpad[tuple(slice(1 + o, 1 + o + m) for o, m in zip(off, shape))]
                  for off in plan.offsets])
    L = (plan.exists[:, :, None] * G[plan.p].reshape(T, nv, nv, *shape)
         ).reshape(na, *shape)

    # the support lines [x0, x1): the lines of g != c widened by the stencil
    c = g[0]
    lines = np.flatnonzero((g != c).reshape(shape[0], -1).any(axis=1))
    x0, x1 = ((max(0, lines[0] - plan.offsets[:, 0].max()),
               min(shape[0], lines[-1] - plan.offsets[:, 0].min() + 1))
              if lines.size else (0, 0))
    support = (slice(x0, x1),) + full[1:]

    # the face rows, written after the Toeplitz part: c^2 times those of
    # g = 1, but the full sums in the support lines and columns
    faces = []
    for (face, rows), unit in zip(plan.faces, plan.face_rows):
        R = (c * c) * unit
        rgrid = R.reshape(tuple(f.stop - f.start for f in face) + plan.shape)
        a, b = face[0].start, face[0].stop
        for l0, l1, cols in ((a, min(b, x0), support), (max(a, x0), min(b, x1), full),
                             (max(a, x1), b, support)):
            if l0 < l1 and x0 < x1:
                rgrid[(slice(l0 - a, l1 - a),) + full[1:] + cols] = _face_rows(
                    plan.V, L, (slice(l0, l1),) + face[1:], cols)
        _mirror_face(R, rows)
        faces.append((rows, R))

    A = np.empty((N, N))
    grid = A.reshape(tuple(shape) * 2)  # A[i, j] at grid[(*i, *j)]
    np.multiply(_toeplitz(plan.S_sum, plan.shape), c * c, out=grid)

    rest = N // shape[0]
    step = max(1, ROW_BLOCK // rest)
    s0, s1 = x0 * rest, x1 * rest  # the support rows
    cG = c * G
    constant = [slice(a, b) for a, b in ((0, x0), (x1, shape[0])) if a < b]
    for a in range(x0, x1, step):
        b = min(a + step, x1)
        ra, rb = a * rest, b * rest
        rsel, csel = (slice(a, b),) + full[1:], (slice(a, x1),) + full[1:]
        grid[rsel + csel] = _offset_sum(plan.S, G, G, rsel, csel)
        _mirror_upper(A[ra:rb, ra:rb])
        A[rb:s1, ra:rb] = A[ra:rb, rb:s1].T
        for cols in constant:
            csel = (cols,) + full[1:]
            grid[rsel + csel] = _offset_sum(plan.S_part, cG, None, rsel, csel)
    A[:s0, s0:s1] = A[s0:s1, :s0].T
    A[s1:, s0:s1] = A[s0:s1, s1:].T
    for rows, R in faces:
        A[rows] = R
        A[:, rows] = R.T
    _add_local(A, np.moveaxis(elements, 1, -1).reshape(-1, nv),
               local.reshape(-1, plan.own.shape[1]))
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
    tk, twk = _jacobi_rule(q_sing, 0.0, 1.0 - 2.0 * s)
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
    vk, vwk = _jacobi_rule(q_sing, 0.0, 2.0 - 2.0 * s)
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
    return _point_pair_blocks(W, lam)


def _inbox_plan_1d(mesh, s, q_sing, q_reg):
    """Offset plan of the 1D in-box form; the translation class of an
    element pair is its offset ``d``."""
    M = mesh.elements.shape[0]
    keys = np.stack([np.zeros(M, int), np.zeros(M, int), np.arange(M)], axis=1)
    return _offset_plan(
        mesh.shape, ELEMENT_VERTS[1], keys,
        np.concatenate([_touching_blocks_1d(s, q_sing),
                        _separated_blocks_1d(s, M, q_reg)])[:M],
        mesh.h ** (1.0 - 2.0 * s))


def _kernel_inbox_1d(mesh, s, g, q_sing, q_reg):
    """Raw double integral over box x box (without the C_ns/2 factor)."""
    return _apply_offsets(_grid_plan(_inbox_plan_1d, mesh.box, mesh.h, s,
                                     q_sing, q_reg), g)


def _tail_plan_1d(mesh, s, q_sing):
    """Tail rule of every element for :func:`_kernel_tail_1d`: one
    ``(elements, weights, shapes)`` group, the weights with ``2s omega``
    multiplied in.

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
    t[0, :q], w[0, :q] = _jacobi_rule(q, 0.0, -2.0 * s, h)
    # right weight (b - x)^{-2s}, singular on the last element
    t[-1, q:], w[-1, q:] = _jacobi_rule(q, -2.0 * s, 0.0, h)
    return ((mesh.elements, w, _shapes_1d(t / h)),)


def _kernel_tail_1d(mesh, s, g, q_sing):
    """Tail quadrature of ``int_E g phi_a phi_b omega`` with ``omega(x) =
    ((x - a)^{-2s} + (b - x)^{-2s}) / (2s)`` (no C_ns), as one
    ``(elements, weights, shapes)`` group for :func:`_add_local_mass`;
    the rules come from :func:`_tail_plan_1d`.
    """
    (elements, w, lam), = _grid_plan(_tail_plan_1d, mesh.box, mesh.h, s, q_sing)
    g_h = (lam * g[elements][:, None, :]).sum(axis=-1)
    return [(elements, w * g_h / (2.0 * s), lam)]
