"""Dirichlet solves and the coercivity tool chain.

The exterior-value problem is solved by restricting the assembled system
form to the interior degrees of freedom (the Lax--Milgram system): given
exterior data ``f`` and an interior source functional ``F`` the interior
block equation reads

    ``B_II u_I = F_I - B_IE f_E + c * tail_row_I``

where ``c`` is an optional constant far-field value on the box
complement.  The interior block is symmetric positive definite whenever
the potential stays in the admissible multiplier regime; loss of
positivity is reported as :class:`CoercivityLost`.  A solve reads only
the columns of ``B_IE`` on the support of the datum, and its energy
only those, the interior block, the datum's own block and the tail row;
:meth:`FactorizedSystem.solve_lower` applies half the factor, the one
triangular solve of a DN matrix.

The module also computes the discrete fractional Poincare constant, the
constant ``delta0 = 2 max(1, C_opt)`` derived from it, discrete Sobolev
multiplier norm estimates, and the resulting coercivity lower bound.
Both eigenvalue problems go through one Lanczos routine with full
reorthogonalization on ``L^{-1} A L^{-T}``, ``L`` a dense Cholesky
factor and ``A`` a local form applied from its band (:class:`LocalForm`,
a mass or potential form: 3 diagonals in 1D, 7 in 2D) in O(N).  A
multiplier estimate needs the two extreme eigenvalues of a pencil on the
full nodal space: it factors ``H = L L^T`` once (shared by all the
estimates of one call) and stops when the gap-refined error bounds
``min(r, r^2/delta)`` of both extreme Ritz values fall to ``1e-14`` of
the estimate, which then matches the dense value to 1e-12 relative.  The
Poincare constant needs the smallest eigenvalue of a pencil on the
interior block and takes it in shift-invert form: it factors the
seminorm block and stops on the largest eigenvalue of ``L^{-1} M_II
L^{-T}`` alone, since all of them are positive; ``M_II`` is applied from
the band of the mass matrix, never as a dense block.  A Lanczos step
costs about its two triangular solves: the basis is preallocated and
only its rows in use are touched, and the convergence test computes only
the Ritz values at the tested ends, their neighbours and the last
components of their eigenvectors, by bisection and inverse iteration on
the tridiagonal Lanczos matrix.  A mass matrix is solved from its lower
band by one banded Cholesky factor, in any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.linalg.lapack import dstebz, dstein, dtrtrs

from .assembly import KernelParams, LocalForm, SymForm
from .errors import CoercivityLost, EigenFailure, EmptyRegion, SupportViolation
from .mesh import Mesh

#: relative gap-refined error bound of the extreme Ritz values that stops Lanczos
LANCZOS_TOL = 1e-14


@dataclass
class DirichletSolution:
    """Solution record of one exterior-value problem.

    ``u`` equals the exterior datum exactly on non-interior dofs; the
    algebraic residual is relative to the interior right-hand side.
    """

    u: np.ndarray
    residual: float
    energy: float
    far_field: float = 0.0


class FactorizedSystem:
    """Interior-block factorization reused across many exterior data.

    The interior block is factored once by a dense Cholesky
    decomposition; every solve is a pair of triangular substitutions.

    Parameters
    ----------
    form : SymForm
        The system form (e.g. diffusion + potential).
    mesh : Mesh
    interior : ndarray, optional
        Interior dof indices; defaults to ``mesh.interior_dofs``, the
        compactly supported hats of ``Omega``.

    Raises
    ------
    CoercivityLost
        If the interior block is not positive definite.
    """

    def __init__(self, form: SymForm, mesh: Mesh, *, interior=None):
        self.form = form
        self.mesh = mesh
        if interior is None:
            interior = mesh.interior_dofs
        self.interior = np.asarray(interior, dtype=np.int64)
        if self.interior.size == 0:
            raise EmptyRegion("domain has no interior degrees of freedom")
        self.B_II = self.form.block(self.interior, self.interior)
        try:
            self._chol = la.cho_factor(self.B_II, lower=True, check_finite=False)
        except la.LinAlgError as exc:
            raise CoercivityLost(
                "interior block is not positive definite: " + str(exc)
            ) from None

    def solve(self, f_ext: np.ndarray, f_src: np.ndarray | None = None,
              far_field: float = 0.0) -> DirichletSolution:
        """Solve with exterior datum ``f_ext`` and interior source ``f_src``.

        ``f_ext`` is a full nodal vector that must vanish on the interior
        dofs; ``f_src`` is the interior load functional (full nodal vector,
        only interior entries are read).  ``far_field`` is the constant
        value of the datum on the box complement.
        """
        f_ext = np.asarray(f_ext, dtype=float)
        if f_ext.shape[0] != self.mesh.num_nodes:
            raise ValueError("exterior datum has wrong length")
        if np.abs(f_ext[self.interior]).max(initial=0.0) > 0.0:
            raise SupportViolation("exterior datum is nonzero on interior dofs")
        support = np.flatnonzero(f_ext)  # exterior dofs only, checked above
        f_s, tail_I = f_ext[support], self.form.tail_row[self.interior]
        load = self.form.block(self.interior, support) @ f_s
        rhs = -load
        if far_field != 0.0:
            rhs += far_field * tail_I
        if f_src is not None:
            f_src = np.asarray(f_src, dtype=float)
            if f_src.shape[0] != self.mesh.num_nodes:
                raise ValueError("interior source has wrong length")
            rhs += f_src[self.interior]
        u_I = la.cho_solve(self._chol, rhs, check_finite=False)
        u = f_ext.copy()
        u[self.interior] = u_I
        B_u = self.B_II @ u_I
        rnorm = np.linalg.norm(B_u - rhs)
        denom = np.linalg.norm(rhs)
        residual = rnorm / denom if denom > 0 else rnorm
        # B(u + c 1_ext, u + c 1_ext), read from the blocks of I and supp f
        B_ss = self.form.block(support, support)
        energy = u_I @ B_u + 2.0 * (u_I @ load) + f_s @ (B_ss @ f_s)
        if far_field != 0.0:
            energy -= 2.0 * far_field * (u_I @ tail_I + f_s @ self.form.tail_row[support])
            energy += far_field**2 * self.form.tail_row.sum()
        return DirichletSolution(
            u=u, residual=float(residual),
            energy=float(energy), far_field=float(far_field),
        )

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """``L^{-1} rhs`` with ``B_II = L L^T``, for a vector or a block of
        interior columns: half of a solve with ``B_II``."""
        # the factor is nonsingular: the solve cannot fail
        return dtrtrs(self._chol[0], rhs, lower=1)[0]


def mass_solve(mass: LocalForm, rhs: np.ndarray) -> np.ndarray:
    """``M^{-1} rhs`` for a symmetric positive definite mass matrix ``M``
    and a vector or a block of columns: ``M`` is local, so one banded
    Cholesky factor of its lower band serves every column.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``M`` is not positive definite.
    """
    lower = [(-offset, d) for offset, d in mass.diagonals() if offset <= 0]
    ab = np.zeros((max(k for k, _ in lower) + 1, mass.shape[0]))
    for k, diagonal in lower:
        ab[k, :diagonal.size] = diagonal
    return la.solveh_banded(ab, rhs, lower=True, check_finite=False)


# ---------------------------------------------------------------------------
# Poincare constant, multiplier estimate, coercivity bound
# ---------------------------------------------------------------------------

def poincare_constant(mesh: Mesh, params: KernelParams, *,
                      gform: SymForm, mass: LocalForm) -> dict:
    """Optimal discrete fractional Poincare constant of ``Omega``.

    ``C_opt`` is the reciprocal of the smallest eigenvalue of the raw
    Gagliardo seminorm form (``G = (2/C_ns) * gform``) against the mass
    matrix ``M`` over the compactly supported hats of ``Omega``; the
    derived constant is ``delta0 = 2 max(1, C_opt)``.

    The eigenvalue comes from Lanczos in shift-invert form: ``G_II = L
    L^T`` is factored, and ``C_opt`` is the largest eigenvalue of ``L^{-1}
    M_II L^{-T}`` (see :func:`_lanczos_extreme`).  ``M_II`` is applied
    from the band of ``mass`` (scatter, band product, gather); only that
    end is tested, since ``M_II`` is positive definite and so is the
    whole spectrum.

    Parameters
    ----------
    gform : SymForm
        The Gagliardo form of ``mesh``.
    mass : LocalForm
        The mass matrix of ``mesh``.

    Returns
    -------
    dict with keys ``C_opt`` and ``delta0``.

    Raises
    ------
    EigenFailure
        If the seminorm block ``G_II`` is not positive definite.
    """
    dofs = mesh.interior_dofs
    if dofs.size == 0:
        raise EmptyRegion("region has no interior degrees of freedom")
    G = gform.block(dofs, dofs)
    G *= 2.0 / params.C_ns
    # G is symmetric: its transpose is the same matrix in the Fortran order
    # that lets the factor overwrite it instead of a copy
    try:
        L = la.cholesky(G.T, lower=True, overwrite_a=True, check_finite=False)
    except la.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    full = np.zeros(mesh.num_nodes)

    def mass_ii(y):
        full[dofs] = y
        return (mass @ full)[dofs]

    c_opt = _lanczos_extreme(L, mass_ii, positive=True)
    return {"C_opt": float(c_opt), "delta0": float(2.0 * max(1.0, c_opt))}


def multiplier_norm_estimate(forms, *, gform: SymForm, mass: LocalForm) -> list:
    """Discrete estimates of the Sobolev multiplier norms of pairing forms.

    For each of the local ``forms`` (the potential form of ``q``, or
    another local, banded form), in order, the largest absolute
    generalized eigenvalue of the form against the discrete ``H^s`` inner
    product ``H = gform + mass``, taken over the full nodal space.  This
    is a lower bound on the true multiplier norm (the supremum is
    restricted to the nodal subspace) and is reported as such.  ``H = L
    L^T`` is factored once, in place, for all the forms, and the two
    extreme eigenvalues of each come from Lanczos on ``L^{-1} F L^{-T}``,
    stopped when the gap-refined bounds of both have converged (see
    :func:`_lanczos_extreme`).

    Both ends are tested for every form, a positive semidefinite one too:
    a potential form with ``q >= 0`` is one (``u^T F u`` integrates
    ``q_h u^2``, ``q_h >= 0`` the P1 interpolant), and its run waits for
    the smallest Ritz value to converge into the eigenvalues at 0.  For
    ``q = 0.2 bump(x / 0.4)`` on the box ``(-2.25, 3.25)`` that takes 96
    steps at N = 705 and 190 at N = 1409, against 25 and 24 for the
    reduced-potential form of the same coefficients
    (``tools/engine_timing.py``).
    """
    # H is symmetric: its transpose is the same matrix in the Fortran order
    # that lets the factor overwrite it instead of a copy
    H = (gform + mass).entries.T
    try:
        L = la.cholesky(H, lower=True, overwrite_a=True, check_finite=False)
    except la.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    return [_lanczos_extreme(L, form.__matmul__) for form in forms]


def coercivity_bound(gamma0: float, delta0: float, q_small_norm: float) -> float:
    """Coercivity constant ``alpha = gamma0/delta0 - ||q_1||_s``.

    The caller decides admissibility by ``alpha > 0``; a nonpositive
    value signals that the small multiplier part of the potential is too
    large for the Lax--Milgram argument.
    """
    if not gamma0 > 0:
        raise ValueError("gamma0 must be positive")
    if not delta0 >= 2.0:
        raise ValueError("delta0 = 2 max(1, C_opt) is at least 2")
    return float(gamma0 / delta0 - q_small_norm)


def _lanczos_extreme(L, apply, *, positive: bool = False) -> float:
    """``max |lambda|`` of ``L^{-1} A L^{-T}``, where ``apply(y)`` returns
    ``A @ y`` for a symmetric ``A``, by Lanczos with full
    reorthogonalization from a fixed-seed start vector.

    A Ritz value ``theta`` has converged when its gap-refined bound
    ``min(r, r^2 / delta)`` (Parlett, *The Symmetric Eigenvalue Problem*,
    Sec. 11-7) is at most ``LANCZOS_TOL * max |theta|``: ``r = beta_k
    |s_k|`` is its residual bound and ``delta`` the distance to the
    neighbouring Ritz value.  Lanczos stops once the smallest and the
    largest Ritz value have converged (an indefinite ``A`` may have its
    largest ``|lambda|`` at either end) or, with ``positive`` (``A``
    positive definite, so every eigenvalue is positive), once the largest
    has; or when the Krylov space is exhausted.  A step is two triangular
    solves, one ``apply``, two Gram--Schmidt passes over the basis rows
    in use, and the Ritz pairs at the tested ends.
    """
    n = L.shape[0]
    V = np.empty((n, n))  # the basis, a row per step: unused rows stay untouched
    alpha, beta = np.empty(n), np.empty(n)
    q = np.random.default_rng(0).standard_normal(n)
    V[0] = q / np.linalg.norm(q)
    for k in range(1, n + 1):
        # L is a Cholesky factor, never singular: the solves cannot fail
        y, _ = dtrtrs(L, V[k - 1], lower=1, trans=1)
        w, _ = dtrtrs(L, apply(y), lower=1)
        alpha[k - 1] = V[k - 1] @ w
        for _ in range(2):  # classical Gram-Schmidt, twice is enough
            w -= V[:k].T @ (V[:k] @ w)
        b = np.linalg.norm(w)
        T = alpha[:k], beta[:k - 1]
        ends = [(i, *_ritz_pair(*T, i)) for i in ((k,) if positive else (1, k))]
        extreme = max(abs(theta) for _, theta, _ in ends)
        if k == n or all(_converged(T, i, b * abs(s), extreme) for i, _, s in ends):
            return float(extreme)
        beta[k - 1] = b
        V[k] = w / b


def _converged(T, i, r, extreme) -> bool:
    """Whether ``min(r, r^2 / delta) <= LANCZOS_TOL * extreme`` for the
    Ritz value ``i`` of ``T`` with residual bound ``r``.  Past ``r``
    itself the test reads ``r^2 <= tol * delta``; ``delta`` is at most
    the spread of the Ritz values, ``2 * extreme``, so the neighbouring
    value is computed only when that bound lets the test pass."""
    tol = LANCZOS_TOL * extreme
    if r <= tol:
        return True
    return r * r <= 2.0 * tol * extreme and r * r <= tol * _ritz_gap(*T, i)


def _ritz_pair(alpha, beta, i):
    """The ``i``-th smallest eigenvalue of the symmetric tridiagonal
    matrix with diagonal ``alpha`` and off-diagonal ``beta``, and the last
    component of its unit eigenvector: bisection for the value, inverse
    iteration for the vector."""
    if alpha.size == 1:
        return alpha[0], 1.0
    _, w, block, split, info = dstebz(alpha, beta, 2, 0.0, 0.0, i, i, 0.0, "B")
    if info == 0:
        v, info = dstein(alpha, beta, w[:1], block, split)
    if info != 0:
        raise EigenFailure(f"Ritz pair {i} of {alpha.size} did not converge")
    return w[0], v[-1, 0]


def _ritz_gap(alpha, beta, i):
    """Distance from the ``i``-th eigenvalue of that matrix, ``i`` at one
    end of the spectrum, to the next one inward (0 for a 1 x 1 matrix,
    which has none)."""
    k = alpha.size
    if k == 1:
        return 0.0
    first = min(i, k - 1)
    _, w, _, _, info = dstebz(alpha, beta, 2, 0.0, 0.0, first, first + 1, 0.0, "E")
    if info != 0:
        raise EigenFailure(f"Ritz values {first}, {first + 1} of {k} did not converge")
    return w[1] - w[0]
