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
multiplier norm estimates, and the resulting coercivity lower bound.  The
Poincare constant needs the smallest eigenvalue of a pencil on the
interior block and takes it from a dense generalized eigensolve.  A
multiplier estimate needs the two extreme eigenvalues of a pencil on the
full nodal space: it factors ``H = L L^T`` once (shared by all the
estimates of one call) and runs Lanczos with full reorthogonalization on
``L^{-1} F L^{-T}`` until the residual bounds of both extreme Ritz values
fall to ``1e-14`` of the estimate, which then matches the dense value to
1e-12 relative.  A Lanczos step costs about its two triangular solves:
the form is local (:class:`LocalForm`, a mass or potential form: 3
diagonals in 1D, 7 in 2D) and applied from its band in O(N); the basis
is preallocated and only its rows in use are touched; and the
convergence test computes only the two extreme Ritz values and the last
components of their eigenvectors, by bisection and inverse iteration on
the tridiagonal Lanczos matrix.  A mass matrix is solved from its lower
band by one banded Cholesky factor, in any dimension.  The Poincare
pencil takes the interior block of the mass matrix from its band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.linalg.lapack import dstebz, dstein, dtrtrs

from .assembly import KernelParams, LocalForm, SymForm
from .errors import CoercivityLost, EigenFailure, EmptyRegion, SupportViolation
from .mesh import Mesh

#: relative residual bound of the extreme Ritz values that stops Lanczos
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
    Gagliardo seminorm form (``(2/C_ns) * gform``) against the mass
    matrix over the compactly supported hats of ``Omega``; the derived
    constant is ``delta0 = 2 max(1, C_opt)``.

    Parameters
    ----------
    gform : SymForm
        The Gagliardo form of ``mesh``.
    mass : LocalForm
        The mass matrix of ``mesh``.

    Returns
    -------
    dict with keys ``C_opt`` and ``delta0``.
    """
    dofs = mesh.interior_dofs
    if dofs.size == 0:
        raise EmptyRegion("region has no interior degrees of freedom")
    G = (2.0 / params.C_ns) * gform.block(dofs, dofs)
    M = mass.block(dofs, dofs)
    try:
        lam_min = float(la.eigh(G, M, subset_by_index=[0, 0], eigvals_only=True,
                                check_finite=False)[0])
    except la.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    if lam_min <= 0:
        raise EigenFailure(f"nonpositive seminorm eigenvalue {lam_min}")
    c_opt = 1.0 / lam_min
    return {"C_opt": float(c_opt), "delta0": float(2.0 * max(1.0, c_opt))}


def multiplier_norm_estimate(form: LocalForm, *, gform: SymForm,
                             mass: LocalForm) -> float:
    """Discrete estimate of the Sobolev multiplier norm of a pairing form.

    Largest absolute generalized eigenvalue of ``form`` (the potential
    form of ``q``, or another local, banded form) against the discrete
    ``H^s`` inner product ``H = gform + mass``, taken over the full nodal
    space.  This is a lower bound on the true multiplier norm (the
    supremum is restricted to the nodal subspace) and is reported as
    such.  ``H = L L^T`` is factored in place and the two extreme
    eigenvalues come from Lanczos on ``L^{-1} F L^{-T}`` (see
    :func:`_lanczos_extreme`).

    No pipeline calls it: each takes its estimates on one factor from
    :func:`multiplier_norm_estimates`.  It stays as the name under which
    the benchmark's tracer times the eigen solves.
    """
    return multiplier_norm_estimates([form], gform=gform, mass=mass)[0]


def multiplier_norm_estimates(forms, *, gform: SymForm, mass: LocalForm) -> list:
    """:func:`multiplier_norm_estimate` of each of the local ``forms``,
    all on one factor of ``H = gform + mass``."""
    # H is symmetric: its transpose is the same matrix in the Fortran order
    # that lets the factor overwrite it instead of a copy
    H = (gform + mass).entries.T
    try:
        L = la.cholesky(H, lower=True, overwrite_a=True, check_finite=False)
    except la.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    return [_lanczos_extreme(form, L) for form in forms]


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


def _lanczos_extreme(F: LocalForm, L) -> float:
    """``max |lambda|`` of ``L^{-1} F L^{-T}`` by Lanczos with full
    reorthogonalization from a fixed-seed start vector.

    Stops once the residual bound ``beta_k |s_k|`` of both extreme Ritz
    values is at most ``LANCZOS_TOL * max |theta|``, or when the Krylov
    space is exhausted.  A step is two triangular solves, a product with
    ``F`` from its band, two Gram--Schmidt passes over the basis rows in
    use, and the two extreme Ritz pairs.
    """
    n = L.shape[0]
    V = np.empty((n, n))  # the basis, a row per step: unused rows stay untouched
    alpha, beta = np.empty(n), np.empty(n)
    q = np.random.default_rng(0).standard_normal(n)
    V[0] = q / np.linalg.norm(q)
    for k in range(1, n + 1):
        # L is a Cholesky factor, never singular: the solves cannot fail
        y, _ = dtrtrs(L, V[k - 1], lower=1, trans=1)
        w, _ = dtrtrs(L, F @ y, lower=1)
        alpha[k - 1] = V[k - 1] @ w
        for _ in range(2):  # classical Gram-Schmidt, twice is enough
            w -= V[:k].T @ (V[:k] @ w)
        b = np.linalg.norm(w)
        (lo, s_lo), (hi, s_hi) = _extreme_ritz_pairs(alpha[:k], beta[:k - 1])
        extreme = max(abs(lo), abs(hi))
        if k == n or b * max(abs(s_lo), abs(s_hi)) <= LANCZOS_TOL * extreme:
            return float(extreme)
        beta[k - 1] = b
        V[k] = w / b


def _extreme_ritz_pairs(alpha, beta):
    """The smallest and the largest eigenvalue of the symmetric tridiagonal
    matrix with diagonal ``alpha`` and off-diagonal ``beta``, each with the
    last component of its unit eigenvector: bisection for the value,
    inverse iteration for the vector."""
    if alpha.size == 1:
        return [(alpha[0], 1.0)] * 2
    pairs = []
    for i in (1, alpha.size):
        _, w, block, split, info = dstebz(alpha, beta, 2, 0.0, 0.0, i, i, 0.0, "B")
        if info == 0:
            v, info = dstein(alpha, beta, w[:1], block, split)
        if info != 0:
            raise EigenFailure(f"Ritz pair {i} of {alpha.size} did not converge")
        pairs.append((w[0], v[-1, 0]))
    return pairs
