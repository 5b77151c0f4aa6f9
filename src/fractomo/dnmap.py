"""Exterior Dirichlet-to-Neumann pairings and DN matrices.

The DN pairing of exterior data ``f`` against a test datum ``g`` is the
system bilinear form evaluated on the solution: ``<Lambda f, g> =
B(u_f, g)``.  Because the solution annihilates the interior rows of the
form, the value does not change when ``g`` is modified by any
interior-supported vector -- the discrete counterpart of representative
independence on the exterior quotient space.

DN matrices are finite sections over the compactly supported hat bases
of two measurement regions (or any set of exterior hats); all columns
reuse one interior factorization ``B_II = L L^T``.  The matrix is the
Schur complement ``B_RC - (L^{-1} B_IR)^T (L^{-1} B_IC)``: one
triangular solve over the source columns serves a square matrix, which
comes out exactly symmetric.  :class:`DNOperator` has two DN readers:
``matrix`` for a block of data (the only Schur complement of the system
form, and what the inverse side reads) and ``pairing`` for one datum
(the reference for representative independence, from its own full
solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import Coefficients, KernelParams, LocalForm, SymForm, _asymmetry
from .errors import HypothesisViolation, SupportViolation
from .mesh import Mesh, region_dofs, support_dofs
from .solver import FactorizedSystem


@dataclass
class DNMatrix:
    """Finite section ``entries[j, i] = <Lambda phi_i, phi_j>``.

    ``cols`` indexes the source basis (hats of W1), ``rows`` the
    receiver basis (hats of W2).
    """

    rows: np.ndarray
    cols: np.ndarray
    entries: np.ndarray

    def symmetry_defect(self) -> float:
        """Relative asymmetry; meaningful when rows == cols."""
        if self.rows.shape != self.cols.shape or not np.array_equal(self.rows, self.cols):
            raise ValueError("symmetry is only defined for identical bases")
        return _asymmetry(self.entries)


class DNOperator:
    """Discrete DN machinery for one coefficient pair.

    Factors the interior block of the assembled system form once and
    reads every solution, pairing and matrix column from that
    factorization.

    Parameters
    ----------
    mesh, params, coeffs
        Problem data.  The equation holds on ``Omega``: the interior
        unknowns are ``mesh.interior_dofs``.
    form : SymForm
        The assembled system form of ``coeffs``, e.g. conductivity plus
        potential form, or the Schroedinger form of a reduced problem.
    """

    def __init__(self, mesh: Mesh, params: KernelParams, coeffs: Coefficients, *,
                 form: SymForm):
        self.mesh = mesh
        self.params = params
        self.coeffs = coeffs
        self.form = form
        self.system = FactorizedSystem(form, mesh)

    def solve(self, f_ext: np.ndarray, far_field: float = 0.0):
        return self.system.solve(f_ext, far_field=far_field)

    def pairing(self, f: np.ndarray, g: np.ndarray, *,
                check_support: bool = True) -> float:
        """``<Lambda f, g> = B(u_f, g)`` for exterior-supported ``f, g``.

        ``check_support=False`` admits test representatives with interior
        components; the value is representative-independent because the
        solution annihilates the interior rows.
        """
        g = np.asarray(g, dtype=float)
        if check_support and np.abs(g[self.system.interior]).max(initial=0.0) > 0.0:
            raise SupportViolation("test datum has interior support")
        u = self.solve(f).u
        return float(g @ (self.form @ u))

    def matrix(self, W1, W2) -> DNMatrix:
        """DN matrix over the compactly supported hats of W1 and W2.

        ``W1`` and ``W2`` are measurement regions (or labels), or arrays
        of exterior node indices whose hats form the basis.  The DN matrix is the
        Schur complement ``D = B_RC - X_R^T X_C`` with ``X = L^{-1} B_I.``
        and ``B_II = L L^T`` the shared interior factor: one triangular
        solve over the source columns, and a second over the receiver
        rows only if they differ.  With ``rows == cols``, ``X_R = X_C``
        and ``D`` is exactly symmetric.
        """
        cols, rows = self._basis(W1), self._basis(W2)
        if cols.size == 0 or rows.size == 0:
            raise HypothesisViolation("measurement basis is empty")
        interior = self.system.interior
        X_C = self.system.solve_lower(self.form.block(interior, cols))
        X_R = (X_C if np.array_equal(rows, cols)
               else self.system.solve_lower(self.form.block(interior, rows)))
        entries = self.form.block(rows, cols) - X_R.T @ X_C
        return DNMatrix(rows=rows, cols=cols, entries=entries)

    def _basis(self, W) -> np.ndarray:
        """The node indices of a DN basis: ``support_dofs`` of a region or
        label, or ``W`` itself if it is an array of node indices."""
        if isinstance(W, np.ndarray):
            return W
        return support_dofs(self.mesh, W)


def _require_agreement(mesh: Mesh, gamma1, gamma2, W, message: str) -> None:
    """Raise ``HypothesisViolation(message)`` unless the two diffusions
    agree (to ``1e-13``) on the nodes of ``W``."""
    nodes = region_dofs(mesh, W)
    if not np.allclose(gamma1[nodes], gamma2[nodes], rtol=0.0, atol=1e-13):
        raise HypothesisViolation(message)


def solution_relation_residual(op1: DNOperator, op2: DNOperator, f: np.ndarray,
                               W2, *, mass: LocalForm) -> float:
    """Discrete defect of the solution relation
    ``sqrt(gamma_1) u^(1) = sqrt(gamma_2) u^(2)``.

    Solves the exterior-value problem of both DN operators (on the same
    mesh) with the same datum ``f`` and returns the relative
    mass-weighted L2 norm of ``sqrt(gamma_1) u^(1) - sqrt(gamma_2)
    u^(2)``; ``mass`` is the mass matrix of the mesh.  Small exactly when
    the hypotheses of the relation lemma hold discretely (diffusions
    agree on the receiver set and the DN data coincide in the limit).

    Raises
    ------
    HypothesisViolation
        If the diffusions differ on the nodes of ``W2`` or the datum
        covers all of the receiver basis.
    SupportViolation
        If ``f`` has interior support.
    """
    mesh = op1.mesh
    gamma1, gamma2 = op1.coeffs.gamma, op2.coeffs.gamma
    _require_agreement(mesh, gamma1, gamma2, W2,
                       "diffusions differ on the receiver set W2")
    f = np.asarray(f, dtype=float)
    supp = np.abs(f) > 0.0
    if supp[support_dofs(mesh, W2)].all():
        raise HypothesisViolation("datum support covers the whole receiver set")
    v1 = np.sqrt(gamma1) * op1.solve(f).u
    v2 = np.sqrt(gamma2) * op2.solve(f).u
    diff = v1 - v2
    num = float(np.sqrt(diff @ (mass @ diff)))
    den = float(np.sqrt(v1 @ (mass @ v1)))
    return num / den if den > 0 else num
