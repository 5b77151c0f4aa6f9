"""Reduction of the weighted-diffusion problem to a fractional
Schroedinger problem.

The reduced potential combines the weak fractional Laplacian of the
background deviation ``m = sqrt(gamma) - 1`` with the rescaled
absorption:

    ``Q = -(-Delta)^s m / sqrt(gamma) + q / gamma``.

Its discrete pairing form acts on nodal products re-interpolated onto
the hat basis, which makes the first part a diagonal matrix weighted by
the nodal values of the weak fractional Laplacian of ``m``, and the
second a similarity-scaled potential form.  Both residual checks below
quantify how well the discrete reduction reproduces the two exact
continuum identities: the form identity (energy of the original problem
equals the Schroedinger energy of the rescaled functions) and the DN
transfer identity between the two exterior maps.

These identities hold exactly only when the diffusion equals the
background value 1 near the box boundary (compactly supported
deviation); otherwise the zero extension of ``m`` introduces an
artificial jump at the truncation edge.
"""

from __future__ import annotations

import numpy as np

from .assembly import Coefficients, LocalForm, SymForm
from .dnmap import DNOperator, _require_agreement
from .errors import HypothesisViolation, NonPositiveGamma
from .mesh import region_dofs

#: epsilon-guard scale for relative residuals
GUARD = 1e-14


def _relative_defect(lhs: float, rhs: float) -> float:
    """``|lhs - rhs| / |lhs|``, guarded against a vanishing ``lhs``."""
    return abs(lhs - rhs) / (abs(lhs) + GUARD * max(1.0, abs(lhs), abs(rhs)))


def reduced_potential_form(coeffs: Coefficients, *, gform: SymForm,
                           qform: LocalForm) -> LocalForm:
    """Assemble the discrete pairing form of the reduced potential.

    The action on nodal vectors is

        ``v^T Q w = -(A m)^T Pi(gamma^{-1/2} v w)
                    + (gamma^{-1/2} v)^T M_q (gamma^{-1/2} w)``

    with ``A = gform`` the Gagliardo form, ``Pi`` nodal re-interpolation
    of the pointwise product and ``M_q = qform`` the potential form of
    ``coeffs.q``; symmetric by construction, and local like ``M_q``: the
    result is the band of ``M_q`` scaled on both sides, plus the diagonal
    of the first part.  For unit diffusion this is exactly the potential
    form of ``q``.
    """
    if coeffs.gamma.min() <= 0.0:
        raise NonPositiveGamma("diffusion must be positive")
    inv_sqrt = 1.0 / np.sqrt(coeffs.gamma)
    diagonal = -(gform @ coeffs.m_gamma) * inv_sqrt
    Q = qform.scaled(inv_sqrt)
    Q.band[Q.offsets.index(0)] += diagonal
    return Q


def schrodinger_form(coeffs: Coefficients, *, gform: SymForm,
                     qform: LocalForm) -> SymForm:
    """System form of the reduced problem: Gagliardo + reduced potential."""
    return gform + reduced_potential_form(coeffs, gform=gform, qform=qform)


def liouville_residual(coeffs: Coefficients, u: np.ndarray, phi: np.ndarray, *,
                       cond_form: SymForm, gform: SymForm,
                       qform: LocalForm) -> float:
    """Relative defect of the form identity
    ``B_{gamma,q}(u, phi) = B_Q(sqrt(gamma) u, sqrt(gamma) phi)``.

    ``cond_form`` is the system form of ``coeffs`` (conductivity plus
    potential form), ``gform`` the Gagliardo form and ``qform`` the
    potential form of ``coeffs.q``.  Exact (to
    round-off) for unit diffusion; for smooth non-constant diffusion the
    defect is the nodal re-interpolation error and decays under mesh
    refinement.
    """
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lhs = float(u @ (cond_form @ phi))
    sq = np.sqrt(coeffs.gamma)
    S = schrodinger_form(coeffs, gform=gform, qform=qform)
    rhs = float((sq * u) @ (S @ (sq * phi)))
    return _relative_defect(lhs, rhs)


def dn_transfer_residual(operator: DNOperator, Gamma: np.ndarray, W,
                         f: np.ndarray, g: np.ndarray, *, gform: SymForm,
                         qform: LocalForm) -> float:
    """Relative defect of the DN transfer identity
    ``<Lambda_{gamma,q} f, g> = <Lambda_Q (Gamma^{1/2} f), Gamma^{1/2} g>``.

    The mesh and the pair ``(gamma, q)`` are those of ``operator``; the
    reduced problem is the DN operator of the Schroedinger form, with
    unit diffusion, on the same interior dofs.  ``gform`` is the
    Gagliardo form of the mesh and ``qform`` the potential form of ``q``.
    ``Gamma`` is any admissible diffusion agreeing with ``gamma`` on the
    measurement region ``W``;
    ``f, g`` must be supported in ``W``.  The right side solves the
    reduced Schroedinger problem with exterior datum ``Gamma^{1/2} f`` and
    pairs with ``Gamma^{1/2} g``.

    Raises
    ------
    HypothesisViolation
        If the diffusions differ on the nodes of ``W``, or ``f`` or ``g``
        is nonzero on an exterior node outside ``W``.
    SupportViolation
        If ``f`` or ``g`` has interior support; checked before the
        support in ``W``.
    """
    mesh, coeffs = operator.mesh, operator.coeffs
    Gamma = np.asarray(Gamma, dtype=float)
    _require_agreement(mesh, coeffs.gamma, Gamma, W,
                       "Gamma differs from gamma on the measurement set")
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    lhs = operator.pairing(f, g)
    nodes = region_dofs(mesh, W)
    if np.delete(f, nodes).any() or np.delete(g, nodes).any():
        raise HypothesisViolation("a datum is nonzero on a node outside the measurement set")

    reduced = DNOperator(mesh, operator.params, Coefficients.background(mesh),
                         form=schrodinger_form(coeffs, gform=gform, qform=qform))
    sqG = np.sqrt(Gamma)
    rhs = reduced.pairing(sqG * f, sqG * g)
    return _relative_defect(lhs, rhs)


def dn_difference_decomposition(op1: DNOperator, op2: DNOperator,
                                f: np.ndarray, *, gform: SymForm,
                                qform1: LocalForm, qform2: LocalForm) -> dict:
    """Three-term decomposition of ``<(Lambda_1 - Lambda_2) f, f>``.

    ``op1``, ``op2`` are the DN operators of the two coefficient pairs on
    one mesh, ``gform`` is the Gagliardo form of that mesh and ``qform1``,
    ``qform2`` are the potential forms of the two absorptions.  Returns
    the pairing difference, the three assembled terms (the deviation term
    driven by ``(-Delta)^s (m_2 - m_1)``, the potential difference term,
    and the solution-relation term) and the relative defect of the
    identity.  The datum ``f`` must be exterior-supported with one layer
    of exterior nodes around its support.  Each operator solves once for
    ``f``; the pairing difference reads the same solutions as the
    solution-relation term.

    Raises
    ------
    SupportViolation
        If ``f`` is nonzero on an interior dof.
    """
    f = np.asarray(f, dtype=float)
    pair1, pair2 = op1.coeffs, op2.coeffs
    u1 = op1.solve(f).u
    u2 = op2.solve(f).u
    # <Lambda_k f, f> = B_k(u_k, f), the arithmetic of DNOperator.pairing
    lhs = float(f @ (op1.form @ u1)) - float(f @ (op2.form @ u2))

    sq1 = np.sqrt(pair1.gamma)
    sq2 = np.sqrt(pair2.gamma)
    d_m = gform @ (pair2.m_gamma - pair1.m_gamma)
    term_m = float(d_m @ (sq1 * f * f))
    term_q = float(f @ (qform1 @ f - qform2 @ f))
    term_sol = float((sq1 * u1 - sq2 * u2) @ (gform @ (sq1 * f)))
    return {
        "pairing_difference": lhs,
        "deviation_term": term_m,
        "potential_term": term_q,
        "solution_term": term_sol,
        "residual": _relative_defect(lhs, term_m + term_q + term_sol),
    }
