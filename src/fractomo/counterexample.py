"""Constructive non-uniqueness pair for the exterior problem.

Builds a diffusion/absorption pair ``(gamma_1, q_1)`` distinct from the
background ``(1, 0)`` whose DN data on a measurement set ``W`` agree
with the background data, while ``q_1`` does not vanish on ``W``:

1. solve the homogeneous fractional Dirichlet problem on a dilation of
   an interior set ``Omega'`` with exterior datum a smooth cutoff
   ``eta`` (equal to 1 on a seed set ``omega``); the discrete maximum
   principle keeps the solution nonnegative,
2. mollify with the standard kernel of width ``eps`` and scale by

   ``C_eps = eps^{n/2} / (2 |B_1|^{1/2} ||rho||_inf^{1/2} ||m~||_L2)``

   which caps the deviation at 1/2,
3. set ``gamma_1 = (1 + m)^2`` and define the absorption nodally from
   the weak fractional Laplacian of the deviation,
   ``q_1 = sqrt(gamma_1) * M^{-1}(A m)``.

By construction the reduced Schroedinger potential of the pair vanishes
identically, the deviation vanishes on ``W`` (so ``gamma_1 = 1`` there
exactly), and the absorption on ``W`` equals the weak fractional
Laplacian of ``m`` -- the three conditions that characterize equal DN
data against the background.

The construction only needs the 5-eps dilations of ``Omega'`` and
``omega`` and the set ``W`` to be pairwise disjoint; the seed ``omega``
may sit in the exterior (default layout, following the geometric
figure of the construction) or inside ``Omega`` away from ``Omega'``
(the text layout); both are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import Coefficients, LocalForm, SymForm
from .dnmap import DNOperator
from .errors import GeometryViolation, NegativeSolution
from .mesh import Mesh, Region, region_dofs, support_dofs
from .profiles import mollifier_kernel, plateau
from .reduction import reduced_potential_form
from .solver import (
    FactorizedSystem,
    coercivity_bound,
    mass_solve,
    multiplier_norm_estimate,
    poincare_constant,
)

#: volume of the unit ball per dimension
UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi}

#: tolerance of the discrete maximum principle check
MAX_PRINCIPLE_TOL = 1e-9

#: random interior-supported test pairs behind ``q_form_residual``
NUM_TEST_PAIRS = 20


@dataclass
class CounterexamplePair:
    """Constructed pair and the intermediate fields it was built from.

    ``coeffs`` bundles ``gamma_1`` and ``q_1``; ``m`` is the scaled,
    mollified deviation actually used in the construction, ``q_raw =
    M^{-1}(A m)`` its weak fractional Laplacian, ``m_tilde`` the unscaled
    s-harmonic extension of the cutoff, ``c_eps`` the scaling constant
    from the formula above and ``scale`` the optional extra factor on
    top of it.  The construction sets, ``eps`` and the cutoff ``eta``
    are not kept: they are the caller's inputs or follow from them.
    """

    coeffs: Coefficients
    m: np.ndarray
    q_raw: np.ndarray
    m_tilde: np.ndarray
    c_eps: float
    scale: float

    @property
    def gamma1(self) -> np.ndarray:
        return self.coeffs.gamma

    @property
    def q1(self) -> np.ndarray:
        return self.coeffs.q


def check_geometry(mesh: Mesh, omega_prime: Region, omega_set: Region,
                   eps: float, W: Region) -> None:
    """Raise :class:`GeometryViolation` unless the 5-eps dilations of
    ``Omega'`` and ``omega`` and the set ``W`` are pairwise disjoint and
    inside the box of ``mesh``, and ``Omega'(5eps)`` lies in ``Omega``
    where the mesh declares it.

    The relations are :meth:`Region.intersects_closed` and
    :meth:`Region.within`, under the coordinate tolerance of
    :mod:`fractomo.mesh`.  Needs only the mesh, so a caller can check its
    inputs before assembling a form.
    """
    op5 = omega_prime.dilate(5 * eps)
    om5 = omega_set.dilate(5 * eps)
    for name, a, b in (
        ("Omega'(5eps) and omega(5eps)", op5, om5),
        ("Omega'(5eps) and W", op5, W),
        ("omega(5eps) and W", om5, W),
    ):
        if a.intersects_closed(b):
            raise GeometryViolation(f"{name} intersect")
    for name, r in (("Omega'(5eps)", op5), ("omega(5eps)", om5), ("W", W)):
        if not r.within(mesh.box):
            raise GeometryViolation(f"{name} leaves the computational box")
    if "Omega" in mesh.regions and not op5.within(mesh.regions["Omega"]):
        raise GeometryViolation("Omega'(5eps) is not contained in Omega")


def build_pair(mesh: Mesh, omega_prime: Region, omega_set: Region, eps: float,
               W: Region, *, gform: SymForm, mass: LocalForm, scale: float = 1.0,
               eta_amplitude: float = 1.0) -> CounterexamplePair:
    """Run the construction; see the module docstring.

    Parameters
    ----------
    omega_prime : Region
        Interior set ``Omega'`` on whose 2-eps dilation the deviation is
        s-harmonic.
    omega_set : Region
        Seed set of the cutoff (``eta = 1`` there).
    eps : float
        Dilation/mollification width; the 5-eps dilations of the two
        construction sets and ``W`` must be pairwise disjoint and inside
        the box.
    scale : float
        Extra factor in (0, 1] on top of ``C_eps``; shrinking the
        deviation shrinks the multiplier norm of ``q_1`` at will.
    gform, mass : SymForm
        The Gagliardo form and the mass matrix of ``mesh``.

    Raises
    ------
    GeometryViolation, NegativeSolution
        The geometry is checked by :func:`check_geometry`.
    """
    if mesh.n != 1:
        raise NotImplementedError("the construction pipeline is 1D")
    if eps <= 0 or not 0.0 < scale <= 1.0:
        raise ValueError("need eps > 0 and 0 < scale <= 1")
    check_geometry(mesh, omega_prime, omega_set, eps, W)

    x = mesh.coords

    # cutoff eta: 1 on omega, supported strictly inside its 3-eps
    # dilation (zero amplitude degenerates the pair to the background)
    (ol,), (ou,) = omega_set.lower, omega_set.upper
    eta = eta_amplitude * plateau(x, (ol, ou), (ol - 2.5 * eps, ou + 2.5 * eps))

    # s-harmonic extension of eta across Omega'(2eps)
    solve_region = omega_prime.dilate(2 * eps)
    interior = support_dofs(mesh, solve_region)
    # G @ m below reads all of gform, and the extension reads it beyond
    # its window (eta lies past W): one evaluation in full serves both
    G = gform.entries
    sol = FactorizedSystem(gform, mesh, interior=interior).solve(eta)
    m_tilde = sol.u
    if m_tilde.min() < -MAX_PRINCIPLE_TOL:
        raise NegativeSolution(
            f"s-harmonic extension dips to {m_tilde.min():.3e}, "
            "violating the maximum principle"
        )
    m_tilde = np.maximum(m_tilde, 0.0)

    # mollification and the capping scale
    kernel = mollifier_kernel(eps, mesh.h, mesh.n)
    smoothed = np.convolve(m_tilde, kernel, mode="same") * mesh.h
    rho_inf = float(kernel.max() * eps**mesh.n)
    m_tilde_l2 = float(np.sqrt(m_tilde @ (mass @ m_tilde)))
    if m_tilde_l2 > 0.0:
        c_eps = eps ** (mesh.n / 2.0) / (
            2.0 * np.sqrt(UNIT_BALL_VOLUME[mesh.n]) * np.sqrt(rho_inf) * m_tilde_l2
        )
    else:
        c_eps = 0.0  # degenerate cutoff: the pair equals the background
    m = scale * c_eps * smoothed

    gamma1 = (1.0 + m) ** 2
    q_raw = mass_solve(mass, G @ m)
    q1 = (1.0 + m) * q_raw
    coeffs = Coefficients.from_arrays(gamma1, q1)
    return CounterexamplePair(coeffs=coeffs, m=m, q_raw=q_raw, m_tilde=m_tilde,
                              c_eps=float(c_eps), scale=float(scale))


def verify_nonuniqueness(pair: CounterexamplePair, W: Region | str, *,
                         operator: DNOperator, gform: SymForm, qform: LocalForm,
                         mass: LocalForm, seed: int = 0) -> dict:
    """Measure how well the pair reproduces the background DN data.

    ``operator`` is the DN operator of ``pair.coeffs`` and carries the
    mesh and the kernel parameters.  ``gform`` is the Gagliardo form of
    the mesh, which is also the background's system form, ``qform`` the
    potential form of ``pair.q1`` and ``mass`` the mass matrix of the
    mesh.  Returns a report with

    * ``dn_gap``: relative Frobenius gap between the DN matrices of the
      pair and of the background over the hat basis of ``W``,
    * ``q_gap``: share of the absorption's L2 mass on ``W`` (must stay
      bounded away from zero -- the pair is genuinely different there),
    * ``q_form_residual``: size of the reduced-potential form on random
      interior-supported test pairs (zero in the continuum),
    * ``q_form_norm``: discrete multiplier-norm estimate of the reduced
      potential form,
    * ``condition3_residual``: defect of ``(-Delta)^s m = q_1`` on the
      nodes of ``W``,
    * ``gamma_deviation_on_W``: max of ``|gamma_1 - 1|`` on ``W`` nodes,
    * ``m_min``, ``m_sup``: range of the deviation,
    * ``multiplier_estimate`` vs ``gamma0/delta0``: admissibility of the
      constructed absorption.
    """
    mesh, params = operator.mesh, operator.params
    op_bg = DNOperator(mesh, params, Coefficients.background(mesh), form=gform)
    dn_pair = operator.matrix(W, W)
    dn_bg = op_bg.matrix(W, W)
    gap = np.linalg.norm(dn_pair.entries - dn_bg.entries)
    gap /= np.linalg.norm(dn_bg.entries)

    w_nodes = region_dofs(mesh, W)
    q1 = pair.q1
    l2_all = np.sqrt(mesh.h * float(q1 @ q1))
    l2_W = np.sqrt(mesh.h * float(q1[w_nodes] @ q1[w_nodes]))
    q_gap = l2_W / l2_all if l2_all > 0 else 0.0

    Q = reduced_potential_form(pair.coeffs, gform=gform, qform=qform)
    # test pair k is (v, w) = columns (2k, 2k + 1), drawn in that order
    rng = np.random.default_rng(seed)
    interior = mesh.interior_dofs
    X = np.zeros((mesh.num_nodes, 2 * NUM_TEST_PAIRS))
    X[interior] = rng.standard_normal((2 * NUM_TEST_PAIRS, interior.size)).T
    Xv, Xw = X[:, 0::2], X[:, 1::2]
    h_norm = np.sqrt(np.sum(X * (gform @ X), axis=0)
                     + np.sum(X * (mass @ X), axis=0))
    val = np.abs(np.sum(Xv * (Q @ Xw), axis=0))
    q_form_residual = (val / (h_norm[0::2] * h_norm[1::2])).max()
    q_form_norm, mult = multiplier_norm_estimate((Q, qform), gform=gform, mass=mass)

    cond3 = np.abs(pair.q_raw[w_nodes] - q1[w_nodes]).max()
    cond3 /= max(1.0, np.abs(q1).max())

    pc = poincare_constant(mesh, params, gform=gform, mass=mass)
    gamma0, delta0 = pair.coeffs.gamma0, pc["delta0"]

    return {
        "schema": "fractomo.nonuniqueness-report.v1",
        "dn_gap": float(gap),
        "q_gap": float(q_gap),
        "q_l2_on_W": float(l2_W),
        "q_form_residual": float(q_form_residual),
        "q_form_norm": float(q_form_norm),
        "condition3_residual": float(cond3),
        "gamma_deviation_on_W": float(np.abs(pair.gamma1[w_nodes] - 1.0).max()),
        "m_min": float(pair.m.min()),
        "m_sup": float(np.abs(pair.m).max()),
        "multiplier_estimate": float(mult),
        "admissibility_threshold": float(gamma0 / delta0),
        "admissible": coercivity_bound(gamma0, delta0, mult) > 0,
        "c_eps": pair.c_eps,
        "scale": pair.scale,
    }
