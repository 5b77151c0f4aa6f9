"""Pointwise recovery of the diffusion from exterior measurements.

A sequence of smooth bumps concentrating at a point of the measurement
set, each normalized to unit discrete fractional energy, is paired
against DN data: a DN matrix over the hats of the measurement set.  The
diagonal pairings converge to the diffusion value at the concentration
point.  The normalization uses the assembled energy form
(``u^T A u``), so the limit is the diffusion value itself with no extra
convention factor; the absorption contribution vanishes at a rate
controlled by the interpolation estimate for the potential term.
:func:`bump_sequence` is the one constructor of the sequence; a caller
that wants to reject bad scales before it assembles a form checks them
with :func:`bump_scales`, which needs only the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .assembly import KernelParams, LocalForm, SymForm
from .dnmap import DNMatrix
from .errors import (
    DecayCheckFailed,
    ExponentOutOfRange,
    OutsideMeasurementSet,
    SupportViolation,
    UnresolvableScale,
)
from .mesh import Mesh, resolve_region, support_dofs
from .profiles import bump

#: minimum width of a bump support, in mesh widths
MIN_SUPPORT_NODES = 4

#: number of trailing samples in the power-fit extrapolation
FIT_WINDOW = 5

#: the rates ``b`` the power fit tries
FIT_RATES = np.linspace(0.1, 3.0, 117)

#: the round-off of a fit's residual, in units of ``eps |values| / rho``
#: (see :func:`extrapolate_power_fit`); measured at most 0.52 on random
#: data, and at least 5 covers a basis that ``lstsq`` takes as rank one
_FIT_SLACK = 64

#: relative slack of the absorption decay check, on the bound and on the
#: step from one scale to the next
DECAY_TOL = 0.25


@dataclass
class BumpSequence:
    """Energy-normalized concentrating bumps in a measurement set.

    Each vector is ``c_N * bump(N (x - x0))`` with ``c_N`` chosen so the
    discrete energy is exactly one; supports are nested and shrink
    toward the center, and the L2 norms decrease strictly.
    """

    center: float
    scales: list
    vectors: list
    l2_norms: list = field(default_factory=list)

    def __len__(self):
        return len(self.scales)

    @property
    def support(self) -> np.ndarray:
        """The nodes on which some bump is nonzero, in increasing order:
        the smallest DN basis that :func:`exterior_reconstruct` accepts."""
        return np.flatnonzero(np.any(self.vectors, axis=0))


def _scale_errors(mesh: Mesh, W, x0: float, Ns):
    """Yield ``(N, error)`` for each scale of ``Ns``: the error that rules
    out the bump of scale ``N`` at ``x0``, or None if it is admissible.
    It is admissible if its support of radius ``1/N`` stays inside the
    measurement set ``W`` (a region) and spans ``MIN_SUPPORT_NODES`` mesh
    widths (up to round-off in ``radius / h``), and its P1 interpolant is
    nonzero only on the hats of ``W`` (:func:`support_dofs`), the basis of
    the DN matrix that :func:`exterior_reconstruct` reads."""
    wl, wu = W.lower[0], W.upper[0]
    off_hats = np.delete(mesh.coords, support_dofs(mesh, W))
    for N in Ns:
        radius = 1.0 / N
        if x0 - radius <= wl or x0 + radius >= wu:
            yield N, OutsideMeasurementSet(
                f"support of scale N={N} bump leaves W=({wl}, {wu})")
        elif radius < 0.5 * MIN_SUPPORT_NODES * mesh.h * (1.0 - 1e-12):
            yield N, UnresolvableScale(
                f"scale N={N} support spans fewer than {MIN_SUPPORT_NODES} mesh widths")
        else:
            nodes = off_hats[bump(N * (off_hats - x0)) != 0.0]
            yield N, (OutsideMeasurementSet(f"scale N={N} bump is nonzero at node "
                                            f"{nodes[0]:g}, whose hat leaves W=({wl}, {wu})")
                      if nodes.size else None)


def bump_scales(mesh: Mesh, W, x0: float, Ns=None) -> list:
    """The concentration scales of a bump sequence at ``x0`` in ``W``:
    ``Ns`` after checking them, or if ``Ns`` is None the admissible
    scales among ``2, 4, 8, ..., 2**24``.

    ``x0`` must lie inside ``W`` with positive distance to its boundary,
    the support of radius ``1/N`` of every bump must stay inside ``W``
    and span ``MIN_SUPPORT_NODES`` mesh widths, and every bump must be
    nonzero only on ``support_dofs(mesh, W)``.  The admissible default
    scales are consecutive; their radius test does not depend on where
    ``x0`` falls between nodes, their node test does.  Needs only the
    mesh, so a caller can check its inputs before assembling a form.

    Raises
    ------
    OutsideMeasurementSet, UnresolvableScale, UnknownRegion
    """
    W = resolve_region(mesh, W)
    wl, wu = W.lower[0], W.upper[0]
    if not wl < x0 < wu:
        raise OutsideMeasurementSet(f"x0={x0} is not inside W=({wl}, {wu})")
    if Ns is None:
        scales = [N for N, error in _scale_errors(mesh, W, x0,
                                                  [2**k for k in range(1, 25)])
                  if error is None]
        if not scales:
            raise UnresolvableScale("no admissible bump scale on this mesh")
        return scales
    for N, error in _scale_errors(mesh, W, x0, Ns):
        if error is not None:
            raise error
    return list(Ns)


def bump_sequence(mesh: Mesh, W, x0: float, Ns=None, *,
                  gform: SymForm, mass: LocalForm) -> BumpSequence:
    """Build the energy-normalized concentrating sequence at ``x0``: the
    one constructor of a :class:`BumpSequence` in the pipelines.

    Parameters
    ----------
    W : Region or label
        Measurement set; ``x0`` and the scales must pass
        :func:`bump_scales`, which this checks first.
    Ns : list of int, optional
        Concentration scales (support radius ``1/N``); defaults to the
        geometric schedule of :func:`bump_scales`.
    gform : SymForm
        The Gagliardo form of ``mesh``, whose energy normalizes the bumps;
        only its block on each bump's support is read, inside ``W``.
    mass : LocalForm
        The mass matrix of ``mesh``, which gives their L2 norms.

    Raises
    ------
    OutsideMeasurementSet, UnresolvableScale, UnknownRegion
        ``UnresolvableScale`` also if the L2 norms fail to decrease.
    """
    if mesh.n != 1:
        raise NotImplementedError("bump sequences are implemented for 1D meshes")
    Ns = bump_scales(mesh, W, x0, Ns)
    x = mesh.coords
    vectors, l2s = [], []
    for N in Ns:
        phi = bump(N * (x - x0))
        support = np.flatnonzero(phi)
        phi_s = phi[support]
        phi *= 1.0 / math.sqrt(float(phi_s @ (gform.block(support, support) @ phi_s)))
        vectors.append(phi)
        l2s.append(float(np.sqrt(phi @ (mass @ phi))))
    if any(l2s[k + 1] >= l2s[k] for k in range(len(l2s) - 1)):
        raise UnresolvableScale("L2 norms of the bump sequence fail to decrease")
    return BumpSequence(center=float(x0), scales=Ns, vectors=vectors, l2_norms=l2s)


def extrapolate_power_fit(scales, values) -> dict:
    """Least-squares fit ``value_N = g + a N^{-b}`` over a grid of rates.

    Only the last ``FIT_WINDOW`` samples enter the fit (the leading ones are
    outside the asymptotic regime).  Every rate is scored in closed form
    at once; ``lstsq`` re-solves the rates whose residual may be the
    smallest within round-off, and the first smallest in grid order wins,
    so the fit is the one that ``lstsq`` at every rate would pick.
    Returns the fitted limit ``g``, amplitude ``a``, rate ``b``, the fit
    residual, and ``rate_at_grid_edge``: whether ``b`` is an end of the
    rate grid :data:`FIT_RATES`, where the best fit may lie beyond the
    grid and the limit is suspect.  With fewer than three samples no fit is made: the
    last value is returned as the limit, the amplitude, rate and fit
    residual are None and ``rate_at_grid_edge`` is False.
    """
    scales = np.asarray(scales, dtype=float)[-FIT_WINDOW:]
    values = np.asarray(values, dtype=float)[-FIT_WINDOW:]
    if len(values) < 3:
        return {"limit": float(values[-1]), "amplitude": None, "rate": None,
                "fit_residual": None, "rate_at_grid_edge": False}
    # every rate's fit in closed form, its residual to within tol: the
    # round-off of either solve grows with the condition of the basis
    # [1, N^-b], rho its smallest over its largest singular value (to a
    # factor 2).  Only the rates that may hold the minimum are re-solved,
    # and all of them where a score is not finite.
    n = len(values)
    X = scales ** -FIT_RATES[:, None]
    Xc = X - X.mean(axis=1, keepdims=True)
    yc = values - values.mean()
    norm2 = np.einsum("ij,ij->i", Xc, Xc)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.linalg.norm(yc - (Xc @ yc / norm2)[:, None] * Xc, axis=1)
        rho = np.sqrt(n * norm2) / (n * (1.0 + X.mean(axis=1) ** 2) + norm2)
        tol = _FIT_SLACK * np.finfo(float).eps * np.linalg.norm(values) / rho
        near = ~(resid - tol > (resid + tol).min())
    best = None
    for b in FIT_RATES[near]:
        basis = scales ** (-b)
        Amat = np.column_stack([np.ones_like(scales), basis])
        coef, *_ = np.linalg.lstsq(Amat, values, rcond=None)
        resid = float(np.linalg.norm(Amat @ coef - values))
        if best is None or resid < best[0]:
            best = (resid, coef[0], coef[1], b)
    resid, g, a, b = best
    return {"limit": float(g), "amplitude": float(a), "rate": float(b),
            "fit_residual": resid,
            "rate_at_grid_edge": bool(b in (FIT_RATES[0], FIT_RATES[-1]))}


def exterior_reconstruct(dn: DNMatrix, bumps: BumpSequence) -> dict:
    """Evaluate the exterior reconstruction sequence on DN data.

    Computes ``estimate_N = <Lambda Phi_N, Phi_N> = Phi_N^T D Phi_N`` for
    the normalized bump sequence, with ``Phi_N`` restricted to the basis
    of the DN matrix ``D``, and extrapolates the limit, which recovers
    the diffusion value at the bumps' center (for a.e.-continuous
    diffusion there).

    Parameters
    ----------
    dn : DNMatrix
        DN data over the hats of the measurement set of the bumps, e.g.
        ``op.matrix(W, W)``; reads nothing else of the forward problem.
    bumps : BumpSequence
        Nodal bump vectors on the mesh of ``dn``.

    Returns
    -------
    dict with ``samples`` (list of ``{"N": ..., "estimate": ...}``),
    ``extrapolated`` (power-fit limit) and the fit record.

    Raises
    ------
    ValueError
        If the receiver and source bases of ``dn`` differ.
    SupportViolation
        If a bump is nonzero off the basis of ``dn``; this includes any
        interior entry, since no measurement-set hat is an interior hat.
    """
    if not np.array_equal(dn.rows, dn.cols):
        raise ValueError("the DN matrix needs identical receiver and source bases")
    Phi = np.column_stack(bumps.vectors)
    if np.delete(Phi, dn.cols, axis=0).any():
        raise SupportViolation("a bump is nonzero off the hats of the DN matrix")
    P = Phi[dn.cols]
    estimates = np.sum(P * (dn.entries @ P), axis=0)
    samples = [{"N": int(N), "estimate": float(e)}
               for N, e in zip(bumps.scales, estimates)]
    fit = extrapolate_power_fit(
        [s["N"] for s in samples], [s["estimate"] for s in samples]
    )
    return {"samples": samples, "extrapolated": fit["limit"], "fit": fit}


def potential_decay_check(qform: LocalForm, bumps: BumpSequence,
                          p: float, params: KernelParams) -> list:
    """Decay of the absorption pairing along the bump sequence.

    Measures ``value_N = Phi_N^T M_q Phi_N``, with ``M_q = qform`` the
    potential form of the absorption, and compares against the
    interpolation bound ``C * ||Phi_N||_L2^theta`` with the exponent

        ``theta = 2 - n/(s p)`` for ``n/(2s) < p <= n/s``, else ``1``,

    calibrating ``C`` on the first sample.  Returns records
    ``{"N", "value", "bound"}``.

    Raises
    ------
    ExponentOutOfRange
        If ``p <= n/(2s)``.
    DecayCheckFailed
        If a value fails to decay or exceeds its bound by more than
        ``DECAY_TOL``.
    """
    n, s = params.n, params.s
    if not p > n / (2.0 * s):
        raise ExponentOutOfRange(
            f"integrability exponent p={p} must exceed n/(2s)={n/(2*s)}"
        )
    theta = 2.0 - n / (s * p) if p <= n / s else 1.0
    values = [float(phi @ (qform @ phi)) for phi in bumps.vectors]
    norms = bumps.l2_norms
    C = abs(values[0]) / norms[0] ** theta if abs(values[0]) > 0 else 0.0
    records = [{"N": int(N), "value": v, "bound": C * r**theta}
               for N, v, r in zip(bumps.scales, values, norms)]
    for k, rec in enumerate(records):
        if abs(rec["value"]) > rec["bound"] * (1.0 + DECAY_TOL) + 1e-300:
            raise DecayCheckFailed(
                f"pairing {rec['value']:.3e} exceeds bound {rec['bound']:.3e} "
                f"at N={rec['N']}"
            )
        if k and abs(rec["value"]) > abs(records[k - 1]["value"]) * (1.0 + DECAY_TOL):
            raise DecayCheckFailed("absorption pairing fails to decay")
    return records
