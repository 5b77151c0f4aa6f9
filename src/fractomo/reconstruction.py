"""Pointwise recovery of the diffusion from exterior measurements.

A sequence of smooth bumps concentrating at a point of the measurement
set, each normalized to unit discrete fractional energy, is fed through
the DN map; the diagonal pairings converge to the diffusion value at the
concentration point.  The normalization uses the assembled energy form
(``u^T A u``), so the limit is the diffusion value itself with no extra
convention factor; the absorption contribution vanishes at a rate
controlled by the interpolation estimate for the potential term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .assembly import Coefficients, KernelParams, SymForm, gagliardo_form, mass_matrix, potential_form
from .dnmap import DNOperator
from .errors import (
    DecayCheckFailed,
    ExponentOutOfRange,
    OutsideMeasurementSet,
    UnresolvableScale,
)
from .mesh import Mesh
from .profiles import bump

#: minimum width of a bump support, in mesh widths
MIN_SUPPORT_NODES = 4

#: number of trailing samples in the power-fit extrapolation
FIT_WINDOW = 5


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
    energies: list
    l2_norms: list = field(default_factory=list)
    mesh: Mesh = None

    def __len__(self):
        return len(self.scales)


def _region_bounds(mesh: Mesh, W) -> tuple:
    if isinstance(W, str):
        W = mesh.region_objects[W]
    return W.lower[0], W.upper[0]


def _resolved(mesh: Mesh, radius: float) -> bool:
    """Whether a support of this radius spans ``MIN_SUPPORT_NODES`` mesh
    widths (up to round-off in ``radius / h``)."""
    return radius >= 0.5 * MIN_SUPPORT_NODES * mesh.h * (1.0 - 1e-12)


def default_scales(mesh: Mesh, W, x0: float) -> list:
    """Geometric scale schedule ``2, 4, 8, ...`` while resolvable.

    Scales stop once the bump support either leaves the measurement set
    or spans fewer than ``MIN_SUPPORT_NODES`` mesh widths.  The test does
    not depend on where ``x0`` falls between nodes.
    """
    wl, wu = _region_bounds(mesh, W)
    scales = []
    N = 2
    while True:
        radius = 1.0 / N
        inside = (x0 - radius > wl) and (x0 + radius < wu)
        if inside and _resolved(mesh, radius):
            scales.append(N)
        elif scales:
            break
        N *= 2
        if N > 2 ** 24:
            break
    if not scales:
        raise UnresolvableScale("no admissible bump scale on this mesh")
    return scales


def bump_sequence(mesh: Mesh, params: KernelParams, W, x0: float, Ns=None, *,
                  gform: SymForm | None = None) -> BumpSequence:
    """Build the energy-normalized concentrating sequence at ``x0``.

    Parameters
    ----------
    W : Region or label
        Measurement set; ``x0`` must lie inside with positive distance
        to the boundary and every bump support must stay inside.
    Ns : list of int, optional
        Concentration scales (support radius ``1/N``); defaults to the
        geometric schedule of :func:`default_scales`.

    Raises
    ------
    OutsideMeasurementSet, UnresolvableScale
    """
    if mesh.n != 1:
        raise NotImplementedError("bump sequences are implemented for 1D meshes")
    wl, wu = _region_bounds(mesh, W)
    if not wl < x0 < wu:
        raise OutsideMeasurementSet(f"x0={x0} is not inside W=({wl}, {wu})")
    if Ns is None:
        Ns = default_scales(mesh, W, x0)
    if gform is None:
        gform = gagliardo_form(mesh, params)
    mass = mass_matrix(mesh)
    x = mesh.coords
    vectors, energies, l2s = [], [], []
    for N in Ns:
        radius = 1.0 / N
        if x0 - radius <= wl or x0 + radius >= wu:
            raise OutsideMeasurementSet(
                f"support of scale N={N} bump leaves W=({wl}, {wu})"
            )
        if not _resolved(mesh, radius):
            raise UnresolvableScale(
                f"scale N={N} support spans fewer than {MIN_SUPPORT_NODES} mesh widths"
            )
        phi = bump(N * (x - x0))
        raw = float(phi @ (gform.entries @ phi))
        c = 1.0 / math.sqrt(raw)
        phi = c * phi
        vectors.append(phi)
        energies.append(float(phi @ (gform.entries @ phi)))
        l2s.append(float(np.sqrt(phi @ (mass.entries @ phi))))
    if any(l2s[k + 1] >= l2s[k] for k in range(len(l2s) - 1)):
        raise UnresolvableScale("L2 norms of the bump sequence fail to decrease")
    return BumpSequence(
        center=float(x0), scales=list(Ns), vectors=vectors,
        energies=energies, l2_norms=l2s, mesh=mesh,
    )


def extrapolate_power_fit(scales, values) -> dict:
    """Least-squares fit ``value_N = g + a N^{-b}`` over a grid of rates.

    Only the last ``FIT_WINDOW`` samples enter the fit (the leading ones are
    outside the asymptotic regime).  Returns the fitted limit ``g``,
    amplitude ``a``, rate ``b`` and the fit residual.  With fewer than
    three samples the last value is returned as the limit.
    """
    scales = np.asarray(scales, dtype=float)[-FIT_WINDOW:]
    values = np.asarray(values, dtype=float)[-FIT_WINDOW:]
    if len(values) < 3:
        return {"limit": float(values[-1]), "amplitude": 0.0, "rate": 0.0,
                "fit_residual": float("nan")}
    best = None
    for b in np.linspace(0.1, 3.0, 117):
        basis = scales ** (-b)
        Amat = np.column_stack([np.ones_like(scales), basis])
        coef, *_ = np.linalg.lstsq(Amat, values, rcond=None)
        resid = float(np.linalg.norm(Amat @ coef - values))
        if best is None or resid < best[0]:
            best = (resid, coef[0], coef[1], b)
    resid, g, a, b = best
    return {"limit": float(g), "amplitude": float(a), "rate": float(b),
            "fit_residual": resid}


def exterior_reconstruct(mesh: Mesh, params: KernelParams, coeffs: Coefficients,
                         W, x0: float, Ns=None, *,
                         operator: DNOperator | None = None,
                         bumps: BumpSequence | None = None,
                         gform: SymForm | None = None) -> dict:
    """Evaluate the exterior reconstruction sequence at ``x0``.

    Computes ``estimate_N = <Lambda Phi_N, Phi_N>`` for the normalized
    bump sequence and extrapolates the limit, which recovers the
    diffusion value at ``x0`` (for a.e.-continuous diffusion there).

    Returns
    -------
    dict with ``samples`` (list of ``{"N": ..., "estimate": ...}``),
    ``extrapolated`` (power-fit limit) and the fit record.
    """
    if gform is None and bumps is None:
        gform = gagliardo_form(mesh, params)
    if bumps is None:
        bumps = bump_sequence(mesh, params, W, x0, Ns, gform=gform)
    op = operator or DNOperator(mesh, params, coeffs)
    samples = []
    for N, phi in zip(bumps.scales, bumps.vectors):
        samples.append({"N": int(N), "estimate": op.pairing(phi, phi)})
    fit = extrapolate_power_fit(
        [s["N"] for s in samples], [s["estimate"] for s in samples]
    )
    return {"samples": samples, "extrapolated": fit["limit"], "fit": fit}


def potential_decay_check(mesh: Mesh, q: np.ndarray, bumps: BumpSequence,
                          p: float, params: KernelParams, *,
                          tol: float = 0.25, strict: bool = True) -> list:
    """Decay of the absorption pairing along the bump sequence.

    Measures ``value_N = Phi_N^T M_q Phi_N`` and compares against the
    interpolation bound ``C * ||Phi_N||_L2^theta`` with the exponent

        ``theta = 2 - n/(s p)`` for ``n/(2s) < p <= n/s``, else ``1``,

    calibrating ``C`` on the first sample.  Returns records
    ``{"N", "value", "bound"}``.

    Raises
    ------
    ExponentOutOfRange
        If ``p <= n/(2s)``.
    DecayCheckFailed
        If ``strict`` and a value fails to decay or exceeds its bound by
        more than the tolerance.
    """
    n, s = params.n, params.s
    if not p > n / (2.0 * s):
        raise ExponentOutOfRange(
            f"integrability exponent p={p} must exceed n/(2s)={n/(2*s)}"
        )
    theta = 2.0 - n / (s * p) if p <= n / s else 1.0
    Mq = potential_form(mesh, np.asarray(q, dtype=float))
    values = [float(phi @ (Mq.entries @ phi)) for phi in bumps.vectors]
    norms = bumps.l2_norms
    if abs(values[0]) > 0:
        C = abs(values[0]) / norms[0] ** theta
    else:
        C = 0.0
    records = []
    for N, v, r in zip(bumps.scales, values, norms):
        records.append({"N": int(N), "value": v, "bound": C * r**theta})
    if strict:
        for k, rec in enumerate(records):
            if abs(rec["value"]) > rec["bound"] * (1.0 + tol) + 1e-300:
                raise DecayCheckFailed(
                    f"pairing {rec['value']:.3e} exceeds bound {rec['bound']:.3e} "
                    f"at N={rec['N']}"
                )
            if k and abs(records[k]["value"]) > abs(records[k - 1]["value"]) * (1.0 + tol):
                raise DecayCheckFailed("absorption pairing fails to decay")
    return records
