"""Fourier-multiplier evaluation of the fractional Laplacian.

Serves as the independent oracle for the quadrature-based assembly: the
operator is applied as ``F^{-1}(|xi|^{2s} F u)`` on a zero-padded,
periodized copy of the box grid.  Inputs must be compactly supported
well inside the box; the periodization error then comes only from the
algebraic kernel tails and is controlled by the padding factor.
"""

from __future__ import annotations

import numpy as np

from .assembly import KernelParams
from .errors import InsufficientPadding
from .mesh import Mesh

#: relative magnitude below which a nodal value counts as zero support
SUPPORT_THRESHOLD = 1e-6

#: required distance from the support to the box edge, as a fraction of
#: the box extent
MIN_MARGIN_FRACTION = 0.25


def _check_padding(mesh: Mesh, u: np.ndarray) -> None:
    umax = np.abs(u).max()
    if umax == 0.0:
        return
    supp = np.abs(u) > SUPPORT_THRESHOLD * umax
    pts = mesh.nodes[supp]
    lo = np.asarray(mesh.box.lower)
    up = np.asarray(mesh.box.upper)
    extent = (up - lo).max()
    margin = min(
        (pts - lo[None, :]).min(),
        (up[None, :] - pts).min(),
    )
    if margin < MIN_MARGIN_FRACTION * extent - 1e-12:
        raise InsufficientPadding(
            f"support margin {margin:.3g} is below "
            f"{MIN_MARGIN_FRACTION:.0%} of the box extent {extent:.3g}"
        )


def spectral_frac_laplacian(mesh: Mesh, params: KernelParams, u: np.ndarray,
                            pad_factor: int = 16) -> np.ndarray:
    """Pointwise values of the fractional Laplacian via the symbol ``|xi|^{2s}``.

    Parameters
    ----------
    mesh : Mesh
        Uniform grid carrying the nodal samples.
    params : KernelParams
    u : ndarray
        Nodal values, compactly supported with at least 25% zero-padding
        margin to the box edge (relative to the box extent).
    pad_factor : int
        The periodized transform grid is ``pad_factor`` times the box
        along every axis; the embedded copy is centered.  The result of
        applying the symbol decays only like ``|x|^{-n-2s}``, so the
        periodization error falls off slowly in the padding; the default
        keeps it below 1% of the field for s >= 0.1.

    Returns
    -------
    ndarray
        Nodal values of ``(-Delta)^s u`` on the mesh.

    Raises
    ------
    InsufficientPadding
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != mesh.num_nodes:
        raise ValueError("nodal vector has wrong length for this mesh")
    if params.n != mesh.n:
        raise ValueError("mesh and kernel params dimensions differ")
    _check_padding(mesh, u)
    m = np.asarray(mesh.shape) - 1  # periodic samples: drop the repeated edge
    P = pad_factor * m
    off = (P - m) // 2
    buf = np.zeros(P)
    buf[tuple(map(slice, off, off + m))] = u.reshape(mesh.shape)[tuple(map(slice, m))]
    xi = np.meshgrid(*(2.0 * np.pi * np.fft.fftfreq(p, d=mesh.h) for p in P),
                     indexing="ij", sparse=True)
    sym = sum(x ** 2 for x in xi) ** params.s
    out = np.fft.ifftn(sym * np.fft.fftn(buf)).real
    # the last node on each axis is the periodic image of the first
    return out[np.ix_(*((o + np.arange(k + 1)) % p
                        for o, k, p in zip(off, m, P)))].ravel()
