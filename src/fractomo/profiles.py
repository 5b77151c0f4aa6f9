"""Smooth profile functions: bumps, plateaus, mollifiers, presets.

All profiles are vectorized over coordinate arrays and infinitely
smooth; they provide the compactly supported test functions for the
reconstruction sequence, the cutoff of the non-uniqueness construction,
and the named coefficient presets of the configuration format.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def bump(y: np.ndarray) -> np.ndarray:
    """Standard smooth bump ``exp(-1/(1-|y|^2))`` on ``|y| < 1``.

    Accepts coordinates of shape (...,) in 1D or (..., n); the radial
    profile is applied to the Euclidean norm.  Not normalized.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim > 1:
        r2 = (y**2).sum(axis=-1)
    else:
        r2 = y**2
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly rising between."""
    t = np.asarray(t, dtype=float)

    def sigma(v):
        out = np.zeros_like(v)
        pos = v > 0.0
        out[pos] = np.exp(-1.0 / v[pos])
        return out

    a = sigma(t)
    b = sigma(1.0 - t)
    return a / (a + b)


def plateau(x: np.ndarray, inner: tuple, outer: tuple) -> np.ndarray:
    """Smooth plateau: 1 on ``[inner]``, 0 outside ``[outer]`` (1D).

    ``inner`` must be strictly inside ``outer``; the two ramps are
    smoothstep transitions.
    """
    il, iu = inner
    ol, ou = outer
    if not ol < il < iu < ou:
        raise ValueError("plateau needs outer_lo < inner_lo < inner_hi < outer_hi")
    x = np.asarray(x, dtype=float)
    up = smoothstep((x - ol) / (il - ol))
    down = smoothstep((ou - x) / (ou - iu))
    return up * down


def mollifier_kernel(eps: float, h: float, n: int = 1) -> np.ndarray:
    """Grid samples of the standard mollifier of width ``eps``.

    Returns the kernel on the symmetric stencil of spacing ``h`` that
    covers ``(-eps, eps)`` (the tensor stencil over ``n`` axes),
    renormalized to unit discrete integral: ``h^n * sum == 1``.
    """
    m = int(np.ceil(eps / h))
    offsets = h * np.arange(-m, m + 1)
    vals = bump(np.stack(np.meshgrid(*[offsets / eps] * n, indexing="ij"), axis=-1))
    total = vals.sum() * h**n
    if total <= 0.0:
        raise ValueError("mollifier width is unresolvable on this grid")
    return vals / total


# ---------------------------------------------------------------------------
# named coefficient presets (configuration surface)
# ---------------------------------------------------------------------------

def evaluate_preset(spec: str, x: np.ndarray) -> np.ndarray:
    """Nodal values of a named coefficient preset (1D coordinates).

    Grammar (arguments separated by commas):

    * ``constant:VALUE``
    * ``gaussian:BASE,AMP,CENTER,WIDTH``      -> base + amp*exp(-((x-c)/w)^2)
    * ``plateau:BASE,AMP,IL,IU,OL,OU``        -> base + amp*plateau(x)
    * ``bump:BASE,AMP,CENTER,RADIUS``         -> base + amp*bump((x-c)/r)
    * ``piecewise:x0,v0,x1,v1,...``           -> left-continuous steps
    * ``table:x0,v0,x1,v1,...``               -> linear interpolation
    """
    x = np.asarray(x, dtype=float)
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    try:
        args = [float(a) for a in rest.split(",") if a.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"preset {spec!r}: non-numeric argument ({exc})") from None
    if not np.isfinite(args).all():
        raise ConfigError(f"preset {spec!r}: arguments must be finite")
    if name == "constant":
        _need(spec, args, 1)
        return np.full_like(x, args[0])
    if name == "gaussian":
        _need(spec, args, 4)
        base, amp, c, w = args
        if w <= 0:
            raise ConfigError(f"preset {spec!r}: width must be positive")
        return base + amp * np.exp(-(((x - c) / w) ** 2))
    if name == "plateau":
        _need(spec, args, 6)
        base, amp, il, iu, ol, ou = args
        try:
            return base + amp * plateau(x, (il, iu), (ol, ou))
        except ValueError as exc:
            raise ConfigError(f"preset {spec!r}: {exc}") from None
    if name == "bump":
        _need(spec, args, 4)
        base, amp, c, r = args
        if r <= 0:
            raise ConfigError(f"preset {spec!r}: radius must be positive")
        return base + amp * bump((x - c) / r)
    if name in ("piecewise", "table"):
        if len(args) < 4 or len(args) % 2:
            raise ConfigError(f"preset {spec!r}: need pairs x0,v0,x1,v1,...")
        xs = np.asarray(args[0::2])
        vs = np.asarray(args[1::2])
        if not (np.diff(xs) > 0).all():
            raise ConfigError(f"preset {spec!r}: breakpoints must increase")
        if name == "table":
            return np.interp(x, xs, vs)
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(vs) - 1)
        return vs[idx]
    raise ConfigError(f"unknown preset {name!r} in {spec!r}")


def _need(spec, args, n):
    if len(args) != n:
        raise ConfigError(f"preset {spec!r}: expected {n} arguments, got {len(args)}")
