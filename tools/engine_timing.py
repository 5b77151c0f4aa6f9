"""Time the kernel forms, the forward DN stack and the eigen layer at
fixed sizes, with one BLAS thread.

Usage::

    PYTHONPATH=src python3 tools/engine_timing.py

Every figure is given twice: in wall time, and in probe units
(``x_probe``), the wall time without the probes that ran inside it
divided by the mean time of the benchmark's machine-speed probe
(``bench/probe.py``) around and inside the measurement, as
``bench/run.py`` reports an op's cost.  Wall times move by 20-70% with
the load of a shared host; probe units by much less, so they are the
figures to compare between runs.

The script prints one line per size and form: the size, the form, the
cold time (the form builds its grid plans), the warm time (median of
:data:`REPEATS` forms from cached plans) and the size of the in-box
plan in MB (10^6 bytes).  A form is timed with its full matrix
(``entries``): a kernel form evaluates its in-box entries when they are
first read.  The forms are ``gagliardo_form`` and a
``conductivity_form`` with ``gamma = 1 + 0.5 bump(x / 0.45)``, whose
``gamma - 1`` lies in the ball of radius 0.45 about the origin, as in
the benchmark's draws; all at ``s = 0.25``.  The sizes: 1D on the box ``(-2.25, 3.25)`` at N = 705
and 1409 (h = 1/128 and 1/256), 2D on ``[-1, 1]^2`` at h = 1/16 and
1/32 (N = 1089 and 4225).

Then one line per 1D size for the forward DN op of the benchmark's dn1d
workload, from a fresh form each time, with ``Omega = (-1, 1)`` and
``W1 = (1.2, 1.8)``: the median over :data:`REPEATS` of the
``conductivity_form`` of that ``gamma`` (``form``), its sum with the
``potential_form`` of ``q = 0.2 bump(x / 0.4)`` (``sum``), the interior
factorization (``DNOperator``, which evaluates the form on its window),
the DN matrix over the hats of ``W1`` (``matrix``), one exterior solve
with a far field (``solve``) and their sum (``dn_op``), in ms and in
probe units.

Then one line per 1D size for the eigen layer on the same mesh and
coefficients: the median over :data:`REPEATS` of the two multiplier
estimates of the non-uniqueness report, taken as ``verify_nonuniqueness``
takes them, in one call on one factor of ``H = gform + mass``
(``estimates``): the reduced-potential form of ``(gamma, q)``, then the
potential form of ``q``; and of the Poincare constant of ``Omega``
(``poincare``); in ms, with the Lanczos steps of each run in that order.
This ``q >= 0`` makes the potential form positive semidefinite, and its
run waits for the smallest Ritz value to converge into the eigenvalues
at 0: it takes about four and eight times the steps of the reduced form
at N = 705 and 1409 (96 and 190 steps).
There are no options.

Two versions of the package are compared by running the script under
each one's source tree, e.g. ``PYTHONPATH=../parent/src``.
"""

from __future__ import annotations

import os

# before numpy is imported: the thread count of its BLAS is fixed then
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from fractomo import _assembly2d, assembly, solver  # noqa: E402
from fractomo.dnmap import DNOperator  # noqa: E402
from fractomo.mesh import Box, Region, build_mesh  # noqa: E402
from fractomo.profiles import bump  # noqa: E402
from fractomo.reduction import reduced_potential_form  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import probe  # noqa: E402

S = 0.25

#: warm forms per size and form
REPEATS = 5

#: (label, box, h)
SIZES = (
    ("1D N=705", Box((-2.25,), (3.25,)), 1 / 128),
    ("1D N=1409", Box((-2.25,), (3.25,)), 1 / 256),
    ("2D h=1/16", Box((-1.0, -1.0), (1.0, 1.0)), 1 / 16),
    ("2D h=1/32", Box((-1.0, -1.0), (1.0, 1.0)), 1 / 32),
)


_PROBE = probe.Probe()


def _timed(fn):
    """``fn()`` timed with the probe: (ms without the probes inside, the
    same in probe units)."""
    _, seconds, mean = _PROBE.time_op(fn)
    return 1e3 * seconds, seconds / mean


def _median_timed(fns):
    """Median over :data:`REPEATS` of each stage's (ms, x_probe) and of
    their sums, for stages ``fns`` that run in this order."""
    times = np.array([[_timed(fn) for fn in fns] for _ in range(REPEATS)])
    return (*np.median(times, axis=0), np.median(times.sum(axis=1), axis=0))


def _coefficients(mesh):
    x = mesh.coords
    return assembly.Coefficients.from_arrays(1.0 + 0.5 * bump(x / 0.45),
                                             0.2 * bump(x / 0.4))


def _dn_mesh(box, h):
    return build_mesh(box, h, [Region("Omega", (-1.0,), (1.0,)),
                               Region("W1", (1.2,), (1.8,))])


def _dn_op(box, h):
    """Median (ms, x_probe) of each stage of the forward DN op, and of
    their sum (see the module docstring)."""
    mesh = _dn_mesh(box, h)
    params = assembly.KernelParams(1, S)
    coeffs = _coefficients(mesh)
    f = bump((mesh.coords - 1.5) / 0.28)
    assembly.conductivity_form(mesh, params, coeffs).entries  # warm plans
    forms, ops = [], []
    return _median_timed((
        lambda: forms.append(assembly.conductivity_form(mesh, params, coeffs)),
        lambda: forms.append(forms[-1] + assembly.potential_form(mesh, coeffs.q)),
        lambda: ops.append(DNOperator(mesh, params, coeffs, form=forms[-1])),
        lambda: ops[-1].matrix("W1", "W1"),
        lambda: ops[-1].solve(f, far_field=0.7),
    ))


def _lanczos_steps(fn):
    """Lanczos steps of each Lanczos run of ``fn()``, in order: the size of
    the largest tridiagonal matrix whose Ritz pairs the run computes.  A
    run's sizes grow from 1, so a smaller size starts the next run."""
    ritz, sizes = solver._ritz_pair, []
    solver._ritz_pair = lambda alpha, *args: sizes.append(alpha.size) or ritz(alpha, *args)
    try:
        fn()
    finally:
        solver._ritz_pair = ritz
    return [k for k, after in zip(sizes, sizes[1:] + [0]) if after < k]


def _eigen_layer(box, h):
    """Per eigen solve (see the module docstring): its median (ms,
    x_probe) and its Lanczos step count."""
    mesh = _dn_mesh(box, h)
    params = assembly.KernelParams(1, S)
    coeffs = _coefficients(mesh)
    gform, mass = assembly.gagliardo_form(mesh, params), assembly.mass_matrix(mesh)
    qform = assembly.potential_form(mesh, coeffs.q)
    reduced = reduced_potential_form(coeffs, gform=gform, qform=qform)
    fns = (lambda: solver.multiplier_norm_estimate([reduced, qform], gform=gform, mass=mass),
           lambda: solver.poincare_constant(mesh, params, gform=gform, mass=mass))
    timings = _median_timed(fns)[:-1]
    return [(*timing, "+".join(map(str, _lanczos_steps(fn))))
            for timing, fn in zip(timings, fns)]


def _nbytes(item):
    """Bytes of the arrays in ``item``, an array or nested tuples of them."""
    if isinstance(item, np.ndarray):
        return item.nbytes
    return sum(map(_nbytes, item)) if isinstance(item, tuple) else 0


def _inbox_plan_mb(mesh):
    if mesh.n == 1:
        key = (assembly._inbox_plan_1d, mesh.box, mesh.h, S,
               assembly.ORDER_SINGULAR, assembly.ORDER_REGULAR)
    else:
        key = (_assembly2d._inbox_plan_2d, mesh.box, mesh.h, S, _assembly2d.MAX_DEPTH)
    return _nbytes(assembly._grid_plan(*key)) / 1e6


def main() -> int:
    print(f"{'size':<10} {'form':<12} {'cold_s':>8} {'cold_x':>8} {'warm_s':>8} "
          f"{'warm_x':>8} {'inbox_plan_MB':>14}")
    for label, box, h in SIZES:
        mesh = build_mesh(box, h, [])
        params = assembly.KernelParams(mesh.n, S)
        y = mesh.nodes / 0.45
        gamma = 1.0 + 0.5 * bump(y[:, 0] if mesh.n == 1 else y)
        coeffs = assembly.Coefficients.from_arrays(gamma)
        forms = (("gagliardo", lambda: assembly.gagliardo_form(mesh, params).entries),
                 ("bump-gamma",
                  lambda: assembly.conductivity_form(mesh, params, coeffs).entries))
        for name, form in forms:
            assembly._grid_plan.cache_clear()
            cold_ms, cold_x = _timed(form)
            warm_ms, warm_x = np.median([_timed(form) for _ in range(REPEATS)], axis=0)
            print(f"{label:<10} {name:<12} {cold_ms / 1e3:8.3f} {cold_x:8.1f} "
                  f"{warm_ms / 1e3:8.3f} {warm_x:8.1f} {_inbox_plan_mb(mesh):14.2f}",
                  flush=True)
    one_d = [(label, box, h) for label, box, h in SIZES if box.n == 1]
    stages = ("form", "sum", "factor", "matrix", "solve", "dn_op")
    print(f"\n{'size':<10}" + "".join(f" {name + '_ms':>10} {'x':>6}" for name in stages))
    for label, box, h in one_d:
        cells = "".join(f" {ms:10.2f} {x:6.2f}" for ms, x in _dn_op(box, h))
        print(f"{label:<10}{cells}", flush=True)
    print(f"\n{'size':<10}" + "".join(f" {name + '_ms':>13} {'x':>6} {'steps':>7}"
                                    for name in ("estimates", "poincare")))
    for label, box, h in one_d:
        cells = "".join(f" {ms:13.2f} {x:6.2f} {steps:>7}"
                        for ms, x, steps in _eigen_layer(box, h))
        print(f"{label:<10}{cells}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
