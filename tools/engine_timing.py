"""Time the kernel forms and the forward DN stack at fixed sizes, with
one BLAS thread.

Usage::

    PYTHONPATH=src python3 tools/engine_timing.py

prints one line per size and form: the size, the form, the cold time
(the form builds its grid plans), the warm time (median of
:data:`REPEATS` forms from cached plans) and the size of the in-box
plan in MB (10^6 bytes).  The forms are ``gagliardo_form`` and a
``conductivity_form`` with ``gamma = 1 + 0.5 bump(x / 0.45)``, whose
``gamma - 1`` lies in the ball of radius 0.45 about the origin, as in
the benchmark's draws; all at ``s = 0.25``.  The sizes: 1D on the box ``(-2.25, 3.25)`` at N = 705
and 1409 (h = 1/128 and 1/256), 2D on ``[-1, 1]^2`` at h = 1/16 and
1/32 (N = 1089 and 4225).

Then one line per 1D size for the forward DN stack on the system form
``conductivity_form + potential_form`` of that ``gamma`` and ``q = 0.2
bump(x / 0.4)``, with ``Omega = (-1, 1)`` and ``W1 = (1.2, 1.8)`` as in
the benchmark's dn1d workload: the median over :data:`REPEATS` of the
interior factorization (``DNOperator``), the DN matrix over the hats of
``W1`` (``matrix``), one exterior solve with a far field (``solve``) and
their sum, in ms.  There are no options.

Two versions of the package are compared by running the script under
each one's source tree, e.g. ``PYTHONPATH=../parent/src``.
"""

from __future__ import annotations

import os

# before numpy is imported: the thread count of its BLAS is fixed then
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from fractomo import _assembly2d, assembly  # noqa: E402
from fractomo.dnmap import DNOperator  # noqa: E402
from fractomo.mesh import Box, Region, build_mesh  # noqa: E402
from fractomo.profiles import bump  # noqa: E402

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


def _seconds(form):
    start = time.perf_counter()
    form()
    return time.perf_counter() - start


def _dn_stack_ms(box, h):
    """Median ms of the factorization, the DN matrix and one solve, and
    of their sum (see the module docstring)."""
    mesh = build_mesh(box, h, [Region("Omega", (-1.0,), (1.0,)),
                               Region("W1", (1.2,), (1.8,))])
    params = assembly.KernelParams(1, S)
    x = mesh.coords
    coeffs = assembly.Coefficients.from_arrays(1.0 + 0.5 * bump(x / 0.45),
                                               0.2 * bump(x / 0.4))
    form = (assembly.conductivity_form(mesh, params, coeffs)
            + assembly.potential_form(mesh, coeffs.q))
    f = bump((x - 1.5) / 0.28)
    times = []
    for _ in range(REPEATS):
        stages = [time.perf_counter()]
        op = DNOperator(mesh, params, coeffs, form=form)
        stages.append(time.perf_counter())
        op.matrix("W1", "W1")
        stages.append(time.perf_counter())
        op.solve(f, far_field=0.7)
        stages.append(time.perf_counter())
        times.append(np.diff(stages))
    stage_ms = 1e3 * np.median(times, axis=0)
    return (*stage_ms, 1e3 * np.median(np.sum(times, axis=1)))


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
    print(f"{'size':<10} {'form':<12} {'cold_s':>8} {'warm_s':>8} {'inbox_plan_MB':>14}")
    for label, box, h in SIZES:
        mesh = build_mesh(box, h, [])
        params = assembly.KernelParams(mesh.n, S)
        y = mesh.nodes / 0.45
        gamma = 1.0 + 0.5 * bump(y[:, 0] if mesh.n == 1 else y)
        coeffs = assembly.Coefficients.from_arrays(gamma)
        forms = (("gagliardo", lambda: assembly.gagliardo_form(mesh, params)),
                 ("bump-gamma", lambda: assembly.conductivity_form(mesh, params, coeffs)))
        for name, form in forms:
            assembly._grid_plan.cache_clear()
            cold = _seconds(form)
            warm = statistics.median(_seconds(form) for _ in range(REPEATS))
            print(f"{label:<10} {name:<12} {cold:8.3f} {warm:8.3f} "
                  f"{_inbox_plan_mb(mesh):14.2f}", flush=True)
    print(f"\n{'size':<10} {'factor_ms':>10} {'matrix_ms':>10} {'solve_ms':>10} "
          f"{'dn_stack_ms':>12}")
    for label, box, h in SIZES:
        if box.n == 1:
            ms = _dn_stack_ms(box, h)
            print(f"{label:<10} {ms[0]:10.2f} {ms[1]:10.2f} {ms[2]:10.2f} {ms[3]:12.2f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
