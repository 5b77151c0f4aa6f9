"""Time the kernel forms at fixed sizes, with one BLAS thread.

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
1/32 (N = 1089 and 4225).  There are no options.

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
from fractomo.mesh import Box, build_mesh  # noqa: E402
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
