"""One workload process: set-up, then a closed loop of ops, one at a time.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
It talks back through stdout lines that start with ``@bench``; anything
else on stdout (the CLI's own summary lines) is not part of the protocol.

Events, in order: ``setup`` right after the first op (set-up time ends
there; untraced, with the probe seconds inside the set-up and the mean
probe time), one ``op`` per op with its wall time, the mean time of the
machine-speed probe around and inside it (``probe.py``; timed untraced
ops only, the probes' own time taken out of the wall time) and its
failed gates, and
``done`` with the peak resident memory, the environment and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

MARK = "@bench "


def emit(event: str, **fields) -> None:
    print(MARK + json.dumps({"event": event, **fields}), flush=True)


def blas_info() -> list:
    """OpenBLAS libraries loaded in this process and their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return []
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
        out.append({"library": os.path.basename(path), "threads": threads})
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0, help="process index within the run")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt-op", type=int, default=-1)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import numpy as np

    import probe

    speed = probe.Probe()
    if not args.trace:
        # set-up is probed as well, from here to the end of the first op;
        # not when traced, where the probes would land in that op's spans
        speed.start()

    import fractomo
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(fractomo.__file__).resolve().parents:
        print(f"fractomo imported from {fractomo.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracer as tr
    import workloads

    with tempfile.TemporaryDirectory(dir=args.workdir) as work:
        workload = workloads.make(args.workload, Path(work))
        spans_tracer = tr.Tracer() if args.trace else None
        traced_walls, untraced_walls = {}, []

        def run(k: int, traced: bool) -> tuple:
            """One op and its checks: (wall seconds or None, mean probe
            seconds or None, failed gates, rel_err)."""
            inp = workload.draw(np.random.default_rng([args.seed, args.index, k]))
            if traced:
                spans_tracer.op, spans_tracer.phase = k, "op"
                spans_tracer.install()
            try:
                t0 = time.perf_counter()
                probe_s = None
                try:
                    if k == 0 or traced:
                        out = workload.op(inp)
                        wall = time.perf_counter() - t0
                    else:
                        out, wall, probe_s = speed.time_op(workload.op, inp)
                    error = None
                except Exception:
                    out, error = None, "op raised: " + traceback.format_exc(limit=3)
                if k == 0:
                    probed = {}
                    if not args.trace:
                        _, inside, mean = speed.stop()
                        probed = {"probe_inside": inside, "probe": mean}
                    emit("setup", **probed)
                if error:
                    return None, None, [error], math.nan
                if k == args.corrupt_op:
                    workload.corrupt(out)
                if traced:
                    spans_tracer.phase = "check"
                try:
                    rel_err, failed = workload.check(inp, out)
                except Exception:
                    failed = ["check raised: " + traceback.format_exc(limit=3)]
                    return wall, probe_s, failed, math.nan
                return wall, probe_s, failed, rel_err
            finally:
                if traced:
                    spans_tracer.uninstall()

        def record(k: int, traced: bool) -> float:
            wall, probe_s, failed, rel_err = run(k, traced)
            emit("op", k=k, wall=wall, probe=probe_s, traced=traced, failed=failed,
                 rel_err=rel_err)
            if k > 0 and wall is not None:
                if traced:
                    traced_walls[k] = wall
                else:
                    untraced_walls.append(wall)
            return wall or 0.0

        # the first op is set-up and untimed; traced so the cold 2D class
        # build shows as assembly2d.inbox_cold_s
        record(0, bool(args.trace))
        if not args.setup_only:
            measured, k = 0.0, 1
            # alternate untraced / traced ops when tracing, at least one of each
            while (measured < args.seconds or k == 1
                   or (args.trace and not (traced_walls and untraced_walls) and k < 8)):
                traced = bool(args.trace) and k % 2 == 0
                measured += record(k, traced)
                k += 1

        layers = None
        if args.trace and traced_walls and untraced_walls:
            layers = tr.summarize(spans_tracer.spans, traced_walls, untraced_walls)
        if args.trace and args.spans:
            with open(args.spans, "w") as fh:
                for span in spans_tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit("done", peak_rss_mb=peak, environment=environment(), layers=layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
