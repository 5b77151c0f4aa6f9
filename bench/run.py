"""fractomo benchmark: one workload per call, each op in a closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload dn1d --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --smoke

One client runs one op at a time; the next op starts when the previous
one and its untimed checks are done.  The package is imported from
``src`` of this checkout in fresh interpreters (``worker.py``) with one
BLAS thread.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:

* ``op_cost_p50``: median over the timed ops (checks excluded) of the
  op's wall time divided by the mean time of the machine-speed probe
  that ran around and inside it (``probe.py``).  The host's load moves
  wall seconds by 20-70% between runs of the same code and this ratio
  by about 5%, so it carries the bound; ``op_s_p50``, the median wall
  seconds, is printed with it on the lines before the JSON line,
* ``setup_s``: interpreter start to the end of the first op, median over
  :data:`SETUP_REPEATS` fresh processes, in reference seconds: the
  set-up's wall time without the probes inside it, divided by the mean
  probe time and multiplied by ``probe.REFERENCE_S`` (the wall
  seconds are printed before the JSON line),
* ``peak_rss_mb``: peak resident memory of the measuring process,
* ``rel_err``: median over ops of the error against an independent
  reference (see ``workloads.py``).

``--trace 1`` runs traced and untraced ops alternately in one process and
prints the per-layer metrics of ``tracer.METRICS``; the spans go to
``bench/results``.  Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same figures with their units, the failure ratio, the
tail percentile and the environment.

``--smoke`` runs every workload for a single timed op of each kind, with
tracing on and the first op's result corrupted on purpose, and checks
that exactly that op is counted as failed and that the printed metric
names match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from probe import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MARK = "@bench "

#: fresh processes whose set-up time enters setup_s; a dn2d set-up costs
#: about 30 s (the cold 2D class-tensor build), so it is measured once
SETUP_REPEATS = {"dn1d": 3, "inverse1d": 3, "dn2d": 1}

#: a run ends within this many seconds or fails
RUN_TIMEOUT = 170.0

#: share of a traced op's wall time that may go unattributed unflagged
UNTRACED_FLAG = 0.10


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, *, seed: int, index: int, deadline: float,
               workdir: str, seconds: float = 0.0,
               trace: int = 0, setup_only: bool = False, corrupt_op: int = -1,
               spans: Path | None = None) -> dict:
    """Run one workload process; returns its set-up time and events."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--corrupt-op", str(corrupt_op), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = {"setup_s": None, "setup_wall_s": None, "ops": [], "done": None}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            event = json.loads(line[len(MARK):])
            if event["event"] == "setup":
                wall = time.perf_counter() - t0
                result["setup_wall_s"] = wall
                # a traced set-up is not probed and stays in wall seconds
                result["setup_s"] = (wall if "probe" not in event else
                                     (wall - event["probe_inside"]) / event["probe"] * REFERENCE_S)
            elif event["event"] == "op":
                result["ops"].append(event)
            else:
                result["done"] = event
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or result["done"] is None or result["setup_s"] is None:
        raise BenchError(f"{workload} worker {index} exited with code {code}")
    return result


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, or None if
    that percentile is not above the median."""
    n = len(samples)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(workers: list) -> tuple:
    """End-to-end figures of a run, and the timed ops' wall seconds and
    probe seconds."""
    main = workers[0]
    timed = [(op["wall"], op["probe"]) for op in main["ops"]
             if op["k"] > 0 and op["wall"] is not None and not op["traced"]]
    errors = [op["rel_err"] for w in workers for op in w["ops"]
              if not math.isnan(op["rel_err"])]
    if not timed or not errors:
        raise BenchError("no timed op completed with its checks")
    return {
        "op_cost_p50": statistics.median(wall / probe for wall, probe in timed),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": main["done"]["peak_rss_mb"],
        "rel_err": statistics.median(errors),
    }, timed


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            corrupt_op: int = -1) -> dict:
    """All processes of one run and the figures they give."""
    deadline = time.monotonic() + RUN_TIMEOUT
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    spans = results / f"spans-{workload}-seed{seed}.jsonl" if trace else None
    repeats = 1 if trace else SETUP_REPEATS[workload]
    with tempfile.TemporaryDirectory(dir=results) as workdir:
        common = dict(seed=seed, deadline=deadline, workdir=workdir, trace=trace)
        workers = [run_worker(workload, index=0, seconds=seconds, corrupt_op=corrupt_op,
                              spans=spans, **common)]
        workers += [run_worker(workload, index=i, setup_only=True, **common)
                    for i in range(1, repeats)]
    ops = [op for w in workers for op in w["ops"]]
    figures, timed = end_to_end(workers)
    run = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(ops), "failed": sum(bool(op["failed"]) for op in ops),
        "failed_ops": [(w_i, op["k"], op["failed"]) for w_i, w in enumerate(workers)
                       for op in w["ops"] if op["failed"]],
        "end_to_end": figures, "timed_ops": [wall for wall, _ in timed],
        "timed_probes": [probe for _, probe in timed], "setups": [w["setup_s"] for w in workers],
        "setup_walls": [w["setup_wall_s"] for w in workers],
        "traced_ops": [op["wall"] for op in workers[0]["ops"]
                       if op["k"] > 0 and op["traced"] and op["wall"] is not None],
        "layers": workers[0]["done"]["layers"],
        "environment": dict(workers[0]["done"]["environment"], commit=git_commit()),
    }
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(run, indent=1) + "\n")
    return run


def report(run: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the metrics of the JSON line."""
    env = run["environment"]
    blas = ", ".join(f"{b['library']} threads={b['threads']}" for b in env["blas"]) or "unknown"
    print(f"environment: nproc={env['nproc']} affinity={env['affinity']} blas=[{blas}] "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['commit']}")
    if any((b["threads"] or 0) > env["nproc"] for b in env["blas"]):
        print(f"  FLAG: more BLAS threads than the {env['nproc']} processors")
    e2e, timed, probes = run["end_to_end"], run["timed_ops"], run["timed_probes"]
    tail = tail_percentile(timed)
    tail_text = (f"p{tail[0]:.0f}={tail[1]:.4f} s" if tail
                 else "no percentile above p50 has ten samples beyond it")
    print(f"{run['workload']} seed={run['seed']} trace={run['trace']}: closed loop, 1 client, "
          f"{len(timed)} timed untraced ops; {tail_text}")
    print(f"  op_s_p50 = {statistics.median(timed):.6g} s (wall, probes excluded; "
          f"median probe {statistics.median(probes):.6g} s); "
          f"setup wall = {statistics.median(run['setup_walls']):.6g} s")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} = {e2e[m['name']]:.6g} {m['unit']}")
    print(f"  fail_ratio = {run['failed'] / run['attempted']:.6g} ratio "
          f"({run['failed']} failed of {run['attempted']} attempted ops)")
    for worker, k, failed in run["failed_ops"]:
        print(f"  FAILED op {k} of process {worker}: {'; '.join(failed)}")
    if not run["trace"]:
        return {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    layers = run["layers"]
    if layers is None:
        raise BenchError("the traced run produced no per-layer metrics")
    for m in spec["per_layer"]:
        print(f"  {m['name']} = {layers[m['name']]:.6g} {m['unit']}")
    share = layers["bench.untraced_s"] / statistics.median(run["traced_ops"])
    if share > UNTRACED_FLAG:
        print(f"  FLAG: {share:.1%} of traced op time is not attributed to any span")
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def smoke(spec: dict) -> int:
    expected = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        run = measure(name, 0, 0.0, 1, corrupt_op=0)
        problems = []
        bad = [(worker, k) for worker, k, _ in run["failed_ops"]]
        if bad != [(0, 0)]:
            problems.append(f"expected only the corrupted op 0 to fail, got {bad}")
        computed = {**run["end_to_end"], **(run["layers"] or {})}
        if set(computed) != expected:
            problems.append(f"metric names {sorted(computed)} differ from BENCHMARK.json")
        else:
            printed = {**report(dict(run, trace=0), spec), **report(run, spec)}
            if set(printed) != expected:
                problems.append(f"printed names {sorted(printed)} differ from BENCHMARK.json")
            if not all(math.isfinite(m["value"]) for m in printed.values()):
                problems.append("a printed metric is not a finite number")
        for problem in problems:
            print(f"smoke {name}: {problem}")
        ok = ok and not problems
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fractomo" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no fractomo source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.smoke:
        return smoke(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace)
        metrics = report(run, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
