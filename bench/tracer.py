"""Spans around the package's public functions, recorded from outside.

:meth:`Tracer.install` wraps each function in :data:`TARGETS` in every
``fractomo`` module namespace that bound it by import (and methods on
their class), so calls from the CLI runners and from inside the package
are traced too; :meth:`Tracer.uninstall` puts the originals back, so an
untraced op runs the unmodified code.  Spans stay in memory until the
workload process writes them out at its end.

A span's self time is its duration minus the time its child spans
cover.  :data:`METRICS` defines each per-layer metric from the spans of
one op and states the end-to-end metric, and the workload, it should
move.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

import numpy as np

#: (module, qualified name, span group) of every traced public function
TARGETS = [
    ("fractomo.mesh", "build_mesh", "mesh.build"),
    ("fractomo.assembly", "gagliardo_form", "assembly.kernel"),
    ("fractomo.assembly", "conductivity_form", "assembly.kernel"),
    ("fractomo.assembly", "mass_matrix", "assembly.local"),
    ("fractomo.assembly", "potential_form", "assembly.local"),
    ("fractomo._assembly2d", "kernel_inbox_2d", "assembly2d.inbox"),
    ("fractomo._assembly2d", "kernel_tail_2d", "assembly2d.tail"),
    ("fractomo._assembly2d", "tail_weight_2d", "assembly2d.tail"),
    ("fractomo.solver", "FactorizedSystem.__init__", "solver.factor"),
    ("fractomo.solver", "FactorizedSystem.solve", "solver.solve"),
    ("fractomo.solver", "poincare_constant", "solver.eigen"),
    ("fractomo.solver", "multiplier_norm_estimate", "solver.eigen"),
    ("fractomo.dnmap", "DNOperator.matrix", "dnmap.matrix"),
    ("fractomo.dnmap", "DNOperator.pairing", "dnmap.pairing"),
    ("fractomo.reduction", "reduced_potential_form", "reduction.form"),
    ("fractomo.reconstruction", "bump_sequence", "reconstruction"),
    ("fractomo.reconstruction", "exterior_reconstruct", "reconstruction"),
    ("fractomo.reconstruction", "potential_decay_check", "reconstruction"),
    ("fractomo.counterexample", "build_pair", "counterexample"),
    ("fractomo.counterexample", "verify_nonuniqueness", "counterexample"),
    ("fractomo.cli", "main", "cli"),
    ("fractomo.cli", "run_experiment", "cli"),
    ("fractomo.config", "parse_config", "config.parse"),
    ("fractomo.io", "write_json_report", "io.write"),
    ("fractomo.io", "export_reconstruction_csv", "io.write"),
    ("fractomo.io", "export_pair_csv", "io.write"),
    ("fractomo.io", "export_dn_csv", "io.write"),
    ("fractomo.io", "export_solution_csv", "io.write"),
    ("fractomo.spectral", "spectral_frac_laplacian", "spectral.oracle"),
]

#: work counted at a span, from its arguments and result
COUNTERS = {
    "tail_weight_2d": lambda args, result: int(np.atleast_2d(args[0]).shape[0]),
    "DNOperator.matrix": lambda args, result: int(result.cols.size),
    **{name: lambda args, result: os.path.getsize(args[0])
       for mod, name, group in TARGETS if group == "io.write"},
}

#: per-layer metric -> (unit, kind, span group, what it should move).
#: ``self`` sums self time, ``calls`` counts spans, ``work`` sums
#: :data:`COUNTERS`; all per op, from the op's own spans.  The ``bench``
#: metrics and the two special cases are computed in :func:`op_metrics`
#: and :func:`summarize`.
METRICS = {
    "mesh.build_s": ("s", "self", "mesh.build",
                     "nothing on any workload (under 1 ms): a guard"),
    "assembly.kernel_s": ("s", "self", "assembly.kernel",
                          "op_cost_p50 on dn1d (~93%) and inverse1d (~60%)"),
    "assembly.kernel_calls": ("count", "calls", "assembly.kernel",
                              "op_cost_p50 on inverse1d (4 per op today)"),
    "assembly.local_s": ("s", "self", "assembly.local",
                         "should stay small on all workloads"),
    "assembly2d.inbox_cold_s": ("s", "first", "assembly2d.inbox",
                                "setup_s, and rel_err through quadrature, on dn2d"),
    "assembly2d.inbox_s": ("s", "self", "assembly2d.inbox",
                           "op_cost_p50 and peak_rss_mb on dn2d"),
    "assembly2d.tail_s": ("s", "self", "assembly2d.tail", "op_cost_p50 on dn2d (~99%)"),
    "assembly2d.tail_points": ("count", "work", "assembly2d.tail", "op_cost_p50 on dn2d"),
    "solver.factor_s": ("s", "self", "solver.factor", "op_cost_p50 on inverse1d and dn1d"),
    "solver.factorizations": ("count", "calls", "solver.factor",
                              "op_cost_p50 on inverse1d and dn1d"),
    "solver.solve_s": ("s", "self", "solver.solve", "op_cost_p50 on inverse1d"),
    "solver.solves": ("count", "calls", "solver.solve", "op_cost_p50 on inverse1d"),
    "solver.eigen_s": ("s", "self", "solver.eigen",
                       "op_cost_p50 on inverse1d (~24%); absent from dn1d and dn2d"),
    "solver.eigen_calls": ("count", "calls", "solver.eigen", "op_cost_p50 on inverse1d"),
    "dnmap.matrix_s": ("s", "self", "dnmap.matrix", "op_cost_p50 on dn1d (~4%) and dn2d"),
    "dnmap.columns": ("count", "work", "dnmap.matrix", "op_cost_p50 on dn1d and dn2d"),
    "dnmap.pairings": ("count", "calls", "dnmap.pairing", "op_cost_p50 on inverse1d"),
    "reduction.form_s": ("s", "self", "reduction.form", "op_cost_p50 on inverse1d"),
    "reconstruction.self_s": ("s", "self", "reconstruction", "op_cost_p50 on inverse1d"),
    "counterexample.self_s": ("s", "self", "counterexample", "op_cost_p50 on inverse1d"),
    "cli.self_s": ("s", "self", "cli", "op_cost_p50 on inverse1d"),
    "config.parse_s": ("s", "self", "config.parse", "op_cost_p50 on inverse1d"),
    "io.write_s": ("s", "self", "io.write", "op_cost_p50 on inverse1d"),
    "io.bytes": ("bytes", "work", "io.write", "op_cost_p50 on inverse1d"),
    "spectral.oracle_s": ("s", "check", "spectral.oracle",
                          "nothing: it runs only in the untimed check"),
    "bench.untraced_s": ("s", "untraced", None,
                         "op wall time not covered by any span (should stay small)"),
    "bench.trace_overhead": ("ratio", "overhead", None,
                             "traced op_s_p50 / untraced op_s_p50 - 1"),
}


class Tracer:
    """In-memory span recorder; ``op`` and ``phase`` tag new spans."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.phase = "op"
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, group):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "group": group, "op": self.op, "phase": self.phase,
                    "parent": stack[-1] if stack else -1, "work": 0}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                span["work"] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fractomo" or n.startswith("fractomo.")]
        for modname, qualname, group in TARGETS:
            owner = sys.modules[modname]
            *cls, attr = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, qualname, group))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, qualname, group)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def op_metrics(spans: list, op: int, wall: float) -> dict:
    """Per-layer metrics of one traced op (``first`` metrics excluded)."""
    selfs = self_times(spans)
    mine = [(s, t) for s, t in zip(spans, selfs) if s["op"] == op]
    out = {}
    for name, (unit, kind, group, _) in METRICS.items():
        if kind in ("self", "calls", "work", "check"):
            phase = "check" if kind == "check" else "op"
            sel = [(s, t) for s, t in mine if s["group"] == group and s["phase"] == phase]
            if kind in ("self", "check"):
                out[name] = sum(t for s, t in sel)
            elif kind == "calls":
                out[name] = len(sel)
            else:
                out[name] = sum(s["work"] for s, t in sel)
    out["bench.untraced_s"] = wall - sum(t for s, t in mine if s["phase"] == "op")
    return out


def summarize(spans: list, traced_walls: dict, untraced_walls: list) -> dict:
    """Per-layer metrics of a run: medians over the traced timed ops.

    ``traced_walls`` maps op id -> wall seconds of each traced timed op.
    ``assembly2d.inbox_cold_s`` is the self time of the first
    ``kernel_inbox_2d`` span of the process (0 if it never ran).
    """
    per_op = [op_metrics(spans, op, wall) for op, wall in traced_walls.items()]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    first = next((i for i, s in enumerate(spans) if s["group"] == "assembly2d.inbox"), None)
    out["assembly2d.inbox_cold_s"] = 0.0 if first is None else self_times(spans)[first]
    out["bench.trace_overhead"] = (statistics.median(traced_walls.values())
                                   / statistics.median(untraced_walls) - 1.0)
    return {name: out[name] for name in METRICS}
