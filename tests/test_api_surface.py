"""The public names and the benchmark's trace targets resolve.

A name deleted from the package would otherwise surface only when the
benchmark harness runs with tracing on; a function the package no longer
calls by that name would leave its spans empty.
"""

import importlib.util
from pathlib import Path

import numpy as np

import fractomo
from fractomo import assembly, cli
from fractomo.assembly import Coefficients, KernelParams, conductivity_form
from fractomo.mesh import Box, build_mesh

from test_cli import CONFIG

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_public_names_resolve():
    missing = [name for name in fractomo.__all__ if not hasattr(fractomo, name)]
    assert not missing


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_trace_targets_resolve():
    tracer = _tracer()
    missing = []
    for module, qualname, _group in tracer.TARGETS:
        try:
            _resolve(module, qualname)
        except AttributeError:
            missing.append((module, qualname))
    assert tracer.TARGETS and not missing


def test_trace_spans_of_cold_and_warm_2d_forms():
    # each 2D form runs the tail span once when it is built and the
    # in-box span once when it is read in full; only the form that builds
    # the tail plan evaluates the exterior weight
    tracer = _tracer()
    mesh = build_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 0.25, [])
    coeffs = Coefficients.from_arrays(1.0 + 0.1 * np.cos(mesh.nodes[:, 0]))
    spans = tracer.Tracer()
    assembly._grid_plan.cache_clear()
    spans.install()
    try:
        for op in (0, 1):
            spans.op = op
            conductivity_form(mesh, KernelParams(2, 0.25), coeffs).entries
    finally:
        spans.uninstall()
    assert assembly.conductivity_form is conductivity_form
    for op in (0, 1):
        mine = [s for s in spans.spans if s["op"] == op]
        names = [s["name"] for s in mine]
        assert names.count("kernel_inbox_2d") == names.count("kernel_tail_2d") == 1
        points = sum(s["work"] for s in mine if s["name"] == "tail_weight_2d")
        assert (points > 0) == (op == 0)


def test_pipeline_runs_record_the_spans_of_their_steps(tmp_path):
    # reconstruct builds its bumps, and counterexample takes its two
    # multiplier estimates on one factor, through the traced public names
    tracer = _tracer()
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.format(out=tmp_path / "artifacts"))
    runs = ["reconstruct", "counterexample"]
    spans = tracer.Tracer()
    spans.install()
    try:
        for op, subcommand in enumerate(runs):
            spans.op = op
            assert cli.main([subcommand, "--config", str(path)]) == 0
    finally:
        spans.uninstall()
    for op, subcommand in enumerate(runs):
        mine = [s for s in spans.spans if s["op"] == op]
        names = [s["name"] for s in mine]
        assert names.count("bump_sequence") == (subcommand == "reconstruct")
        assert names.count("multiplier_norm_estimate") == (subcommand == "counterexample")
        eigen = [s["name"] for s in mine if s["group"] == "solver.eigen"]
        assert len(eigen) == (2 if subcommand == "counterexample" else 0)
