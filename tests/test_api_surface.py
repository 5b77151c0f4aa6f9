"""The public names and the benchmark's trace targets resolve.

A name deleted from the package would otherwise surface only when the
benchmark harness runs with tracing on.
"""

import importlib.util
from pathlib import Path

import fractomo

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_public_names_resolve():
    missing = [name for name in fractomo.__all__ if not hasattr(fractomo, name)]
    assert not missing


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, qualname, _group in tracer.TARGETS:
        try:
            _resolve(module, qualname)
        except AttributeError:
            missing.append((module, qualname))
    assert tracer.TARGETS and not missing
