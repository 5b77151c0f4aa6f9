"""Write the configs whose artifacts show that a change keeps every byte.

Usage::

    python3 tools/artifact_configs.py DIR

writes into ``DIR``:

* ``run.ini``, ``oracle.ini`` and ``run2d.ini``: ``CONFIG``,
  ``ORACLE_CONFIG`` and ``CONFIG_2D`` of ``tests/test_cli.py``;
* ``far1d.ini``: ``CONFIG`` at the spacing of the benchmark's dn1d
  workload (h = 1/256, N = 1409; the geometry is the same) with
  ``[data] far_field = 0.7``, for ``solve`` only: the one run whose
  solution and energy read the exterior tail row;
* ``inverse1d-SEED/reconstruct.ini`` and ``counterexample.ini`` for the
  seeds 701 and 702: the configs the benchmark's inverse1d workload
  (``bench/workloads.py``) draws with ``numpy.random.default_rng(SEED)``
  at h = 1/128.

and prints one line per run, the arguments of ``tools/artifact_digest.py``:
a config and the subcommands to run on it (none: every subcommand its
dimension allows).  The digest of two source trees is then::

    python3 tools/artifact_configs.py cfgs | while read -r args; do
        python3 tools/artifact_digest.py $args; done > digest.txt
"""

from __future__ import annotations

import configparser
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: the inverse1d draws, by the seed of their generator
SEEDS = (701, 702)

#: the far-field value of ``far1d.ini``
FAR_FIELD = 0.7


def _load(name: str, path: Path):
    """The module of the source file at ``path``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_configs(directory: Path) -> list:
    """Write the configs into ``directory``; returns the runs, each a list
    of a config path and the subcommands to run on it."""
    directory.mkdir(parents=True, exist_ok=True)
    test_cli = _load("_test_cli", ROOT / "tests" / "test_cli.py")
    workloads = _load("_bench_workloads", ROOT / "bench" / "workloads.py")
    far1d = configparser.ConfigParser()
    far1d.optionxform = str  # region labels are case-sensitive
    far1d.read_string(test_cli.CONFIG)
    far1d["mesh"]["h"] = str(workloads.SPACING["dn1d"])
    far1d["data"]["far_field"] = str(FAR_FIELD)
    far1d_text = io.StringIO()
    far1d.write(far1d_text)
    runs = []
    for name, text, subcommands in (
            ("run.ini", test_cli.CONFIG, []),
            ("oracle.ini", test_cli.ORACLE_CONFIG, ["oracle-compare"]),
            ("run2d.ini", test_cli.CONFIG_2D, []),
            ("far1d.ini", far1d_text.getvalue(), ["solve"])):
        path = directory / name
        path.write_text(text.format(out=directory / "out"))
        runs.append([str(path)] + subcommands)
    for seed in SEEDS:
        workdir = directory / f"inverse1d-{seed}"
        workdir.mkdir(exist_ok=True)
        draw = workloads.Inverse1D(1 / 128, workdir).draw(np.random.default_rng(seed))
        runs += [[str(path), sub] for sub, path in draw["configs"].items()]
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: artifact_configs.py DIR", file=sys.stderr)
        return 2
    for run in write_configs(Path(argv[0])):
        print(" ".join(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
