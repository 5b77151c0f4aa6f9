"""Print how far the numbers in two artifact directories drift apart.

Usage::

    python3 tools/artifact_drift.py DIR_A DIR_B

For each file that both directories hold (at the same relative path),
prints one line with the largest absolute change ``|b - a|`` and the
largest relative change ``|b - a| / |a|`` over its numbers, each with
where it occurs: the cells of a ``.csv`` file (``line L, field F``) and
the values of a ``.json`` file (their path, e.g. ``.fit.rate``), paired
by location.  A change from zero counts as relative change ``inf``.
Every other difference is named on its own line: two differing values
that are not both finite numbers, a location only one file has, a file
of another type whose bytes differ, and a file only one directory holds.
Identical directories print ``max abs 0, max rel 0`` for every file and
nothing else.

Made for the artifacts of two source trees run on one config (one BLAS
thread keeps the numbers reproducible), e.g.::

    export OMP_NUM_THREADS=1
    PYTHONPATH=../parent/src python3 -m fractomo.cli reconstruct --config run.ini --out a
    PYTHONPATH=src python3 -m fractomo.cli reconstruct --config run.ini --out b
    python3 tools/artifact_drift.py a b
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _number(value):
    """``value`` as a finite float, or None if it is no finite number."""
    if isinstance(value, bool):
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def _json_values(obj, where=""):
    """``{path: value}`` of the scalars of parsed JSON, in document order."""
    if isinstance(obj, dict):
        items = ((f"{where}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {where or "(root)": obj}
    return {path: leaf for key, value in items
            for path, leaf in _json_values(value, key).items()}


def _values(path: Path):
    """``{location: value}`` of a CSV or JSON file, or None for other types."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            return {f"line {i}, field {j}": cell
                    for i, row in enumerate(csv.reader(fh), 1)
                    for j, cell in enumerate(row, 1)}
    if path.suffix == ".json":
        return _json_values(json.loads(path.read_text()))
    return None


def _worst(changes, k: int) -> str:
    """The largest of entry ``k`` (0 absolute, 1 relative) of ``changes``
    with its location, or ``0`` if nothing changed."""
    if not changes:
        return "0"
    worst = max(changes, key=lambda change: change[k])
    return f"{worst[k]:.3g} ({worst[2]})"


def compare_file(path_a: Path, path_b: Path, name: str) -> list:
    """The report lines of one file both directories hold."""
    a, b = _values(path_a), _values(path_b)
    if a is None:
        same = path_a.read_bytes() == path_b.read_bytes()
        return [f"{name}: bytes {'identical' if same else 'differ'}"]
    changes, notes = [], []
    for where in list(a) + [w for w in b if w not in a]:
        if where not in a or where not in b:
            notes.append(f"{name}: {where} only in {'A' if where in a else 'B'}")
        elif a[where] != b[where]:
            x, y = _number(a[where]), _number(b[where])
            if x is None or y is None:
                notes.append(f"{name}: {where}: {a[where]!r} -> {b[where]!r}")
            elif x != y:
                changes.append((abs(y - x), abs(y - x) / abs(x) if x else math.inf, where))
    return [f"{name}: max abs {_worst(changes, 0)}, max rel {_worst(changes, 1)}"] + notes


def drift(dir_a, dir_b) -> list:
    """The report lines of every file in ``dir_a`` or ``dir_b``, by path."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files = {p.relative_to(root).as_posix() for root in (dir_a, dir_b)
             for p in root.rglob("*") if p.is_file()}
    lines = []
    for name in sorted(files):
        path_a, path_b = dir_a / name, dir_b / name
        if path_a.is_file() and path_b.is_file():
            lines += compare_file(path_a, path_b, name)
        else:
            lines.append(f"{name}: only in {'A' if path_a.is_file() else 'B'}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: artifact_drift.py DIR_A DIR_B", file=sys.stderr)
        return 2
    print("\n".join(drift(*argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
