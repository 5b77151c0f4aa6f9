"""Deterministic CSV/JSON artifact writers.

All floats are written with repr-faithful precision and fixed column
orders so that identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows) -> None:
    """The header row, then ``rows``: strings and ints as given, every
    other number in repr-faithful precision."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([c if isinstance(c, (str, int)) else _fmt(c) for c in row]
                    for row in rows)


def _write_table(path, header, table, labels=None) -> None:
    """The header row, then a row per row of the float array ``table``,
    after its label if ``labels`` are given: the bytes of
    :func:`_write_csv` on the same cells, each row formatted by one
    ``%`` with a ``%.17g`` per cell (``%.17g`` formats a float as
    ``format(x, ".17g")`` does).  No label or number holds a character
    that the CSV dialect quotes."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    heads = [""] * len(table) if labels is None else [label + "," for label in labels]
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(head + line % tuple(row) for head, row in zip(heads, table.tolist()))


def _coord_names(mesh) -> list:
    return [f"x{k}" for k in range(mesh.n)]


def _node_label(prefix, node) -> str:
    return prefix + "_".join(_fmt(c) for c in node)


def export_solution_csv(path, mesh, u: np.ndarray) -> None:
    """Solution CSV: one row per node, coordinates then the value ``u``.

    Coordinates are in the length units of the box.
    """
    _write_table(path, _coord_names(mesh) + ["u"], np.column_stack([mesh.nodes, u]))


def export_dn_csv(path, mesh, dn) -> None:
    """DN matrix CSV with row/column node coordinates in the header."""
    header = ["row_node"] + [_node_label("col_", mesh.nodes[j]) for j in dn.cols]
    _write_table(path, header, dn.entries,
                 [_node_label("row_", mesh.nodes[i]) for i in dn.rows])


def export_reconstruction_csv(path, samples, true_value=None,
                              potential_terms=None) -> None:
    """Reconstruction series CSV: N, estimate, error (if known), absorption term."""
    rows = ([rec["N"], rec["estimate"],
             "" if true_value is None else abs(rec["estimate"] - true_value),
             "" if potential_terms is None else potential_terms[k]]
            for k, rec in enumerate(samples))
    _write_csv(path, ["N", "estimate", "error_vs_true_if_known", "potential_term"], rows)


def export_oracle_csv(path, rows) -> None:
    """Oracle comparison CSV: order ``s`` and the relative L2 mismatch."""
    _write_csv(path, ["s", "rel_l2_mismatch"],
               ([r["s"], r["rel_l2_mismatch"]] for r in rows))


def export_pair_csv(path, mesh, pair) -> None:
    """Counterexample pair CSV: node coordinate, gamma_1, q_1, deviation."""
    _write_table(path, _coord_names(mesh) + ["gamma1", "q1", "m"],
                 np.column_stack([mesh.nodes, pair.gamma1, pair.q1, pair.m]))


def write_json_report(path, payload: dict, schema: str) -> None:
    """Versioned JSON report; the schema tag names the record layout.

    Strict JSON: an undefined number is ``None`` (``null``), and a
    non-finite float raises ``ValueError``.
    """
    path = Path(path)
    data = dict(payload)
    data["schema"] = schema
    path.write_text(json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n")


def residual_records(hs, residuals) -> list:
    """JSON-able refinement records ``{h, residual, rate}``; the rate is
    None on the first level and where a residual of the pair is 0."""
    out = []
    for k, (h, r) in enumerate(zip(hs, residuals)):
        rec = {"h": float(h), "residual": float(r), "rate": None}
        if k and out[-1]["residual"] > 0 and r > 0:
            prev = out[-1]
            rec["rate"] = float(np.log(prev["residual"] / r) / np.log(prev["h"] / h))
        out.append(rec)
    return out
