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


def export_solution_csv(path, mesh, u: np.ndarray) -> None:
    """Solution CSV: one row per node, coordinates then the value ``u``.

    Coordinates are in the length units of the box.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        coords = [f"x{k}" for k in range(mesh.n)]
        w.writerow(coords + ["u"])
        for node, val in zip(mesh.nodes, u):
            w.writerow([_fmt(c) for c in node] + [_fmt(val)])


def export_dn_csv(path, mesh, dn) -> None:
    """DN matrix CSV with row/column node coordinates in the header."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        col_coords = ["col_" + "_".join(_fmt(c) for c in mesh.nodes[j])
                      for j in dn.cols]
        w.writerow(["row_node"] + col_coords)
        for r, i in enumerate(dn.rows):
            label = "row_" + "_".join(_fmt(c) for c in mesh.nodes[i])
            w.writerow([label] + [_fmt(v) for v in dn.entries[r]])


def export_reconstruction_csv(path, samples, true_value=None,
                              potential_terms=None) -> None:
    """Reconstruction series CSV: N, estimate, error (if known), absorption term."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "estimate", "error_vs_true_if_known", "potential_term"])
        for k, rec in enumerate(samples):
            err = "" if true_value is None else _fmt(abs(rec["estimate"] - true_value))
            pot = "" if potential_terms is None else _fmt(potential_terms[k])
            w.writerow([rec["N"], _fmt(rec["estimate"]), err, pot])


def export_oracle_csv(path, rows) -> None:
    """Oracle comparison CSV: order ``s`` and the relative L2 mismatch."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "rel_l2_mismatch"])
        for r in rows:
            w.writerow([_fmt(r["s"]), _fmt(r["rel_l2_mismatch"])])


def export_pair_csv(path, mesh, pair) -> None:
    """Counterexample pair CSV: node coordinate, gamma_1, q_1, deviation."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        coords = [f"x{k}" for k in range(mesh.n)]
        w.writerow(coords + ["gamma1", "q1", "m"])
        for node, g, q, m in zip(mesh.nodes, pair.gamma1, pair.q1, pair.m):
            w.writerow([_fmt(c) for c in node] + [_fmt(g), _fmt(q), _fmt(m)])


def write_json_report(path, payload: dict, schema: str) -> None:
    """Versioned JSON report; the schema tag names the record layout."""
    path = Path(path)
    data = dict(payload)
    data["schema"] = schema
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def residual_records(hs, residuals) -> list:
    """JSON-able refinement records ``{h, residual, rate}``."""
    out = []
    for k, (h, r) in enumerate(zip(hs, residuals)):
        rec = {"h": float(h), "residual": float(r)}
        if k:
            prev = out[-1]
            ratio = prev["residual"] / r if r > 0 else float("inf")
            step = prev["h"] / h
            rec["rate"] = float(np.log(ratio) / np.log(step))
        else:
            rec["rate"] = None
        out.append(rec)
    return out
