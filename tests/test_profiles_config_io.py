import json

import numpy as np
import pytest

from fractomo.assembly import KernelParams
from fractomo.config import parse_config
from fractomo.errors import ConfigError
from fractomo.io import (
    export_dn_csv,
    export_solution_csv,
    residual_records,
    write_json_report,
)
from fractomo.mesh import Box, Region, build_mesh, region_dofs
from fractomo.profiles import bump, evaluate_preset, mollifier_kernel, plateau, smoothstep


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_bump_support_and_smoothness():
    y = np.linspace(-2, 2, 401)
    v = bump(y)
    assert (v[np.abs(y) >= 1] == 0.0).all()
    assert v[np.abs(y) < 1].min() > 0
    assert v.max() == pytest.approx(np.exp(-1.0))


def test_smoothstep_monotone():
    t = np.linspace(-1, 2, 301)
    v = smoothstep(t)
    assert (v[t <= 0] == 0.0).all()
    assert (v[t >= 1] == 1.0).all()
    assert (np.diff(v) >= 0.0).all()
    mid = (t > 0.1) & (t < 0.9)
    assert (np.diff(v[mid]) > 0).all()


def test_plateau_one_on_inner_zero_outside():
    x = np.linspace(-3, 3, 601)
    v = plateau(x, (-1.0, 1.0), (-2.0, 2.0))
    assert np.allclose(v[np.abs(x) <= 1.0], 1.0)
    assert (v[np.abs(x) >= 2.0] == 0.0).all()
    with pytest.raises(ValueError):
        plateau(x, (-2.0, 2.0), (-1.0, 1.0))


def test_mollifier_unit_mass():
    k = mollifier_kernel(0.05, 1 / 128)
    assert k.sum() * (1 / 128) == pytest.approx(1.0, rel=1e-14)
    assert (k >= 0).all()


def test_presets():
    x = np.linspace(-2, 2, 41)
    assert np.allclose(evaluate_preset("constant:2.5", x), 2.5)
    g = evaluate_preset("gaussian:1,0.5,0,1", x)
    assert g[20] == pytest.approx(1.5)
    t = evaluate_preset("table:-1,0,1,2", x)
    assert t[20] == pytest.approx(1.0)
    p = evaluate_preset("piecewise:-1,1,0,3", x)
    assert p[np.searchsorted(x, 0.5)] == 3.0
    with pytest.raises(ConfigError):
        evaluate_preset("unknown:1", x)
    with pytest.raises(ConfigError):
        evaluate_preset("gaussian:1,2", x)
    with pytest.raises(ConfigError):
        evaluate_preset("gaussian:1,2,3,abc", x)
    for spec in ("constant:nan", "bump:1,inf,0,1", "table:-1,0,1,-inf"):
        with pytest.raises(ConfigError, match="finite"):
            evaluate_preset(spec, x)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

BASE = """
[problem]
n = 1
s = 0.25
[mesh]
h = 0.125
{mesh_extra}
[regions]
Omega = -1.0, 1.0
W1 = 1.25, 2.0
[coefficients]
gamma = constant:1
"""


def _write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


def test_config_roundtrip(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE.format(mesh_extra="box = -2, 3")))
    mesh = cfg.build_mesh()
    assert mesh.box.lower == (-2.0,)
    assert "Omega" in mesh.regions and "W1" in mesh.regions
    co = cfg.coefficients(mesh)
    assert np.allclose(co.gamma, 1.0)


def test_config_margin_hull_snaps(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE.format(mesh_extra="margin = 0.7")))
    mesh = cfg.build_mesh()
    lo, hi = mesh.box.lower[0], mesh.box.upper[0]
    assert lo == pytest.approx(-1.7)
    assert hi >= 2.7 - 1e-12
    # spacing divides the snapped box exactly
    assert abs(round((hi - lo) / cfg.h) - (hi - lo) / cfg.h) < 1e-12


def test_config_default_margin_uses_omega(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE.format(mesh_extra="")))
    mesh = cfg.build_mesh()
    assert mesh.box.lower[0] == pytest.approx(-5.0)  # 2 x diam(Omega) = 4


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.ini")
    bad = BASE.format(mesh_extra="box = -2, 3").replace("s = 0.25", "s = 0.7")
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, bad))
    bad = BASE.format(mesh_extra="box = -2, 3").replace("W1 = 1.25, 2.0",
                                                        "W1 = 0.5, 2.0")
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, bad))
    assert "W1" in str(err.value)
    bad = BASE.format(mesh_extra="box = -2, 3").replace("Omega = -1.0, 1.0",
                                                        "Omega = 1.0, -1.0")
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, bad))


def test_config_region_labels_keep_their_case(tmp_path):
    text = BASE.format(mesh_extra="box = -2, 3").replace(
        "W1 = 1.25, 2.0", "W1 = 1.25, 2.0\nV = 2.25, 2.75") + "[reconstruct]\nW = V\n"
    cfg = parse_config(_write(tmp_path, text))
    assert set(cfg.regions) == {"Omega", "W1", "V"}
    mesh = cfg.build_mesh()
    assert mesh.regions[cfg.reconstruct_W].name == "V"
    assert region_dofs(mesh, "V").size > 0


def test_config_docstring_lists_exactly_the_parsed_keys(tmp_path, monkeypatch):
    # every "[section] key" of the grammar in the module docstring is read
    # by parse_config and vice versa; [regions] takes arbitrary names
    import configparser
    import re

    from fractomo import config

    documented, section = set(), None
    for line in config.__doc__.splitlines():
        header = re.match(r"\s*\[(\w+)\]", line)
        if header:
            section = header.group(1)
            continue
        key = re.match(r" {4}(\w+) =", line)
        if key and section != "regions":
            documented.add((section, key.group(1).lower()))

    read = set()

    class RecordingParser(configparser.ConfigParser):
        def has_option(self, section, option):
            read.add((section, option))
            return super().has_option(section, option)

    monkeypatch.setattr(config.configparser, "ConfigParser", RecordingParser)
    config.parse_config(_write(tmp_path, ""))
    assert read
    assert documented == read


# ---------------------------------------------------------------------------
# io
# ---------------------------------------------------------------------------

def test_csv_and_json_deterministic(tmp_path):
    mesh = build_mesh(Box((-1.0,), (1.0,)), 0.25, [])
    u = np.sin(mesh.coords)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    export_solution_csv(p1, mesh, u)
    export_solution_csv(p2, mesh, u)
    assert p1.read_bytes() == p2.read_bytes()
    rep = tmp_path / "r.json"
    write_json_report(rep, {"b": 2.0, "a": 1.0}, "fractomo.test.v1")
    data = json.loads(rep.read_text())
    assert data["schema"] == "fractomo.test.v1"
    assert list(data) == sorted(data)


def test_dn_csv_headers(tmp_path):
    mesh = build_mesh(
        Box((-2.0,), (2.0,)), 0.25,
        [Region("Omega", (-1.0,), (1.0,)), Region("W1", (1.2,), (1.9,))],
    )
    par = KernelParams(1, 0.25)
    from fractomo.assembly import Coefficients
    from _systems import system_operator

    dn = system_operator(mesh, par, Coefficients.background(mesh)).matrix("W1", "W1")
    path = tmp_path / "dn.csv"
    export_dn_csv(path, mesh, dn)
    header = path.read_text().splitlines()[0]
    assert header.startswith("row_node,col_")
    assert str(mesh.coords[dn.cols[0]]) in header or "col_1.5" in header


def test_float_tables_are_the_bytes_of_the_cell_writer(tmp_path):
    # a row formatted at once is the row of cells formatted one by one,
    # labels, signed zeros, extremes and non-finite values included
    from fractomo.io import _write_csv, _write_table

    rng = np.random.default_rng(4)
    table = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    table[0] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    table[1] = [5e-324, 1.7976931348623157e308, 1e16, 0.1, 1 / 3]
    labels = [f"row_{k}_{-0.25 * k}" for k in range(7)]
    header = ["row_node"] + [f"col_{k}" for k in range(5)]
    for rows, kwargs in ((table.tolist(), {}),
                         ([[label, *row] for label, row in zip(labels, table)],
                          {"labels": labels})):
        _write_csv(tmp_path / "cells.csv", header, rows)
        _write_table(tmp_path / "rows.csv", header, table, **kwargs)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_residual_records_rates():
    recs = residual_records([0.2, 0.1, 0.05], [1e-2, 2.5e-3, 6.25e-4])
    assert recs[0]["rate"] is None
    assert recs[1]["rate"] == pytest.approx(2.0)
    assert recs[2]["rate"] == pytest.approx(2.0)


def test_residual_records_have_no_rate_at_a_zero_residual():
    recs = residual_records([0.2, 0.1, 0.05, 0.025], [1e-2, 0.0, 0.0, 1e-3])
    assert [r["rate"] for r in recs] == [None] * 4


def test_json_report_rejects_a_nonfinite_number(tmp_path):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            write_json_report(tmp_path / "r.json", {"x": value}, "test.v1")
    write_json_report(tmp_path / "r.json", {"x": None}, "test.v1")
    assert json.loads((tmp_path / "r.json").read_text())["x"] is None


def test_config_2d_constant_coefficients(tmp_path):
    text = """
[problem]
n = 2
s = 0.3
[mesh]
h = 0.5
box = -2, -1, 3, 1
[regions]
Omega = -1, -0.5, 1, 0.5
W1 = 1.5, -0.5, 2.5, 0.5
[coefficients]
gamma = constant:1
"""
    p = tmp_path / "run2d.ini"
    p.write_text(text)
    from fractomo.config import parse_config

    cfg = parse_config(p)
    mesh = cfg.build_mesh()
    assert mesh.n == 2
    co = cfg.coefficients(mesh)
    assert np.allclose(co.gamma, 1.0)
    bad = text.replace("gamma = constant:1", "gamma = gaussian:1,1,0,1")
    p.write_text(bad)
    with pytest.raises(ConfigError, match=r"\[coefficients\] gamma"):
        parse_config(p)
