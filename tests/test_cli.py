import configparser
import importlib.util
import inspect
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from fractomo import assembly, cli, config, dnmap, reconstruction
from fractomo.cli import SUBCOMMANDS, SUBCOMMANDS_2D, SUBCOMMANDS_REFINING, main
from fractomo.config import ExperimentConfig, parse_config
from fractomo.mesh import support_dofs
from fractomo.profiles import bump

CONFIG = """
[problem]
n = 1
s = 0.25

[mesh]
h = 0.03125
box = -2.25, 3.25

[regions]
Omega = -1.0, 1.0
W1 = 1.2, 1.8

[coefficients]
gamma = plateau:1,1,-0.6,0.6,-0.9,0.9
q = constant:0

[data]
f = bump:0,1,1.5,0.25

[reconstruct]
x0 = 1.5
W = W1

[counterexample]
omega_prime = -0.5, 0.5
omega = 2.1, 2.4
W = W1
eps = 0.05

[convergence]
levels = 2

[output]
directory = {out}
seed = 0
"""


@pytest.fixture()
def config_path(tmp_path):
    out = tmp_path / "artifacts"
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.format(out=out))
    return path, out


def test_poincare(config_path, capsys):
    path, out = config_path
    assert main(["poincare", "--config", str(path)]) == 0
    data = json.loads((out / "poincare.json").read_text())
    assert data["delta0"] >= 2.0
    assert "C_opt" in capsys.readouterr().out


def test_solve_and_artifacts(config_path):
    path, out = config_path
    assert main(["solve", "--config", str(path)]) == 0
    assert (out / "solution.csv").exists()
    report = json.loads((out / "solve.json").read_text())
    assert report["residual"] < 1e-10


def test_dn_runs(config_path):
    path, out = config_path
    assert main(["dn", "--config", str(path)]) == 0
    header = (out / "dn_matrix.csv").read_text().splitlines()[0]
    assert header.startswith("row_node")


def test_reconstruct_runs(config_path):
    path, out = config_path
    assert main(["reconstruct", "--config", str(path)]) == 0
    assert (out / "reconstruction.csv").exists()
    data = json.loads((out / "reconstruction.json").read_text())
    assert data["extrapolated"] > 0


def test_residual_checks_run(config_path):
    path, out = config_path
    assert main(["liouville-check", "--config", str(path)]) == 0
    assert main(["transfer-check", "--config", str(path)]) == 0
    for name in ("liouville.json", "transfer.json"):
        data = json.loads((out / name).read_text())
        assert len(data["records"]) == 2


def _strict_json(path):
    """The report at ``path``, parsed without the ``NaN``/``Infinity``
    extension of Python's JSON reader."""
    def reject(name):
        raise ValueError(f"{path.name}: non-finite number {name}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("subcommand, report", [
    ("liouville-check", "liouville.json"),
    ("transfer-check", "transfer.json"),
])
def test_zero_residuals_have_no_rate(subcommand, report, config_path):
    # unit diffusion makes both reductions exact on every level
    path, out = config_path
    text = (path.read_text()
            .replace("gamma = plateau:1,1,-0.6,0.6,-0.9,0.9", "gamma = constant:1")
            .replace("q = constant:0", "q = constant:0.5")
            .replace("h = 0.03125", "h = 0.0625")
            .replace("levels = 2", "levels = 3"))
    path.write_text(text)
    assert main([subcommand, "--config", str(path)]) == 0
    records = _strict_json(out / report)["records"]
    assert [r["residual"] for r in records] == [0.0] * 3
    assert [r["rate"] for r in records] == [None] * 3


def test_fit_of_two_scales_has_no_residual(config_path):
    path, out = config_path
    path.write_text(path.read_text().replace("x0 = 1.5", "x0 = 1.5\nscales = 4, 8"))
    assert main(["reconstruct", "--config", str(path)]) == 0
    fit = _strict_json(out / "reconstruction.json")["fit"]
    # no power law is fitted to two samples: none of its numbers is reported
    assert fit["amplitude"] is None and fit["rate"] is None
    assert fit["fit_residual"] is None


def test_convergence_rate_after_a_zero_difference_is_left_out(config_path, monkeypatch):
    # equal pairings on the first two levels: no rate from a zero difference
    values = iter([1.0, 1.0, 1.5])
    monkeypatch.setattr(dnmap.DNOperator, "pairing", lambda self, f, g: next(values))
    path, out = config_path
    path.write_text(path.read_text().replace("levels = 2", "levels = 3"))
    assert main(["convergence-study", "--config", str(path)]) == 0
    records = _strict_json(out / "convergence.json")["records"]
    assert [r["diff"] for r in records[1:]] == [0.0, 0.5]
    assert all("rate" not in r for r in records)


def test_counterexample_runs(config_path):
    path, out = config_path
    assert main(["counterexample", "--config", str(path)]) == 0
    report = json.loads((out / "nonuniqueness.json").read_text())
    assert report["dn_gap"] < 1e-2
    assert report["q_gap"] > 0
    assert (out / "pair.csv").exists()


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("subcommand", ["reconstruct", "counterexample"])
def test_kernel_forms_of_a_run_share_one_plan_per_grid_and_order(
        subcommand, check, config_path):
    # two kernel forms on one mesh: an in-box and a tail plan per order,
    # built by the first form and read by the second
    path, out = config_path
    if check:
        path.write_text(path.read_text() + QUADRATURE_CHECK)
    assembly._grid_plan.cache_clear()
    assert main([subcommand, "--config", str(path)]) == 0
    info = assembly._grid_plan.cache_info()
    plans = 2 * (1 + check)
    assert (info.misses, info.hits, info.currsize) == (plans, plans, plans)


def test_convergence_study_runs(config_path):
    path, out = config_path
    assert main(["convergence-study", "--config", str(path)]) == 0
    data = json.loads((out / "convergence.json").read_text())
    assert len(data["records"]) == 2


ORACLE_CONFIG = (
    "[problem]\nn = 1\ns = 0.25\n[mesh]\nh = 0.0625\nbox = -8, 8\n"
    "[oracle]\ns_list = 0.25\nu = gaussian:0,1,0,1\n"
    "[output]\ndirectory = {out}\n"
)


def test_oracle_compare(tmp_path):
    out = tmp_path / "a"
    cfg = tmp_path / "oracle.ini"
    cfg.write_text(ORACLE_CONFIG.format(out=out))
    assert main(["oracle-compare", "--config", str(cfg)]) == 0
    rows = json.loads((out / "oracle_compare.json").read_text())["rows"]
    assert rows[0]["rel_l2_mismatch"] < 0.02


def test_oracle_u_without_padding_is_a_config_error(config_path, monkeypatch, capsys):
    # the default u on the box -2.25..3.25 comes too close to the box faces
    calls = []
    original = assembly._kernel_form

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(assembly, "_kernel_form", recording)
    path, out = config_path
    assert main(["oracle-compare", "--config", str(path)]) == 3
    assert "[oracle] u" in capsys.readouterr().err
    assert calls == []


def test_exit_code_config_error(tmp_path, capsys):
    # every measurement label ("W...") is checked, not only W1/W2
    for label in ("W1", "W3"):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[problem]\nn = 1\ns = 0.25\n[mesh]\nh = 0.125\nbox = -2, 3\n"
            f"[regions]\nOmega = -1, 1\n{label} = 0.5, 1.5\n"
        )
        assert main(["poincare", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert label in err and "Omega" in err


def test_exit_code_oracle_order_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "oracle.ini"
    cfg.write_text(
        "[problem]\nn = 1\ns = 0.25\n[mesh]\nh = 0.0625\nbox = -8, 8\n"
        f"[oracle]\ns_list = 0.25, 1.5\n[output]\ndirectory = {tmp_path / 'a'}\n"
    )
    assert main(["oracle-compare", "--config", str(cfg)]) == 3
    assert "s_list" in capsys.readouterr().err


def test_value_error_is_one_line_exit_1(config_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("broken input")

    monkeypatch.setattr(cli, "poincare_constant", broken)
    path, out = config_path
    assert main(["poincare", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "fractomo poincare: error: broken input\n"


def test_dn_needs_w1_before_assembly(tmp_path, monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a form was assembled before the W1 check")

    monkeypatch.setattr(cli, "conductivity_form", no_assembly)
    path = tmp_path / "run.ini"
    path.write_text(
        "[problem]\nn = 1\ns = 0.25\n[mesh]\nh = 0.125\nbox = -2, 3\n"
        "[regions]\nOmega = -1, 1\nV = 1.25, 2\n"
        f"[output]\ndirectory = {tmp_path / 'a'}\n"
    )
    assert main(["dn", "--config", str(path)]) == 3
    assert "W1" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, section", [
    ("reconstruct", "reconstruct"),
    ("transfer-check", "reconstruct"),
    ("counterexample", "counterexample"),
    ("convergence-study", "reconstruct"),
])
def test_unknown_measurement_label_before_assembly(subcommand, section, config_path,
                                                    monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a form was assembled before the label check")

    for name in ("conductivity_form", "gagliardo_form", "dn_transfer_residual"):
        monkeypatch.setattr(cli, name, no_assembly)
    path, out = config_path
    text = path.read_text()
    head, tail = text.split(f"[{section}]")
    bad = path.parent / "typo.ini"
    # W9 names no region; Omega names one that is no measurement set
    for label in ("W9", "Omega"):
        bad.write_text(head + f"[{section}]"
                       + tail.replace("W = W1", f"W = {label}", 1))
        assert main([subcommand, "--config", str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"[{section}] W: " in err and repr(label) in err


def test_convergence_study_pairs_over_the_configured_region(config_path):
    # [reconstruct] W = W2 next to W1 gives the pairings of a config whose
    # only measurement region W1 is W2's interval
    path, out = config_path
    text = path.read_text()
    two = path.parent / "two.ini"
    two.write_text(text.replace("W1 = 1.2, 1.8", "W1 = 1.2, 1.8\nW2 = 2.0, 2.6")
                   .replace("x0 = 1.5\nW = W1", "x0 = 1.5\nW = W2"))
    one = path.parent / "one.ini"
    one.write_text(text.replace("W1 = 1.2, 1.8", "W1 = 2.0, 2.6"))
    records = []
    for cfg in (two, one, path):
        assert main(["convergence-study", "--config", str(cfg)]) == 0
        records.append(json.loads((out / "convergence.json").read_text())["records"])
    assert records[0] == records[1]
    assert records[0] != records[2]


def test_exit_code_invariant_violation(config_path, capsys):
    path, out = config_path
    text = path.read_text().replace("q = constant:0", "q = constant:-100")
    bad = path.parent / "lost.ini"
    bad.write_text(text)
    assert main(["solve", "--config", str(bad)]) == 2
    assert "invariant" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_standalone_and_deterministic(subcommand, config_path, tmp_path):
    # every subcommand runs with no other artifact present, and a rerun
    # writes byte-identical CSV and JSON artifacts
    path, out = config_path
    if subcommand == "oracle-compare":
        # the default oracle u comes too close to the faces of this box
        path = tmp_path / "oracle.ini"
        path.write_text(ORACLE_CONFIG.format(out=out))
    alt = tmp_path / "other"
    assert main([subcommand, "--config", str(path), "--out", str(alt)]) == 0
    assert main([subcommand, "--config", str(path)]) == 0

    def artifacts(directory):
        return sorted(p.name for p in directory.iterdir()
                      if p.suffix in (".csv", ".json"))

    names = artifacts(alt)
    assert names and names == artifacts(out)
    for name in names:
        assert (alt / name).read_bytes() == (out / name).read_bytes(), name


def test_exit_code_nonfinite_preset(config_path, capsys):
    path, out = config_path
    bad = path.parent / "nan.ini"
    bad.write_text(path.read_text().replace("q = constant:0", "q = constant:nan"))
    assert main(["solve", "--config", str(bad)]) == 3
    assert "finite" in capsys.readouterr().err


RECONSTRUCT_ON_NODE = """
[problem]
n = 1
s = 0.25
[mesh]
h = 0.0078125
box = -2.25, 3.75
[regions]
Omega = -1.0, 1.0
W1 = 1.25, 2.75
[coefficients]
gamma = bump:1,0.7,2.0,1.4
q = bump:0,2.0,2.0,0.5
[reconstruct]
W = W1
x0 = 2.0
[output]
directory = {out}
"""


def test_reconstruct_at_a_grid_node(tmp_path):
    # x0 = 2.0 is a node at h = 1/128; gamma(x0) = 1 + 0.7 bump(0)
    path = tmp_path / "run.ini"
    path.write_text(RECONSTRUCT_ON_NODE.format(out=tmp_path / "artifacts"))
    assert main(["reconstruct", "--config", str(path)]) == 0
    data = json.loads((tmp_path / "artifacts" / "reconstruction.json").read_text())
    true = 1.0 + 0.7 * float(bump(np.array([0.0]))[0])
    assert abs(data["extrapolated"] - true) <= 0.01 * true


CONFIG_2D = """
[problem]
n = 2
s = 0.3
[mesh]
h = 0.5
box = -2, -1, 3, 1
[regions]
Omega = -1, -0.5, 1, 0.5
W1 = 1.5, -0.5, 2.5, 0.5
[reconstruct]
x0 = 2.0
[output]
directory = {out}
"""


@pytest.mark.parametrize(
    "subcommand", [s for s in SUBCOMMANDS if s not in SUBCOMMANDS_2D]
)
def test_1d_pipelines_reject_2d_configs_up_front(subcommand, tmp_path,
                                                   monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a form was assembled before the dimension check")

    for name in ("conductivity_form", "gagliardo_form", "mass_matrix"):
        monkeypatch.setattr(cli, name, no_assembly)
    path = tmp_path / "run2d.ini"
    path.write_text(CONFIG_2D.format(out=tmp_path / "artifacts"))
    assert main([subcommand, "--config", str(path)]) == 3
    assert "1D pipeline" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize("subcommand", SUBCOMMANDS_2D)
def test_2d_coefficients_are_constant_presets_before_assembly(subcommand, tmp_path,
                                                              monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a kernel form was assembled before the preset check")

    monkeypatch.setattr(assembly, "_kernel_form", no_assembly)
    path = tmp_path / "run2d.ini"
    path.write_text(CONFIG_2D.format(out=tmp_path / "artifacts")
                    + "[coefficients]\ngamma = gaussian:1,1,0,1\n")
    assert main([subcommand, "--config", str(path)]) == 3
    assert "[coefficients] gamma: must be a constant preset" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


# at h = 1/32, Omega = -0.02, 0.02 captures node 0 but holds no hat support
@pytest.mark.parametrize("omega", ["", "Omega = -0.02, 0.02\n"],
                         ids=["no-Omega", "Omega-below-h"])
@pytest.mark.parametrize("subcommand", [s for s in SUBCOMMANDS if s != "oracle-compare"])
def test_no_interior_dof_is_named_before_assembly(subcommand, omega, config_path,
                                                  monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a kernel form was assembled before the interior check")

    monkeypatch.setattr(assembly, "_kernel_form", no_assembly)
    path, out = config_path
    path.write_text(path.read_text().replace("Omega = -1.0, 1.0\n", omega))
    assert main([subcommand, "--config", str(path)]) == 3
    assert "config error: [regions]: no interior dof" in capsys.readouterr().err
    assert not out.exists()


QUADRATURE_CHECK = "\n[quadrature]\ncheck = true\n"


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_quadrature_check_reaches_every_kernel_form(subcommand, config_path,
                                                    tmp_path, monkeypatch):
    original = assembly._kernel_form
    signature = inspect.signature(original)
    seen = []

    def recording(*args, **kwargs):
        seen.append(signature.bind(*args, **kwargs).arguments["check"])
        return original(*args, **kwargs)

    monkeypatch.setattr(assembly, "_kernel_form", recording)
    path, out = config_path
    if subcommand == "oracle-compare":
        text = ORACLE_CONFIG.format(out=out)
    else:
        text = path.read_text()
    checked = tmp_path / "checked.ini"
    checked.write_text(text + QUADRATURE_CHECK)
    assert main([subcommand, "--config", str(checked)]) == 0
    assert seen and all(check is True for check in seen), seen


CONFIG_2D_S045 = """
[problem]
n = 2
s = 0.45
[mesh]
h = 0.25
box = -1, -1, 1, 1
[regions]
Omega = -0.5, -0.5, 0.5, 0.5
W1 = 0.5, -0.75, 1.0, 0.75
[output]
directory = {out}
"""


@pytest.mark.parametrize("subcommand", SUBCOMMANDS_2D)
def test_quadrature_check_fails_2d_at_s045(subcommand, tmp_path, capsys):
    # the 2D self check defect is 5.7e-4 at s = 0.45, above its 5e-4 bound
    path = tmp_path / "run2d.ini"
    path.write_text(CONFIG_2D_S045.format(out=tmp_path / "a") + QUADRATURE_CHECK)
    assert main([subcommand, "--config", str(path)]) == 1
    assert "self check failed" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", [
    "reconstruct", "counterexample", "liouville-check", "transfer-check",
])
def test_reconstruct_assembles_each_local_form_once(subcommand, config_path,
                                                    monkeypatch):
    # one absorption form per system form, which every pipeline reuses,
    # and one mass matrix (reconstruct, counterexample); the convergence
    # levels of the residual checks each build one system form
    original = assembly.potential_form
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fractomo") and getattr(module, "potential_form", None) is original:
            monkeypatch.setattr(module, "potential_form", counting)
    path, out = config_path
    absorbing = path.parent / "absorbing.ini"
    absorbing.write_text(path.read_text().replace("q = constant:0",
                                                  "q = bump:0,0.3,0,0.6"))
    assert main([subcommand, "--config", str(absorbing)]) == 0
    assert len(calls) == 2


def test_reconstruct_enforces_the_decay_bound(config_path, capsys):
    # an absorption spike at x0 makes the pairing grow along the bumps
    path, out = config_path
    bad = path.parent / "spike.ini"
    bad.write_text(path.read_text().replace("q = constant:0", "q = bump:0,100,1.5,0.05"))
    assert main(["reconstruct", "--config", str(bad)]) == 2
    assert "invariant violated" in capsys.readouterr().err


def _with_key(path, section, key, value):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    bad = path.parent / "bad.ini"
    with bad.open("w") as fh:
        cp.write(fh)
    return bad


#: a gamma that is positive on the nodes of the test config at h = 1/32 and
#: -1 at the node 1/64 of its refinement h/2
GAMMA_NEGATIVE_AT_H2 = "piecewise:-10,1,0.01,-1,0.02,1"


@pytest.mark.parametrize("subcommand, section, key, value", [
    ("solve", "data", "far_field", "nan"),
    ("convergence-study", "convergence", "levels", "0"),
    ("liouville-check", "convergence", "levels", "-1"),
    ("reconstruct", "reconstruct", "scales", "0"),
    ("reconstruct", "reconstruct", "p", "1.5"),
    ("oracle-compare", "oracle", "pad_factor", "0"),
    ("poincare", "quadrature", "check", "maybe"),
    ("counterexample", "output", "seed", "-1"),
    ("counterexample", "counterexample", "eps", "0"),
    ("counterexample", "counterexample", "scale", "1.5"),
    ("solve", "coefficients", "gamma_exterior", "-1"),
    ("solve", "mesh", "box", "3.25, -2.25"),
    ("counterexample", "counterexample", "omega", "2.1"),
    ("counterexample", "counterexample", "omega", "2.1, 2.4, 2.5"),
    ("counterexample", "counterexample", "omega_prime", "0.5, -0.5"),
    ("reconstruct", "reconstruct", "scales", "4.7, 8"),
    ("reconstruct", "reconstruct", "scales", "8, 4"),
    ("reconstruct", "reconstruct", "scales", "4, 4"),
    ("oracle-compare", "oracle", "s_list", ","),
    ("solve", "data", "f", "bump:0,1,1.5"),
    ("solve", "data", "source", "wiggle:1"),
    ("oracle-compare", "oracle", "u", "gaussian:0,1,0"),
    ("counterexample", "coefficients", "gamma", "wiggle:1"),
    ("poincare", "coefficients", "q", "constant:nan"),
    ("poincare", "coefficients", "gamma", "constant:-1"),
    ("counterexample", "coefficients", "gamma", "constant:-1"),
    # negative only at x = 1/64, a node of the second refinement level
    ("liouville-check", "coefficients", "gamma", GAMMA_NEGATIVE_AT_H2),
    ("transfer-check", "coefficients", "gamma", GAMMA_NEGATIVE_AT_H2),
    ("convergence-study", "coefficients", "gamma", GAMMA_NEGATIVE_AT_H2),
])
def test_value_outside_its_domain_is_named_before_assembly(
        subcommand, section, key, value, config_path, monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a form was assembled before the config check")

    monkeypatch.setattr(assembly, "_kernel_form", no_assembly)
    path, out = config_path
    assert main([subcommand, "--config", str(_with_key(path, section, key, value))]) == 3
    assert f"[{section}] {key}" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["solve", "dn", "reconstruct"])
def test_gamma_negative_off_the_run_mesh_is_not_an_error(subcommand, config_path):
    path, out = config_path
    bad = _with_key(path, "coefficients", "gamma", GAMMA_NEGATIVE_AT_H2)
    assert main([subcommand, "--config", str(bad)]) == 0


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_each_level_is_built_and_evaluated_once(subcommand, config_path, monkeypatch):
    # parse_config validates the grid without a mesh; the run builds each
    # of its levels once, level 0 and then the others finest first,
    # evaluates the coefficients once on each, and the runner reads them
    # from that list
    built, evaluated = [], []
    build, coefficients = ExperimentConfig.build_mesh, ExperimentConfig.coefficients

    def recording_build(self, level=0):
        built.append(level)
        return build(self, level)

    def recording_coefficients(self, mesh):
        evaluated.append(mesh.h)
        return coefficients(self, mesh)

    monkeypatch.setattr(ExperimentConfig, "build_mesh", recording_build)
    monkeypatch.setattr(ExperimentConfig, "coefficients", recording_coefficients)
    path, out = config_path
    main([subcommand, "--config", str(path)])  # oracle-compare exits 3 here
    levels = 2 if subcommand in SUBCOMMANDS_REFINING else 1
    assert built == [0] + list(range(levels - 1, 0, -1))
    assert evaluated == [0.03125 / 2**level for level in built]


def test_system_form_adds_the_potential_form_in_place(config_path):
    path, out = config_path
    cfg = cli.parse_config(path)
    mesh = cfg.build_mesh()
    params = cfg.params()
    coeffs = cfg.coefficients(mesh)
    form, qform = cli._system_form(cfg, mesh, params, coeffs)
    summed = (assembly.conductivity_form(mesh, params, coeffs)
              + assembly.potential_form(mesh, coeffs.q))
    assert np.array_equal(form.entries, summed.entries)
    assert np.array_equal(form.tail_row, summed.tail_row)
    assert np.array_equal(qform.entries, assembly.potential_form(mesh, coeffs.q).entries)


def test_no_run_reads_the_dense_view_of_a_local_form(tmp_path, monkeypatch):
    # a mass or potential form is applied, solved with and added from its
    # band only: every subcommand runs with its dense view made to raise
    def no_dense_view(form):
        raise AssertionError("a local form's dense view was built")

    monkeypatch.setattr(assembly.LocalForm, "entries", property(no_dense_view))
    runs = [(CONFIG, sub) for sub in SUBCOMMANDS if sub != "oracle-compare"]
    runs += [(ORACLE_CONFIG, "oracle-compare")]
    runs += [(CONFIG_2D, sub) for sub in SUBCOMMANDS_2D]
    for k, (text, subcommand) in enumerate(runs):
        path = tmp_path / f"run{k}.ini"
        path.write_text(text.format(out=tmp_path / f"out{k}"))
        assert main([subcommand, "--config", str(path)]) == 0, subcommand


def test_reconstruct_reads_the_dn_columns_of_the_bump_support(config_path, monkeypatch):
    # the DN matrix spans the hats the bumps touch, fewer than the hats of
    # W1, and the scales are checked once
    matrices, checks = [], []
    matrix, scale_errors = dnmap.DNOperator.matrix, reconstruction._scale_errors

    def recording_matrix(self, W1, W2):
        matrices.append(matrix(self, W1, W2))
        return matrices[-1]

    def recording_scale_errors(*args):
        checks.append(args)
        return scale_errors(*args)

    monkeypatch.setattr(dnmap.DNOperator, "matrix", recording_matrix)
    monkeypatch.setattr(reconstruction, "_scale_errors", recording_scale_errors)
    path, out = config_path
    assert main(["reconstruct", "--config", str(path)]) == 0
    assert len(checks) == 1
    (dn,) = matrices
    cfg = parse_config(path)
    mesh = cfg.build_mesh()
    x = mesh.coords
    touched = np.flatnonzero(np.any([bump(N * (x - cfg.x0)) for N in (4, 8, 16)], axis=0))
    assert np.array_equal(dn.cols, touched) and np.array_equal(dn.rows, touched)
    assert dn.cols.size < support_dofs(mesh, "W1").size


def test_reconstruction_json_flags_a_rate_at_the_grid_edge(config_path):
    # on this config the fit over the scales 4, 8, 16 settles on the lower
    # end of the rate grid; with two scales no fit is made
    path, out = config_path
    assert main(["reconstruct", "--config", str(path)]) == 0
    fit = _strict_json(out / "reconstruction.json")["fit"]
    assert fit["rate"] == pytest.approx(0.1) and fit["rate_at_grid_edge"] is True
    path.write_text(path.read_text().replace("x0 = 1.5", "x0 = 1.5\nscales = 4, 8"))
    assert main(["reconstruct", "--config", str(path)]) == 0
    fit = _strict_json(out / "reconstruction.json")["fit"]
    assert fit["rate"] is None and fit["rate_at_grid_edge"] is False


# each value lies in its key's domain but breaks a relation with the
# regions (W1 = 1.2, 1.8 at h = 1/32): the library's message is kept.  At
# x0 = 1.46 the N = 4 bump stays inside W1 but is nonzero at the node
# 1.21875, whose hat reaches 1.1875 < 1.2
@pytest.mark.parametrize("subcommand, section, keys, message", [
    ("reconstruct", "reconstruct", {"x0": "2.5"}, "x0=2.5 is not inside W=(1.2, 1.8)"),
    ("reconstruct", "reconstruct", {"scales": "2, 4"},
     "support of scale N=2 bump leaves W=(1.2, 1.8)"),
    ("reconstruct", "reconstruct", {"scales": "4, 64"},
     "scale N=64 support spans fewer than 4 mesh widths"),
    ("reconstruct", "reconstruct", {"x0": "1.46", "scales": "4, 8"},
     "scale N=4 bump is nonzero at node 1.21875, whose hat leaves W=(1.2, 1.8)"),
    ("counterexample", "counterexample", {"omega": "1.3, 1.6"},
     "omega(5eps) and W intersect"),
    ("counterexample", "counterexample", {"eps": "5"},
     "Omega'(5eps) and omega(5eps) intersect"),
], ids=["x0-outside-W", "scale-leaves-W", "scale-unresolved", "bump-off-the-hats-of-W",
        "omega-meets-W", "eps-joins-sets"])
def test_region_relation_is_named_before_assembly(
        subcommand, section, keys, message, config_path, monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a form was assembled before the relation check")

    monkeypatch.setattr(assembly, "_kernel_form", no_assembly)
    path, out = config_path
    for key, value in keys.items():
        path = _with_key(path, section, key, value)
    assert main([subcommand, "--config", str(path)]) == 3
    assert f"config error: [{section}]: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["poincare"],
    ["poincare", "--config", "run.ini", "--no-such-flag"],
    ["no-such-subcommand", "--config", "run.ini"],
])
def test_usage_error_is_a_config_error(argv, capsys):
    assert main(argv) == 3
    assert "usage" in capsys.readouterr().err


# the test config has 177 nodes at h = 1/32 and 353 on its second
# refinement level, which convergence-study also runs
@pytest.mark.parametrize("subcommand, nodes", [
    ("counterexample", 177),
    ("convergence-study", 353),
])
def test_memory_preflight_exits_1_before_any_kernel_form(
        subcommand, nodes, config_path, monkeypatch, capsys):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a kernel form was assembled")

    monkeypatch.setattr(assembly, "_kernel_form", no_assembly)
    need = cli.FORMS_ALIVE * 8 * nodes**2
    monkeypatch.setattr(cli, "_available_memory", lambda: need - 1)
    path, out = config_path
    assert main([subcommand, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"N = {nodes} nodes" in err
    assert f"{need} bytes" in err and f"{need - 1} bytes" in err
    assert not out.exists()


def test_memory_preflight_refuses_before_any_refined_mesh(config_path, monkeypatch,
                                                          capsys):
    # levels = 16 puts 176 * 2**15 + 1 nodes on the finest grid: the
    # preflight sizes it from the box and the spacing, and no mesh is
    # ever built, level 0 neither
    spacings = []
    original = config.build_mesh

    def recording(box, h, regions=None):
        spacings.append(h)
        return original(box, h, regions)

    monkeypatch.setattr(config, "build_mesh", recording)
    nodes = 176 * 2**15 + 1
    need = cli.FORMS_ALIVE * 8 * nodes**2
    monkeypatch.setattr(cli, "_available_memory", lambda: need - 1)
    path, out = config_path
    path.write_text(path.read_text().replace("levels = 2", "levels = 16"))
    assert main(["convergence-study", "--config", str(path)]) == 1
    assert f"N = {nodes} nodes" in capsys.readouterr().err
    assert not spacings
    assert not out.exists()


def test_a_run_too_large_for_memory_builds_no_mesh(config_path, monkeypatch, capsys):
    # h = 2**-20 puts 5.5 * 2**20 + 1 nodes on the level-0 grid: parse_config
    # checks the grid and the regions without a mesh, and the preflight
    # refuses the run before the first mesh
    built = []

    def refusing(box, h, regions=None):
        built.append(h)
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(config, "build_mesh", refusing)
    monkeypatch.setattr(cli, "_available_memory", lambda: 16 * 2**30)
    path, out = config_path
    path = _with_key(path, "mesh", "h", repr(2.0**-20))
    assert main(["poincare", "--config", str(path)]) == 1
    assert f"N = {11 * 2**19 + 1} nodes" in capsys.readouterr().err
    assert not built
    assert not out.exists()


def test_memory_preflight_is_skipped_without_a_reading(config_path, monkeypatch):
    monkeypatch.setattr(cli, "_available_memory", lambda: None)
    path, out = config_path
    assert main(["poincare", "--config", str(path)]) == 0


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("x0 = 1.5", "x0 = 1.5\nsacles = 4, 8"),
     "[reconstruct] sacles: unknown key"),
    (lambda text: text + "\n[bogus]\n", "[bogus]: unknown section"),
    (lambda text: text + "\n[Convergence]\nlevels = 3\n", "[Convergence]: unknown section"),
    (lambda text: "[DEFAULT]\nh = 0.0625\n" + text, "[DEFAULT] h: unknown key"),
], ids=["misspelled-key", "empty-section", "section-case", "default-key"])
def test_a_name_the_grammar_does_not_know_is_a_config_error(
        edit, message, config_path, monkeypatch, capsys):
    # a typo exits 3 instead of running the default it leaves in place
    def no_assembly(*args, **kwargs):
        raise AssertionError("a kernel form was assembled before the key check")

    monkeypatch.setattr(assembly, "_kernel_form", no_assembly)
    path, out = config_path
    path.write_text(edit(path.read_text()))
    assert main(["reconstruct", "--config", str(path)]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_available_memory_reads_a_byte_count():
    available = cli._available_memory()
    assert available is None or (isinstance(available, int) and available > 0)


def _module(name, path):
    """The module of the source file at ``path``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tool(name):
    """The module of ``tools/NAME.py``."""
    return _module(name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")


def test_artifact_digest_of_a_repeated_run_is_identical(config_path, capsys):
    path, out = config_path
    digest = _tool("artifact_digest")
    assert digest.main([str(path), "poincare", "dn"]) == 0
    first = capsys.readouterr().out
    assert digest.main([str(path), "poincare", "dn"]) == 0
    assert capsys.readouterr().out == first
    assert [line.split()[:3] for line in first.splitlines()] == [
        ["poincare", "0", "poincare.json"], ["poincare", "0", "(stdout)"],
        ["poincare", "0", "(stderr)"], ["dn", "0", "dn_matrix.csv"],
        ["dn", "0", "(stdout)"], ["dn", "0", "(stderr)"],
    ]
    # --out overrides the config's directory: the runs wrote nothing there
    assert not out.exists()


def test_artifact_drift_names_the_changed_cell(config_path, tmp_path):
    path, out = config_path
    assert main(["reconstruct", "--config", str(path)]) == 0
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    drift = _tool("artifact_drift")
    assert drift.drift(out, copy) == [
        "reconstruction.csv: max abs 0, max rel 0",
        "reconstruction.json: max abs 0, max rel 0",
    ]
    rows = (copy / "reconstruction.csv").read_text().splitlines()
    cells = rows[2].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    rows[2] = ",".join(cells)
    (copy / "reconstruction.csv").write_text("\n".join(rows) + "\n")
    report = json.loads((copy / "reconstruction.json").read_text())
    report["x0"] = "moved"
    (copy / "reconstruction.json").write_text(json.dumps(report))
    (copy / "extra.txt").write_text("")
    lines = drift.drift(out, copy)
    assert lines[0] == "extra.txt: only in B"
    assert lines[1].startswith("reconstruction.csv: max abs ")
    assert lines[1].count("(line 3, field 2)") == 2
    assert float(lines[1].split("max rel ")[1].split()[0]) == pytest.approx(1e-6, rel=1e-3)
    assert lines[2:] == ["reconstruction.json: max abs 0, max rel 0",
                         "reconstruction.json: .x0: 1.5 -> 'moved'"]


def test_artifact_configs_parse(tmp_path, capsys):
    # every config the tool writes parses, and each printed run names one
    tool = _tool("artifact_configs")
    assert tool.main([str(tmp_path / "cfgs")]) == 0
    runs = [line.split() for line in capsys.readouterr().out.splitlines()]
    written = sorted(p for p in (tmp_path / "cfgs").rglob("*.ini"))
    assert sorted(Path(run[0]) for run in runs) == written and len(written) == 8
    for config_file, *subcommands in runs:
        parse_config(config_file)
        assert set(subcommands) <= set(SUBCOMMANDS)
    # the far-field solve runs at the size of the benchmark's dn1d workload
    far = parse_config(tmp_path / "cfgs" / "far1d.ini")
    assert far.far_field == 0.7 and far.grid_shape() == (1409,)
    assert [run[1:] for run in runs if run[0].endswith("far1d.ini")] == [["solve"]]


def test_benchmark_configs_parse(tmp_path):
    # the inverse1d workload runs the CLI on the configs it draws: a key
    # parse_config does not know would fail every op of the benchmark
    workloads = _module("_bench_workloads",
                        Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    for seed in range(3):
        draw = workloads.Inverse1D(1 / 128, tmp_path).draw(np.random.default_rng(seed))
        for config_file in draw["configs"].values():
            parse_config(config_file)
