import json

import numpy as np
import pytest

from fractomo import cli, dnmap
from fractomo.cli import SUBCOMMANDS, SUBCOMMANDS_2D, main
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


def test_counterexample_runs(config_path):
    path, out = config_path
    assert main(["counterexample", "--config", str(path)]) == 0
    report = json.loads((out / "nonuniqueness.json").read_text())
    assert report["dn_gap"] < 1e-2
    assert report["q_gap"] > 0
    assert (out / "pair.csv").exists()


def test_convergence_study_runs(config_path):
    path, out = config_path
    assert main(["convergence-study", "--config", str(path)]) == 0
    data = json.loads((out / "convergence.json").read_text())
    assert len(data["records"]) == 2


def test_oracle_compare(tmp_path):
    out = tmp_path / "a"
    cfg = tmp_path / "oracle.ini"
    cfg.write_text(
        "[problem]\nn = 1\ns = 0.25\n[mesh]\nh = 0.0625\nbox = -8, 8\n"
        "[oracle]\ns_list = 0.25\nu = gaussian:0,1,0,1\n"
        f"[output]\ndirectory = {out}\n"
    )
    assert main(["oracle-compare", "--config", str(cfg)]) == 0
    rows = json.loads((out / "oracle_compare.json").read_text())["rows"]
    assert rows[0]["rel_l2_mismatch"] < 0.02


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
    monkeypatch.setattr(dnmap, "conductivity_form", no_assembly)
    path, out = config_path
    text = path.read_text()
    head, tail = text.split(f"[{section}]")
    bad = path.parent / "typo.ini"
    bad.write_text(head + f"[{section}]" + tail.replace("W = W1", "W = W9", 1))
    assert main([subcommand, "--config", str(bad)]) == 3
    assert "W9" in capsys.readouterr().err


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


def test_standalone_and_deterministic(config_path, tmp_path):
    # every subcommand runs with no other artifact present, and reruns
    # produce byte-identical CSV output
    path, out = config_path
    alt = tmp_path / "other"
    assert main(["dn", "--config", str(path), "--out", str(alt)]) == 0
    assert main(["dn", "--config", str(path)]) == 0
    a = (alt / "dn_matrix.csv").read_bytes()
    b = (out / "dn_matrix.csv").read_bytes()
    assert a == b


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
