"""The three benchmark workloads: inputs, the timed op, and its gates.

Each workload draws fresh smooth coefficients for every op from a seeded
generator (so no memo keyed on a form's inputs can hit), runs one op
through the public functions of the package, and checks the result
against gates taken from the acceptance suite.  Input generation and
the checks are never inside the timed region.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from fractomo import assembly, cli, dnmap, mesh as fmesh, spectral
from fractomo.profiles import bump

S = 0.25

#: rel_err gate of the 1D spectral check (acceptance criterion 1)
REL_ERR_GATE_1D = 0.02
#: rel_err gate of the 2D spectral check, pinned above the 2.50-2.55%
#: that the code at the benchmark's first commit measures at h = 1/4
REL_ERR_GATE_2D = 0.03
#: acceptance-suite tolerances (criteria 4, 7 and 9)
SYMMETRY_GATE = 1e-10
SHIFT_GATE = 1e-9
RESIDUAL_GATE = 1e-10
TAIL_ROW_GATE = 1e-10  # relative to max|A|: round-off of a row sum
RECONSTRUCT_GATE = 0.05
DN_GAP_GATE = 1e-2
Q_GAP_FLOOR = 0.05
CONDITION3_GATE = 1e-8


def _gates(checks: dict) -> list:
    """Names of the failed gates in ``{name: passed}``."""
    return [name for name, passed in checks.items() if not passed]


class ForwardDN:
    """Forward problem plus the DN matrix on W1 (``dn1d`` and ``dn2d``).

    Op: ``build_mesh`` -> ``conductivity_form`` + ``potential_form`` ->
    ``DNOperator(form=...)`` -> ``.matrix("W1", "W1")`` -> one ``.solve``
    with a far-field constant.
    """

    def __init__(self, n: int, h: float):
        self.n = n
        self.h = h
        self.params = assembly.KernelParams(n, S)
        if n == 1:
            self.box = fmesh.Box((-2.25,), (3.25,))
            self.regions = [fmesh.Region("Omega", (-1.0,), (1.0,)),
                            fmesh.Region("W1", (1.2,), (1.8,))]
            self.w1_center = np.array([1.5])
            self.w1_radius = 0.28
        else:
            self.box = fmesh.Box((-1.0, -1.0), (1.0, 1.0))
            self.regions = [fmesh.Region("Omega", (-0.5, -0.5), (0.5, 0.5)),
                            fmesh.Region("W1", (0.5, -0.75), (1.0, 0.75))]
            self.w1_center = np.array([0.75, 0.0])
            self.w1_radius = 0.24
        # only used to evaluate the drawn coefficients at the nodes
        self.nodes = fmesh.build_mesh(self.box, h, self.regions).nodes
        self.rel_err_gate = REL_ERR_GATE_1D if n == 1 else REL_ERR_GATE_2D
        #: the oracle's test function
        self.u = self._profile(np.zeros(n), 0.45)

    def _profile(self, center, radius):
        y = (self.nodes - center) / radius
        return bump(y[:, 0] if self.n == 1 else y)

    def draw(self, rng) -> dict:
        # gamma, q and the oracle's u stay inside Omega, which keeps the
        # support inside the central half of the box the oracle needs.
        # The draws vary little around one shape, so rel_err stays a
        # property of the discretization rather than of the draw.
        c = rng.uniform(-0.02, 0.02, self.n)
        gamma = 1.0 + rng.uniform(0.45, 0.55) * self._profile(c, rng.uniform(0.44, 0.46))
        q = rng.uniform(0.1, 0.3) * self._profile(-c, 0.4)
        f = rng.uniform(0.5, 1.5) * self._profile(self.w1_center, self.w1_radius)
        g = self._profile(self.w1_center, 0.7 * self.w1_radius)
        return {"gamma": gamma, "q": q, "f": f, "g": g,
                "far_field": rng.uniform(0.5, 1.5), "seed": int(rng.integers(2**31))}

    def op(self, inp: dict) -> dict:
        mesh = fmesh.build_mesh(self.box, self.h, self.regions)
        coeffs = assembly.Coefficients.from_arrays(inp["gamma"], inp["q"])
        cond = assembly.conductivity_form(mesh, self.params, coeffs)
        pot = assembly.potential_form(mesh, coeffs.q)
        dn_op = dnmap.DNOperator(mesh, self.params, coeffs, form=cond + pot)
        dn = dn_op.matrix("W1", "W1")
        sol = dn_op.solve(inp["f"], far_field=inp["far_field"])
        return {"mesh": mesh, "cond": cond, "operator": dn_op, "dn": dn, "sol": sol}

    def corrupt(self, out: dict) -> None:
        """Perturb one off-diagonal DN entry (the smoke mode's bad result)."""
        out["dn"].entries[0, -1] *= 1.0 + 1e-6

    def check(self, inp: dict, out: dict) -> tuple:
        mesh, cond, dn_op, dn = out["mesh"], out["cond"], out["operator"], out["dn"]
        A = cond.entries
        tail_defect = np.abs(A.sum(axis=1) - cond.tail_row).max() / np.abs(A).max()

        rng = np.random.default_rng(inp["seed"])
        interior = dn_op.system.interior
        g = inp["g"]
        shift = np.zeros(mesh.num_nodes)
        shift[interior] = rng.standard_normal(interior.size)
        base = dn_op.pairing(inp["f"], g)
        shifted = dn_op.pairing(inp["f"], g + shift, check_support=False)

        direct = np.diag(dn_op.form.entries)[dn.cols]
        rel_err = self.spectral_error(mesh, cond, inp)
        failed = _gates({
            "dn_symmetry": dn.symmetry_defect() < SYMMETRY_GATE,
            "tail_row": tail_defect < TAIL_ROW_GATE,
            "representative_shift": abs(shifted - base) < SHIFT_GATE,
            "solve_residual": out["sol"].residual <= RESIDUAL_GATE,
            "dn_diagonal_energy": bool((np.diag(dn.entries) <= direct + 1e-12).all()),
            "rel_err": rel_err < self.rel_err_gate,
        })
        return rel_err, failed

    def spectral_error(self, mesh, cond, inp) -> float:
        """Mass-weighted relative error of ``M^{-1} A u`` against the
        spectral oracle of ``L_gamma u = sqrt(gamma) [(-Delta)^s (sqrt(gamma) u)
        - u (-Delta)^s m]`` with ``m = sqrt(gamma) - 1``."""
        sq = np.sqrt(inp["gamma"])
        u = self.u
        lap = spectral.spectral_frac_laplacian
        ref = sq * (lap(mesh, self.params, sq * u) - u * lap(mesh, self.params, sq - 1.0))
        M = assembly.mass_matrix(mesh).entries
        nodal = np.linalg.solve(M, cond.entries @ u)
        diff = nodal - ref
        return float(np.sqrt(diff @ M @ diff) / np.sqrt(ref @ M @ ref))


class Inverse1D:
    """The paper's inverse pipelines through the CLI, in-process.

    Op: ``fractomo reconstruct`` then ``fractomo counterexample``, each
    through ``fractomo.cli.main`` with a generated INI file.
    """

    def __init__(self, h: float, workdir: Path):
        self.h = h
        self.workdir = workdir

    def draw(self, rng) -> dict:
        # the reconstruction error grows from ~0.4% at x0 = 2 to ~2% at
        # 1.75 and 2.25; a narrow x0 range keeps the per-run median steady
        amp = rng.uniform(0.65, 0.75)
        x0 = rng.uniform(1.9, 2.1)
        center, radius = 2.0, 1.4
        gamma_x0 = 1.0 + amp * float(bump(np.array([(x0 - center) / radius]))[0])
        recon = f"""
[problem]
n = 1
s = {S}
[mesh]
h = {self.h!r}
box = -2.25, 3.75
[regions]
Omega = -1.0, 1.0
W1 = 1.25, 2.75
[coefficients]
gamma = bump:1,{amp!r},{center},{radius}
q = bump:0,2.0,{x0!r},0.5
[reconstruct]
W = W1
x0 = {x0!r}
p = inf
gamma_true = {gamma_x0!r}
"""
        counter = f"""
[problem]
n = 1
s = {S}
[mesh]
h = {self.h!r}
box = -2.25, 3.25
[regions]
Omega = -1.0, 1.0
W1 = 1.2, 1.8
[counterexample]
omega_prime = -0.5, 0.5
omega = 2.1, 2.4
W = W1
eps = 0.05
scale = {rng.uniform(0.5, 1.0)!r}
[output]
seed = {int(rng.integers(2**31))}
"""
        paths = {}
        for name, text in (("reconstruct", recon), ("counterexample", counter)):
            paths[name] = self.workdir / f"{name}.ini"
            paths[name].write_text(text)
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)  # no artifact of an earlier op
        return {"configs": paths, "gamma_x0": gamma_x0, "out": out}

    def op(self, inp: dict) -> dict:
        out = str(inp["out"])
        return {sub: cli.main([sub, "--config", str(inp["configs"][sub]), "--out", out])
                for sub in ("reconstruct", "counterexample")}

    def corrupt(self, out: dict) -> None:
        """Shift the reconstructed value by 10% (the smoke mode's bad result)."""
        out["corrupt"] = 1.1

    def check(self, inp: dict, out: dict) -> tuple:
        recon = json.loads((inp["out"] / "reconstruction.json").read_text())
        report = json.loads((inp["out"] / "nonuniqueness.json").read_text())
        estimate = recon["extrapolated"] * out.get("corrupt", 1.0)
        rel_err = abs(estimate - inp["gamma_x0"]) / inp["gamma_x0"]
        failed = _gates({
            "exit_codes": out["reconstruct"] == 0 and out["counterexample"] == 0,
            "reconstruction": rel_err < RECONSTRUCT_GATE,
            "dn_gap": report["dn_gap"] < DN_GAP_GATE,
            "q_gap": report["q_gap"] > Q_GAP_FLOOR,
            "condition3": report["condition3_residual"] < CONDITION3_GATE,
            "admissible": report["admissible"] is True,
        })
        return rel_err, failed


#: mesh spacing per workload.  The 1D ops are kept short (about 0.7 s and
#: 1.3 s) so that a run takes the median of many ops.  inverse1d cannot go
#: coarser: at h = 1/64 the bump sequence has too few scales and the
#: reconstruction misses its 5% gate.  dn2d runs at h = 1/4 (81 nodes,
#: 128 triangles): every dn2d process pays the cold class build (~20 s)
#: and a warm op is ~10 s, nearly all exterior tail, so h = 1/8 (~16 s
#: per op) would not fit the benchmark's time budget.
SPACING = {"dn1d": 1 / 256, "inverse1d": 1 / 128, "dn2d": 1 / 4}


def make(name: str, workdir: Path):
    h = SPACING[name]
    if name == "dn1d":
        return ForwardDN(1, h)
    if name == "dn2d":
        return ForwardDN(2, h)
    if name == "inverse1d":
        return Inverse1D(h, workdir)
    raise ValueError(f"unknown workload {name!r}")

