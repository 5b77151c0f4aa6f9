"""Experiment runner: every pipeline as a subcommand over a config file.

Usage::

    fractomo <subcommand> --config path/to/run.ini [--out DIR] [--verbose]

The subcommand is a positional argument, one of ``poincare``,
``solve``, ``dn``, ``reconstruct``, ``liouville-check``,
``transfer-check``, ``counterexample``, ``oracle-compare``,
``convergence-study``; the three options are shared by all of them.
Only ``poincare`` and ``dn`` run on 2D configs; the others are 1D
pipelines.  ``--verbose`` is
accepted and read by nothing yet: :func:`main` keeps it for a stage
trace.

Exit codes: 0 success, 1 runtime error (including a run whose dense
forms would not fit in the available memory), 2 violated invariant
(e.g. lost coercivity, a failed maximum principle or decay bound), 3
configuration error (including a usage error, a key or section the
grammar does not name, a value outside its domain
such as a malformed preset or a non-constant coefficient preset on a 2D
config, a 1D pipeline requested on a 2D config, a mesh without an
interior dof for any subcommand but ``oracle-compare``, and a ``gamma``
that is not positive on every node of the finest mesh the run builds,
for every subcommand).  Artifacts
(CSV series, JSON reports) land in the output directory; identical
configs and seeds produce byte-identical files.

:func:`run_experiment` resolves each run once and hands it to the
subcommand's runner ``run_*(cfg, levels, outdir)``: ``levels`` is the
list of ``(mesh, coeffs)`` on the levels ``h, h/2, ...`` (one level
unless the subcommand is in :data:`SUBCOMMANDS_REFINING`), checked
before any assembly, and the runner builds no mesh and evaluates no
coefficients of its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (
    KernelParams,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    potential_form,
)
from .config import ExperimentConfig, parse_config
from .counterexample import build_pair, check_geometry, verify_nonuniqueness
from .dnmap import DNOperator
from .errors import (
    ConfigError,
    FractomoError,
    GeometryViolation,
    InsufficientMemory,
    InsufficientPadding,
    OutsideMeasurementSet,
    UnresolvableScale,
    VerificationError,
)
from .io import (
    export_dn_csv,
    export_oracle_csv,
    export_pair_csv,
    export_reconstruction_csv,
    export_solution_csv,
    residual_records,
    write_json_report,
)
from .mesh import is_measurement_label
from .profiles import bump
from .reconstruction import (
    bump_scales,
    bump_sequence,
    exterior_reconstruct,
    potential_decay_check,
)
from .reduction import dn_transfer_residual, liouville_residual
from .solver import FactorizedSystem, mass_solve, poincare_constant
from .spectral import spectral_frac_laplacian

#: the subcommands that also run on 2D meshes
SUBCOMMANDS_2D = ("poincare", "dn")

#: the subcommands that run on the refinement levels h, h/2, ...
SUBCOMMANDS_REFINING = ("liouville-check", "transfer-check", "convergence-study")

#: dense N x N arrays a run holds at its peak, in units of one form: peak
#: resident memory above the import baseline over 8 N^2 bytes on the 1D
#: test config, on a largest mesh of N = 2817 nodes, is 4.00 for
#: counterexample, 3.77 for transfer-check, 3.21 for liouville-check and at
#: most 1.81 for the other subcommands, within 0.05 of that with numpy's
#: huge-page advice off (mass and potential forms are bands, not forms;
#: the quadrature self check holds one more form while it compares)
FORMS_ALIVE = 7


def _available_memory():
    """``MemAvailable`` of ``/proc/meminfo`` in bytes, or None if it cannot
    be read."""
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _memory_preflight(N: int) -> None:
    """Raise :class:`InsufficientMemory` if ``FORMS_ALIVE`` dense forms on
    ``N`` nodes, the node count of the run's largest grid, exceed the
    available memory; skip the check if that cannot be read."""
    available = _available_memory()
    if available is None:
        return
    need = FORMS_ALIVE * 8 * N * N
    if need > available:
        raise InsufficientMemory(
            f"N = {N} nodes: {FORMS_ALIVE} dense forms need about {need} bytes, "
            f"{available} bytes are available"
        )


def _gagliardo(cfg: ExperimentConfig, mesh, params):
    return gagliardo_form(mesh, params, check=cfg.quadrature_check)


def _system_form(cfg: ExperimentConfig, mesh, params, coeffs):
    """The system form of ``coeffs`` (conductivity plus potential form)
    and its potential form, the absorption form."""
    cond = conductivity_form(mesh, params, coeffs, check=cfg.quadrature_check)
    qform = potential_form(mesh, coeffs.q)
    cond += qform  # in place, on the band of the potential form
    return cond, qform


def _measurement_region(cfg: ExperimentConfig, label: str, key: str) -> str:
    """``label`` if ``[regions]`` defines it as a measurement set; a config
    error otherwise."""
    if label not in cfg.regions:
        raise ConfigError(f"{key}: no region {label!r} in [regions]")
    if not is_measurement_label(label):
        raise ConfigError(f"{key}: region {label!r} is not a measurement set "
                          "(a label starting with W)")
    return label


def _relation(section: str, check, *args):
    """``check(*args)``, with a violated relation between the keys of
    ``section`` and the regions reported as a config error."""
    try:
        return check(*args)
    except (GeometryViolation, OutsideMeasurementSet, UnresolvableScale) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _window_levels(cfg: ExperimentConfig, levels, wlabel: str):
    """Yield ``(op, qform, f, g)`` on the run's levels: the DN
    operator of the level's system form, its absorption form and the
    exterior data ``f, g``, bumps centred in ``W`` of widths 0.45 and 0.35
    of ``W``, zero on the interior dofs."""
    params = cfg.params()
    W = cfg.regions[wlabel]
    center = 0.5 * (W.lower[0] + W.upper[0])
    width = W.upper[0] - W.lower[0]
    for mesh, coeffs in levels:
        f = bump((mesh.coords - center) / (0.45 * width))
        g = bump((mesh.coords - center) / (0.35 * width))
        f[mesh.interior_dofs] = 0.0
        g[mesh.interior_dofs] = 0.0
        form, qform = _system_form(cfg, mesh, params, coeffs)
        yield DNOperator(mesh, params, coeffs, form=form), qform, f, g


def run_poincare(cfg, levels, outdir):
    mesh, _ = levels[0]
    params = cfg.params()
    result = poincare_constant(mesh, params, gform=_gagliardo(cfg, mesh, params),
                               mass=mass_matrix(mesh))
    write_json_report(outdir / "poincare.json", result, "fractomo.poincare.v1")
    return f"C_opt={result['C_opt']:.6g} delta0={result['delta0']:.6g}"


def run_solve(cfg, levels, outdir):
    mesh, coeffs = levels[0]
    form, _ = _system_form(cfg, mesh, cfg.params(), coeffs)
    f = cfg.nodal(mesh, cfg.f_spec)
    f[mesh.interior_dofs] = 0.0
    src = cfg.nodal(mesh, cfg.source_spec)
    f_src = mass_matrix(mesh) @ src
    sol = FactorizedSystem(form, mesh).solve(f, f_src, far_field=cfg.far_field)
    export_solution_csv(outdir / "solution.csv", mesh, sol.u)
    write_json_report(
        outdir / "solve.json",
        {"residual": sol.residual, "energy": sol.energy,
         "far_field": sol.far_field},
        "fractomo.solve.v1",
    )
    return f"residual={sol.residual:.2e} energy={sol.energy:.6g}"


def run_dn(cfg, levels, outdir):
    if "W1" not in cfg.regions:
        raise ConfigError("[regions]: dn needs a measurement region W1")
    mesh, coeffs = levels[0]
    params = cfg.params()
    form, _ = _system_form(cfg, mesh, params, coeffs)
    op = DNOperator(mesh, params, coeffs, form=form)
    dn = op.matrix("W1", "W2" if "W2" in mesh.regions else "W1")
    export_dn_csv(outdir / "dn_matrix.csv", mesh, dn)
    sym = ""
    if np.array_equal(dn.rows, dn.cols):
        sym = f" symmetry_defect={dn.symmetry_defect():.2e}"
    return f"dn {dn.entries.shape[0]}x{dn.entries.shape[1]}{sym}"


def run_reconstruct(cfg, levels, outdir):
    wlabel = _measurement_region(cfg, cfg.reconstruct_W, "[reconstruct] W")
    mesh, coeffs = levels[0]
    params = cfg.params()
    if cfg.x0 is None:
        raise ConfigError("[reconstruct] x0: key is required")
    scales = _relation("[reconstruct]", bump_scales, mesh, wlabel, cfg.x0,
                       cfg.scales)
    bumps = bump_sequence(mesh, wlabel, cfg.x0, scales,
                          gform=_gagliardo(cfg, mesh, params), mass=mass_matrix(mesh))
    form, qform = _system_form(cfg, mesh, params, coeffs)
    op = DNOperator(mesh, params, coeffs, form=form)
    # the DN basis is the hats the bumps touch: every bump is nonzero on
    # the hats of W only, so this is a subset of them
    result = exterior_reconstruct(op.matrix(bumps.support, bumps.support), bumps)
    decay = potential_decay_check(qform, bumps, cfg.p_exponent, params)
    export_reconstruction_csv(
        outdir / "reconstruction.csv", result["samples"], cfg.gamma_true,
        [d["value"] for d in decay],
    )
    write_json_report(
        outdir / "reconstruction.json",
        {"extrapolated": result["extrapolated"], "fit": result["fit"],
         "x0": cfg.x0},
        "fractomo.reconstruction.v1",
    )
    return f"extrapolated={result['extrapolated']:.6g} over {len(bumps)} scales"


def run_liouville_check(cfg, levels, outdir):
    params = cfg.params()
    omega = cfg.regions["Omega"]
    center = 0.5 * (omega.lower[0] + omega.upper[0])
    halfw = 0.5 * (omega.upper[0] - omega.lower[0])
    residuals = []
    for mesh, coeffs in levels:
        x = mesh.coords
        u = np.zeros_like(x)
        phi = np.zeros_like(x)
        ii = mesh.interior_dofs
        u[ii] = bump((x[ii] - center + 0.2 * halfw) / (0.6 * halfw))
        phi[ii] = bump((x[ii] - center - 0.2 * halfw) / (0.5 * halfw))
        form, qform = _system_form(cfg, mesh, params, coeffs)
        residuals.append(liouville_residual(
            coeffs, u, phi, cond_form=form,
            gform=_gagliardo(cfg, mesh, params), qform=qform,
        ))
    records = residual_records([mesh.h for mesh, _ in levels], residuals)
    write_json_report(outdir / "liouville.json", {"records": records},
                      "fractomo.residuals.v1")
    return "residuals " + " ".join(f"{r:.2e}" for r in residuals)


def run_transfer_check(cfg, levels, outdir):
    wlabel = _measurement_region(cfg, cfg.reconstruct_W, "[reconstruct] W")
    residuals = [dn_transfer_residual(op, op.coeffs.gamma, wlabel, f, g,
                                      gform=_gagliardo(cfg, op.mesh, op.params),
                                      qform=qform)
                 for op, qform, f, g in _window_levels(cfg, levels, wlabel)]
    records = residual_records([mesh.h for mesh, _ in levels], residuals)
    write_json_report(outdir / "transfer.json", {"records": records},
                      "fractomo.residuals.v1")
    return "residuals " + " ".join(f"{r:.2e}" for r in residuals)


def run_counterexample(cfg, levels, outdir):
    wlabel = _measurement_region(cfg, cfg.ce_W, "[counterexample] W")
    mesh, _ = levels[0]
    params = cfg.params()
    if cfg.ce_omega_prime is None or cfg.ce_omega is None:
        raise ConfigError("[counterexample]: omega_prime and omega are required")
    W = cfg.regions[wlabel]
    _relation("[counterexample]", check_geometry, mesh, cfg.ce_omega_prime,
              cfg.ce_omega, cfg.ce_eps, W)
    gform = _gagliardo(cfg, mesh, params)
    mass = mass_matrix(mesh)
    pair = build_pair(mesh, cfg.ce_omega_prime, cfg.ce_omega, cfg.ce_eps, W,
                      gform=gform, mass=mass, scale=cfg.ce_scale)
    form, qform = _system_form(cfg, mesh, params, pair.coeffs)
    op = DNOperator(mesh, params, pair.coeffs, form=form)
    report = verify_nonuniqueness(pair, W, operator=op, gform=gform,
                                  qform=qform, mass=mass, seed=cfg.seed)
    export_pair_csv(outdir / "pair.csv", mesh, pair)
    schema = report.pop("schema")
    write_json_report(outdir / "nonuniqueness.json", report, schema)
    return (f"dn_gap={report['dn_gap']:.3e} q_gap={report['q_gap']:.4f} "
            f"admissible={report['admissible']}")


def run_oracle_compare(cfg, levels, outdir):
    mesh, _ = levels[0]
    u = cfg.nodal(mesh, cfg.oracle_u_spec)
    orders = [KernelParams(cfg.n, s) for s in cfg.oracle_s_list]
    try:
        # the oracle rejects a u too close to the box before any assembly
        specs = [spectral_frac_laplacian(mesh, params, u, pad_factor=cfg.pad_factor)
                 for params in orders]
    except InsufficientPadding as exc:
        raise ConfigError(f"[oracle] u: {exc}") from None
    M = mass_matrix(mesh)
    # one form at a time; the mass matrix is solved once for all orders
    nodals = mass_solve(M, np.column_stack(
        [_gagliardo(cfg, mesh, params) @ u for params in orders]))
    rows = []
    for params, spec, nodal in zip(orders, specs, nodals.T):
        diff = nodal - spec
        rel = np.sqrt(diff @ (M @ diff)) / np.sqrt(spec @ (M @ spec))
        rows.append({"s": params.s, "rel_l2_mismatch": float(rel)})
    export_oracle_csv(outdir / "oracle_compare.csv", rows)
    write_json_report(outdir / "oracle_compare.json", {"rows": rows},
                      "fractomo.oracle.v1")
    return " ".join(f"s={r['s']:g}:{r['rel_l2_mismatch']:.3%}" for r in rows)


def run_convergence_study(cfg, levels, outdir):
    wlabel = _measurement_region(cfg, cfg.reconstruct_W, "[reconstruct] W")
    values = [op.pairing(f, g) for op, _, f, g in _window_levels(cfg, levels, wlabel)]
    records = []
    for k, ((mesh, _), v) in enumerate(zip(levels, values)):
        rec = {"h": mesh.h, "value": v}
        if k:
            rec["diff"] = abs(v - values[k - 1])
            if k >= 2 and rec["diff"] > 0 and records[-1]["diff"] > 0:
                rec["rate"] = float(np.log2(records[-1]["diff"] / rec["diff"]))
        records.append(rec)
    write_json_report(outdir / "convergence.json", {"records": records},
                      "fractomo.convergence.v1")
    return "pairings " + " ".join(f"{v:.8g}" for v in values)


RUNNERS = {
    "poincare": run_poincare,
    "solve": run_solve,
    "dn": run_dn,
    "reconstruct": run_reconstruct,
    "liouville-check": run_liouville_check,
    "transfer-check": run_transfer_check,
    "counterexample": run_counterexample,
    "oracle-compare": run_oracle_compare,
    "convergence-study": run_convergence_study,
}

SUBCOMMANDS = tuple(RUNNERS)


def run_experiment(subcommand: str, cfg: ExperimentConfig, outdir=None) -> str:
    """Run one subcommand; returns the one-line summary (raises on error).

    The run is resolved once, before any assembly: the level-0 mesh and
    its coefficients are built and checked, the memory preflight sizes
    the finest grid from the box and the spacing, and only then are the
    refined levels built (refining subcommands only), finest first.  The
    runner reads every mesh and coefficient set from that list of
    ``(mesh, coeffs)``, one per level ``h, h/2, ...``.
    """
    if subcommand not in RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if cfg.n != 1 and subcommand not in SUBCOMMANDS_2D:
        raise ConfigError(
            f"{subcommand} is a 1D pipeline; 2D configs run "
            + " and ".join(SUBCOMMANDS_2D)
        )
    finest = cfg.levels - 1 if subcommand in SUBCOMMANDS_REFINING else 0
    _memory_preflight(int(np.prod(cfg.grid_shape(finest))))
    mesh = cfg.build_mesh()
    if subcommand != "oracle-compare" and not mesh.interior_dofs.size:
        raise ConfigError(f"[regions]: no interior dof at h = {cfg.h:g}: a region "
                          "Omega must contain the support of a hat function")
    levels = [(mesh, cfg.coefficients(mesh))]  # gamma > 0 on every node
    # finest first: refinement keeps every coarser node, so the first gamma
    # check of a refined level covers them all
    refined = [cfg.build_mesh(level) for level in range(finest, 0, -1)]
    levels += [(m, cfg.coefficients(m)) for m in refined][::-1]
    out = Path(outdir or cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return RUNNERS[subcommand](cfg, levels, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fractomo",
        description="nonlocal optical tomography laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # a usage error is a configuration error
            return 3
        raise
    try:
        cfg = parse_config(args.config)
        summary = run_experiment(args.subcommand, cfg, args.out)
    except ConfigError as exc:
        print(f"fractomo {args.subcommand}: config error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"fractomo {args.subcommand}: invariant violated: {exc}",
              file=sys.stderr)
        return 2
    except (FractomoError, ValueError) as exc:
        # ValueError is the last resort: inputs that slipped past the
        # config checks still end with a one-line message, not a traceback
        print(f"fractomo {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    print(f"fractomo {args.subcommand}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
