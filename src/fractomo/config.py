"""Experiment configuration: a flat INI file with sections.

Grammar (all keys optional unless marked; values shown with defaults,
then the domain of each key):

.. code-block:: ini

    [problem]
    n = 1                      ; dimension: 1 or 2
    s = 0.25                   ; fractional order: 0 < s < min(1, n/2)

    [mesh]
    h = 0.03125                ; required: grid spacing, positive
    margin =                   ; box margin beyond the hull of all regions,
                               ; finite and >= 0 (default: 2 x diameter of Omega)
    box =                      ; explicit box "lo, hi" (1D) or
                               ; "lo1, lo2, hi1, hi2" (2D): 2n finite numbers,
                               ; lo < hi on every axis; overrides margin

    [regions]                  ; name = lo, hi  (1D)  /  lo1, lo2, hi1, hi2 (2D):
                               ; 2n finite numbers, lo < hi on every axis;
                               ; names keep their case ("W..." = measurement set)
    Omega = -1.0, 1.0          ; required for solves
    W1 = 1.2, 1.8
    W2 = 1.2, 1.8

    [coefficients]
    gamma = constant:1         ; preset, see fractomo.profiles.evaluate_preset;
                               ; on 2D configs (n = 2) only constant:VALUE
    q = constant:0             ; preset, as gamma
    gamma_exterior = 1.0       ; diffusion on the box complement, positive

    [quadrature]
    check = false              ; true/false, yes/no, on/off or 1/0: run the
                               ; panel self check on every kernel form the
                               ; subcommand assembles

    [data]
    f = constant:0             ; exterior datum preset (zeroed on interior)
    far_field = 0.0            ; constant value on the box complement, finite
    source = constant:0        ; interior source density preset

    [reconstruct]
    W = W1                     ; measurement region label
    x0 = 1.5                   ; concentration point, finite (required by
                               ; `reconstruct`)
    scales =                   ; comma list of N values, strictly increasing
                               ; integers >= 1 (default: geometric)
    p = inf                    ; integrability exponent of the absorption,
                               ; p > n/(2s); inf allowed
    gamma_true =               ; known value at x0 (finite), for the error column

    [counterexample]
    Omega_prime = -0.5, 0.5    ; inner construction set, as a [regions] entry
    omega = 2.1, 2.4           ; cutoff seed set, as a [regions] entry
    W = W1                     ; measurement region label
    eps = 0.05                 ; positive
    scale = 1.0                ; extra deviation scale in (0, 1]

    [oracle]
    s_list = 0.1, 0.25, 0.4    ; one or more orders for `oracle-compare`, each
                               ; as [problem] s
    u = gaussian:0,1,0,1       ; test function preset
    pad_factor = 16            ; integer >= 1

    [convergence]
    levels = 3                 ; refinement levels h, h/2, ...; integer >= 1

    [output]
    directory = out            ; overridable by --out
    seed = 0                   ; integer >= 0

A preset key holds a preset of :func:`fractomo.profiles.evaluate_preset`
(its name and arguments are checked).  A value outside its domain is a
``ConfigError`` naming the key, raised by :func:`parse_config` before any
assembly.  So is a key or a section the grammar above does not name,
such as a misspelled key, a section of no keys, or any ``[DEFAULT]`` key:
a typo never falls back to a default.  Nothing comes from the
environment: everything lives in the file, and only the output
directory may be overridden (by ``--out``).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import Coefficients, KernelParams
from .errors import ConfigError, FractomoError
from .mesh import Box, Mesh, Region, build_mesh, grid_axes, grid_shape
from .profiles import evaluate_preset


def _floats(text: str, where: str) -> list:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{where}: expected finite numbers, got {text!r}")
    return vals


def _bounds(cls, where: str, n: int, *name):
    """Cast of a box-like key: ``cls(*name, lower, upper)`` from the 2n
    numbers ``lower, upper``; a bound the class rejects names the key."""
    def cast(text: str):
        vals = _floats(text, where)
        if len(vals) != 2 * n:
            raise ConfigError(f"{where}: expected {2*n} numbers, got {len(vals)}")
        try:
            return cls(*name, tuple(vals[:n]), tuple(vals[n:]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return cast


def _preset(text: str) -> str:
    """Cast of a preset key: ``text`` once its name and arguments pass."""
    evaluate_preset(text, np.zeros(0))
    return text


def _positive(v: float) -> bool:
    return 0.0 < v < math.inf


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"expected one of {', '.join(states)}, got {text!r}")
    return states[text.lower()]


@dataclass
class ExperimentConfig:
    """Validated experiment configuration (see module docstring)."""

    n: int = 1
    s: float = 0.25
    h: float = None
    margin: float = None
    box: Box = None
    regions: dict = field(default_factory=dict)  # label -> Region
    gamma_spec: str = "constant:1"
    q_spec: str = "constant:0"
    gamma_exterior: float = 1.0
    quadrature_check: bool = False
    f_spec: str = "constant:0"
    far_field: float = 0.0
    source_spec: str = "constant:0"
    reconstruct_W: str = "W1"
    x0: float = None
    scales: list = None
    p_exponent: float = math.inf
    gamma_true: float = None
    ce_omega_prime: Region = None
    ce_omega: Region = None
    ce_W: str = "W1"
    ce_eps: float = 0.05
    ce_scale: float = 1.0
    oracle_s_list: list = field(default_factory=lambda: [0.1, 0.25, 0.4])
    oracle_u_spec: str = "gaussian:0,1,0,1"
    pad_factor: int = 16
    levels: int = 3
    outdir: str = "out"
    seed: int = 0

    # ------------------------------------------------------------------
    def params(self) -> KernelParams:
        try:
            return KernelParams(self.n, self.s)
        except ValueError as exc:
            raise ConfigError(f"[problem]: {exc}") from None

    def resolved_box(self) -> Box:
        if self.box is not None:
            return self.box
        if not self.regions:
            raise ConfigError("[mesh]: need an explicit box or regions to hull")
        lows = np.min([r.lower for r in self.regions.values()], axis=0)
        highs = np.max([r.upper for r in self.regions.values()], axis=0)
        margin = self.margin
        if margin is None:
            if "Omega" not in self.regions:
                raise ConfigError(
                    "[mesh]: default margin needs a region named Omega"
                )
            omega = self.regions["Omega"]
            margin = 2.0 * float(np.max(np.asarray(omega.upper)
                                        - np.asarray(omega.lower)))
        lo = np.asarray(lows) - margin
        # snap the upper bound outward so h divides the box exactly
        cells = np.ceil((np.asarray(highs) + margin - lo) / self.h - 1e-12)
        hi = lo + cells * self.h
        return Box(tuple(lo), tuple(hi))

    def build_mesh(self, level: int = 0) -> Mesh:
        """Mesh of spacing ``h / 2**level`` on the box resolved for ``h``."""
        h = self._spacing(level)
        return build_mesh(self.resolved_box(), h, list(self.regions.values()))

    def grid_shape(self, level: int = 0) -> tuple:
        """Nodes per axis of :meth:`build_mesh` of ``level``, without
        building it."""
        h = self._spacing(level)
        return grid_shape(self.resolved_box(), h)

    def _spacing(self, level: int) -> float:
        if self.h is None:
            raise ConfigError("[mesh]: key 'h' is required")
        return self.h / 2**level

    def coefficients(self, mesh: Mesh) -> Coefficients:
        # presets read the first coordinate; 2D configs hold only constants
        x = mesh.nodes[:, 0]
        gamma = evaluate_preset(self.gamma_spec, x)
        q = evaluate_preset(self.q_spec, x)
        if gamma.min() <= 0:
            raise ConfigError(
                f"[coefficients] gamma: preset dips to {gamma.min()} <= 0"
            )
        return Coefficients.from_arrays(
            gamma, q, gamma_exterior=self.gamma_exterior
        )

    def nodal(self, mesh: Mesh, spec: str) -> np.ndarray:
        return evaluate_preset(spec, mesh.coords)


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file.

    Raises
    ------
    ConfigError
        With the section/key that failed.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    # configparser lowercases keys; region names are labels and keep their case
    labels = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    labels.optionxform = str
    try:
        parser.read(path)
        labels.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    # configparser copies [DEFAULT] keys into every section, [regions] too
    if parser.defaults():
        raise ConfigError(f"[{parser.default_section}] "
                          f"{next(iter(parser.defaults()))}: unknown key")

    cfg = ExperimentConfig()
    read = set()

    def get(section, key, cast, default, ok=None, domain=""):
        """The cast value of ``[section] key``; ``ok`` tests its domain."""
        read.add((section, key))
        where = f"[{section}] {key}"
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key).strip()
        if raw == "":
            return default
        try:
            value = cast(raw)
        except (ValueError, OverflowError, ConfigError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if ok is not None and not ok(value):
            raise ConfigError(f"{where}: must be {domain}, got {raw!r}")
        return value

    cfg.n = get("problem", "n", int, cfg.n, lambda v: v in (1, 2), "1 or 2")
    cfg.s = get("problem", "s", float, cfg.s)
    cfg.params()
    cfg.h = get("mesh", "h", float, None, _positive, "positive")
    cfg.margin = get("mesh", "margin", float, None, lambda v: 0.0 <= v < math.inf,
                     "finite and nonnegative")
    cfg.box = get("mesh", "box", _bounds(Box, "[mesh] box", cfg.n), None)
    if labels.has_section("regions"):
        for name, raw in labels.items("regions"):
            cfg.regions[name] = _bounds(Region, f"[regions] {name}", cfg.n, name)(raw)

    def constant_in_2d(spec):
        return cfg.n == 1 or spec.partition(":")[0].strip().lower() == "constant"

    cfg.gamma_spec = get("coefficients", "gamma", _preset, cfg.gamma_spec,
                         constant_in_2d, "a constant preset on 2D configs")
    cfg.q_spec = get("coefficients", "q", _preset, cfg.q_spec, constant_in_2d,
                     "a constant preset on 2D configs")
    cfg.gamma_exterior = get("coefficients", "gamma_exterior", float,
                             cfg.gamma_exterior, _positive, "positive")
    cfg.quadrature_check = get("quadrature", "check", _boolean, cfg.quadrature_check)
    cfg.f_spec = get("data", "f", _preset, cfg.f_spec)
    cfg.far_field = get("data", "far_field", float, cfg.far_field, math.isfinite,
                        "finite")
    cfg.source_spec = get("data", "source", _preset, cfg.source_spec)
    cfg.reconstruct_W = get("reconstruct", "w", str, cfg.reconstruct_W)
    cfg.x0 = get("reconstruct", "x0", float, None, math.isfinite, "finite")
    cfg.scales = get("reconstruct", "scales",
                     lambda t: [int(v) for v in t.split(",")], None,
                     lambda v: v[0] >= 1 and sorted(set(v)) == v,
                     "strictly increasing positive integers")
    p_min = cfg.n / (2.0 * cfg.s)
    cfg.p_exponent = get("reconstruct", "p",
                         lambda t: math.inf if t.lower() in ("inf", "infinity")
                         else float(t), cfg.p_exponent,
                         lambda v: v > p_min, f"above n/(2s) = {p_min:g}")
    cfg.gamma_true = get("reconstruct", "gamma_true", float, None, math.isfinite,
                         "finite")
    cfg.ce_omega_prime = get("counterexample", "omega_prime",
                             _bounds(Region, "[counterexample] omega_prime",
                                     cfg.n, "Omega_prime"), None)
    cfg.ce_omega = get("counterexample", "omega",
                       _bounds(Region, "[counterexample] omega", cfg.n,
                               "omega_seed"), None)
    cfg.ce_W = get("counterexample", "w", str, cfg.ce_W)
    cfg.ce_eps = get("counterexample", "eps", float, cfg.ce_eps, _positive,
                     "positive")
    cfg.ce_scale = get("counterexample", "scale", float, cfg.ce_scale,
                       lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    cfg.oracle_s_list = get("oracle", "s_list",
                            lambda t: _floats(t, "[oracle] s_list"),
                            cfg.oracle_s_list, bool, "at least one order")
    cfg.oracle_u_spec = get("oracle", "u", _preset, cfg.oracle_u_spec)
    cfg.pad_factor = get("oracle", "pad_factor", int, cfg.pad_factor,
                         lambda v: v >= 1, "at least 1")
    cfg.levels = get("convergence", "levels", int, cfg.levels,
                     lambda v: v >= 1, "at least 1")
    cfg.outdir = get("output", "directory", str, cfg.outdir)
    cfg.seed = get("output", "seed", int, cfg.seed, lambda v: v >= 0, "nonnegative")
    # a key or section the grammar does not name is an error, not a default
    for section in parser.sections():
        if section not in {"regions"} | {known for known, _ in read}:
            raise ConfigError(f"[{section}]: unknown section")
        for key in parser.options(section):
            if section != "regions" and (section, key) not in read:
                raise ConfigError(f"[{section}] {key}: unknown key")

    # cheap global validations before any solve starts
    for order in cfg.oracle_s_list:
        try:
            KernelParams(cfg.n, order)
        except ValueError as exc:
            raise ConfigError(f"[oracle] s_list: {exc}") from None
    try:
        if cfg.h is not None and (cfg.regions or cfg.box):
            # the grid and the regions, checked without building a mesh
            grid_axes(cfg.resolved_box(), cfg.h, list(cfg.regions.values()))
    except FractomoError as exc:
        raise ConfigError(f"mesh validation failed: {exc}") from None
    return cfg
