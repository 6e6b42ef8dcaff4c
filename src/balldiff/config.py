"""Run configuration: INI-style sections, strictly validated.

Unknown sections or keys are hard errors so a typo can never silently
fall back to a default. The slit velocities may be given either as the
pair (v1, v2) or as a single symmetric split dvx, not both.
"""
from __future__ import annotations

import configparser
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    MIN_SAFETY_SPAN,
    GaussianState,
    Grid1D,
    PhysicalParams,
    SlitConfig,
    grid_spanning,
    make_physical_params,
)
from .errors import ConfigError, ValidationError
from .analytic import analytic_sigma
from .interference import fringe_spacing, required_half_width

#: ``sigma0**2`` divides the spreading law, so it must neither overflow nor underflow.
_SIGMA0_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))

#: section -> key -> (type tag, *domain). Type tags are "float" and "floats" (a comma
#: list). A domain is (">" or ">=", bound) or ("[]" or "()", low, high);
#: it holds for every entry of a list, and ``_parse`` enforces it.
SCHEMA: dict[str, dict[str, tuple]] = {
    "physical": {"hbar": ("float", ">", 0), "mass": ("float", ">", 0)},
    "packet": {"sigma0": ("float", "[]", *_SIGMA0_RANGE), "center": ("float",)},
    "grid": {"dx": ("float", ">", 0), "dt": ("float", ">", 0), "t_final": ("float", ">=", 0),
             "safety_span": ("float", ">=", MIN_SAFETY_SPAN)},
    "slits": {"separation": ("float", ">", 0), "v1": ("float",), "v2": ("float",),
              "dvx": ("float",)},
    "trajectories": {"quantiles": ("floats", "()", 0, 1), "v_y": ("float",)},
    "output": {"snapshot_times": ("floats", ">=", 0), "sigma_rel_tol": ("float",),
               "homothety_tol": ("float",), "fringe_cell_tol": ("float",)},
    "sweep": {},  # validated separately: command plus dotted config keys
}

#: domain operator -> (membership test, rule the refusal states), both taking the bounds
_DOMAINS = {
    ">": (lambda v, b: v > b, "be > {0:.3g}"),
    ">=": (lambda v, b: v >= b, "be >= {0:.3g}"),
    "[]": (lambda v, lo, hi: lo <= v <= hi, "lie in [{0:.3g}, {1:.3g}]"),
    "()": (lambda v, lo, hi: lo < v < hi, "lie in ({0:.3g}, {1:.3g})"),
}

#: Largest float spacing, in cells, at the outer nodes of every grid (one packet, two beams,
#: each convergence level): nodes then round by under a thousandth of a cell.
_FLOAT_SPACING_MAX = 2.0**-10

#: The diffusion coefficient squares the diffusivity, so it must not overflow.
_DIFFUSIVITY_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one configuration file."""

    origin: str
    params: PhysicalParams
    state: GaussianState
    dx: float
    dt: float
    t_final: float
    safety_span: float
    slits: SlitConfig | None
    quantiles: tuple[float, ...]
    v_y: float
    snapshot_times: tuple[float, ...]
    sigma_rel_tol: float | None
    homothety_tol: float | None
    fringe_cell_tol: float | None


def load_raw(path) -> dict[str, dict[str, str]]:
    """Read an INI file into nested dicts, rejecting unknown sections/keys."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        raw[section] = dict(parser.items(section))
        if section == "sweep":
            continue
        for key in raw[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
    return raw


def _items(text: str) -> list[str]:
    return [s for s in (p.strip() for p in text.split(",")) if s]


def _parse(spec: tuple, text: str, where: str):
    """``text`` as a value of the SCHEMA entry ``spec``: its type, then its domain."""
    kind, *domain = spec
    if kind == "floats":  # each entry parses, and is refused, as a float of the same domain
        items = _items(text)
        if not items:
            raise ConfigError(f"{where}: empty list")
        return tuple(_parse(("float", *domain), s, where) for s in items)
    try:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("not finite")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if domain:
        op, *bounds = domain
        inside, rule = _DOMAINS[op]
        if not inside(value, *bounds):
            raise ConfigError(f"{where} must {rule.format(*bounds)}, got {value!r}")
    return value


def build_config(raw: dict[str, dict[str, str]], origin: str) -> RunConfig:
    """A RunConfig: every value is parsed within its domain before the rules tying keys run."""
    parsed = {(section, key): _parse(spec, raw[section][key], f"{origin}: [{section}] {key}")
              for section, specs in SCHEMA.items() for key, spec in specs.items()
              if key in raw.get(section, {})}

    def val(section, key, default=None):
        return parsed.get((section, key), default)

    params = make_physical_params(val("physical", "hbar", 1.0), val("physical", "mass", 1.0))
    if not (0.0 < params.diffusivity <= _DIFFUSIVITY_MAX):
        raise ConfigError(
            f"{origin}: [physical] hbar / (2 * mass) must be positive and finite and at most "
            f"{_DIFFUSIVITY_MAX:.3g}, got "
            f"{params.diffusivity!r} from hbar = {params.hbar!r}, mass = {params.mass!r}"
        )
    state = GaussianState(sigma0=val("packet", "sigma0", 1.0), center=val("packet", "center", 0.0))

    dt, t_final = val("grid", "dt"), val("grid", "t_final")
    if dt is None or t_final is None:
        raise ConfigError(f"{origin}: [grid] dt and t_final are required")

    dx = val("grid", "dx", state.sigma0 / 16)
    safety_span = val("grid", "safety_span", 10.0)

    slits = None
    if "slits" in raw:
        separation = val("slits", "separation")
        if separation is None:
            raise ConfigError(f"{origin}: [slits] separation is required")
        v1, v2, dvx = val("slits", "v1", 0.0), val("slits", "v2", 0.0), val("slits", "dvx")
        if dvx is not None:
            if raw["slits"].keys() & {"v1", "v2"}:
                raise ConfigError(f"{origin}: [slits] give either dvx or v1/v2, not both")
            v1, v2 = 0.5 * dvx, -0.5 * dvx
        try:
            slits = SlitConfig(separation=separation, sigma0=state.sigma0, v1=v1, v2=v2)
        except ValidationError as exc:  # v1 - v2 overflows
            raise ConfigError(f"{origin}: [slits] {exc}") from exc

    quantiles = val("trajectories", "quantiles", tuple(i / 10 for i in range(1, 10)))
    if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
        raise ConfigError(f"{origin}: [trajectories] quantiles must be strictly increasing")

    snapshot_times = val("output", "snapshot_times")
    if snapshot_times is None:
        count = 5
        snapshot_times = tuple(sorted({t_final * (i / (count - 1)) for i in range(count)}))
    if any(b < a for a, b in zip(snapshot_times, snapshot_times[1:])):
        raise ConfigError(f"{origin}: [output] snapshot_times must be sorted")
    if snapshot_times and max(snapshot_times) > t_final * (1.0 + 1e-12):
        raise ConfigError(f"{origin}: [output] snapshot_times exceed t_final")

    return RunConfig(
        origin=origin,
        params=params,
        state=state,
        dx=dx,
        dt=dt,
        t_final=t_final,
        safety_span=safety_span,
        slits=slits,
        quantiles=quantiles,
        v_y=val("trajectories", "v_y", 1.0),
        snapshot_times=snapshot_times,
        sigma_rel_tol=val("output", "sigma_rel_tol"),
        homothety_tol=val("output", "homothety_tol"),
        fringe_cell_tol=val("output", "fringe_cell_tol"),
    )


def load_config(path) -> RunConfig:
    return build_config(load_raw(path), str(path))


def sweep_points(raw: dict[str, dict[str, str]], origin: str, commands):
    """The ``[sweep]`` command, its swept keys, and one ``(raw, values)`` pair per point.

    Each value parses exactly as under its own section and enters the point's
    raw config as written. The last key varies fastest, as in ``itertools.product``.
    """
    sweep = raw.get("sweep")
    if sweep is None:
        raise ConfigError(f"{origin}: [sweep] section is required for sweep")
    command = sweep.get("command")
    if command not in commands:
        raise ConfigError(
            f"{origin}: [sweep] command must be one of {sorted(commands)}, got {command!r}"
        )
    axes = {}
    for dotted, text in sweep.items():
        if dotted == "command":
            continue
        section, _, key = dotted.partition(".")
        spec = SCHEMA.get(section, {}).get(key)
        if not key or spec is None:
            raise ConfigError(f"{origin}: [sweep] unknown target {dotted!r}")
        if spec[0] != "float":
            raise ConfigError(f"{origin}: [sweep] cannot sweep {spec[0]} key {dotted!r}")
        if not _items(text):
            raise ConfigError(f"{origin}: [sweep] {dotted} has no values")
        axes[section, key] = [(s, _parse(spec, s, f"{origin}: [sweep] {dotted}"))
                              for s in _items(text)]
    if not axes:
        raise ConfigError(f"{origin}: [sweep] no parameters to sweep")
    points = []
    for combo in itertools.product(*axes.values()):
        point = {section: dict(kv) for section, kv in raw.items() if section != "sweep"}
        for (section, key), (text, _) in zip(axes, combo):
            point.setdefault(section, {})[key] = text
        points.append((point, [value for _, value in combo]))
    return command, [f"{section}.{key}" for section, key in axes], points


def _t_end(cfg: RunConfig) -> float:
    """The last time a run reaches: its last requested time, or the later step plan snaps it to."""
    last = max(cfg.t_final, *cfg.snapshot_times)
    snapped = float(np.rint(last / cfg.dt)) * cfg.dt  # inf is refused by grid_spanning
    return snapped if last < snapped < math.inf else last


def single_beam_grid(cfg: RunConfig) -> Grid1D:
    """Grid for a single-packet run, sized from the spread at the last time it reaches."""
    with np.errstate(over="ignore"):  # an infinite width is refused by _grid_around
        sigma_end = analytic_sigma(_t_end(cfg), cfg.state.sigma0, cfg.params.diffusivity)
    return _grid_around(cfg, cfg.state.center, cfg.safety_span * sigma_end)


def double_slit_grid(cfg: RunConfig) -> Grid1D:
    """Grid for a two-slit run, covering both drifted beams at the last time it reaches."""
    if cfg.slits is None:
        raise ConfigError(f"{cfg.origin}: [slits] section is required for this run")
    with np.errstate(over="ignore"):  # an infinite width is refused by _grid_around
        need = required_half_width(cfg.slits, cfg.params, _t_end(cfg), cfg.safety_span)
    grid = _grid_around(cfg, 0.0, need)
    dvx, params = cfg.slits.dvx, cfg.params
    spacing = fringe_spacing(params, dvx)  # infinite where there are no fringes
    edge = max(-grid.x_min, grid.x_max)
    if not (2.0 * cfg.dx <= spacing and math.isfinite(params.mass * abs(dvx) * edge)):
        raise ConfigError(
            f"{cfg.origin}: [slits] dvx = {dvx:g} with [physical] hbar = {params.hbar:g}, "
            f"mass = {params.mass:g} and [grid] dx = {cfg.dx:g}: the phase mass * dvx * x / hbar "
            f"must be finite out to x = {edge:g}, and its fringe spacing 2 pi hbar / (mass |dvx|) "
            f"= {spacing:.3g} at least 2 * dx"
        )
    return grid


def _grid_around(cfg: RunConfig, center: float, half: float) -> Grid1D:
    if not math.isfinite(half):
        raise ConfigError(
            f"{cfg.origin}: [grid] t_final = {cfg.t_final:g} spreads the packet beyond "
            f"the float range (diffusivity = {cfg.params.diffusivity:g}, "
            f"safety_span = {cfg.safety_span:g})"
        )
    if cfg.dx > 0.5 * cfg.state.sigma0:  # coarser nodes cannot sample the packet
        raise ConfigError(f"{cfg.origin}: [grid] dx = {cfg.dx:g} must be at most half of "
                          f"[packet] sigma0 = {cfg.state.sigma0:g}; lower dx")
    grid = grid_spanning(center, half, cfg.dx, dt=cfg.dt, t_final=cfg.t_final)
    # far from 0 the float spacing can reach dx, and then no domain width resolves the packet
    edge = max(grid.x_min, grid.x_max, key=abs)
    spacing = math.ulp(edge)
    if spacing > cfg.dx * _FLOAT_SPACING_MAX:
        raise ConfigError(
            f"{cfg.origin}: [grid] dx = {cfg.dx:g} is too fine for the grid edge x = {edge:g}, "
            f"where floats are {spacing:.3g} apart; raise dx"
            + (f" or move [packet] center = {center:g} toward 0" if center else "")
        )
    return grid
