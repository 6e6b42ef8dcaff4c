"""Domain types shared by every module.

Types that take caller input (parameters, packets, grids, fields, slits)
validate it on construction. :class:`TrajectorySet` is a plain record of
one producer's output. All types are immutable after construction and safe
to share between threads; the arrays held by :class:`Field` and
:class:`TrajectorySet` are read-only.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError, ValidationError

#: Default upper bound on grid nodes; spreading is linear in t at late times,
#: so an over-long run would otherwise exhaust memory instead of failing fast.
DEFAULT_NX_CAP = 2**22

#: Upper bound on macro steps; it keeps ``math.ceil`` of the step count and every
#: snapshot's step index finite, so a tiny dt is refused by name, not overflowed.
MAX_STEPS = 2**22

#: Least half-width, in sigma(t), a grid leaves around each packet: the floor
#: of ``[grid] safety_span`` and the margin of the double-slit domain check.
MIN_SAFETY_SPAN = 5.0


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return value


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of a run; diffusivity is derived, never set.

    ``diffusivity = hbar / (2 * mass)`` holds exactly; it is the constant
    spreading diffusivity, distinct from the time-dependent diffusion
    coefficient that drives the stepper.
    """

    hbar: float
    mass: float
    diffusivity: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hbar", _require_positive("hbar", self.hbar))
        object.__setattr__(self, "mass", _require_positive("mass", self.mass))
        object.__setattr__(self, "diffusivity", self.hbar / (2.0 * self.mass))


def make_physical_params(hbar: float, mass: float) -> PhysicalParams:
    """Validate (hbar, mass) and derive the diffusivity hbar/(2*mass)."""
    return PhysicalParams(hbar=hbar, mass=mass)


@dataclass(frozen=True)
class GaussianState:
    """Initial Gaussian packet: standard deviation at t=0 and its mean."""

    sigma0: float
    center: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sigma0", _require_positive("sigma0", self.sigma0))
        object.__setattr__(self, "center", float(self.center))


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial mesh plus the nominal (macro) time step."""

    x_min: float
    dx: float
    nx: int
    dt: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "dx", _require_positive("dx", self.dx))
        object.__setattr__(self, "dt", _require_positive("dt", self.dt))
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if self.nx < 3:
            raise ValidationError(f"nx must be >= 3, got {self.nx}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def x_max(self) -> float:
        return self.x_min + (self.nx - 1) * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        """Node positions, read-only."""
        return _readonly(self.x_min + self.dx * np.arange(self.nx))


@dataclass(frozen=True)
class Field:
    """Non-negative density samples on the grid nodes at one instant."""

    time: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 3:
            raise ValidationError("field values must be a 1-d array with >= 3 nodes")
        if not np.all(np.isfinite(v)):
            raise ValidationError("field values must be finite")
        if np.any(v < 0.0):
            raise ValidationError("field values must be non-negative")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class SlitConfig:
    """Two Gaussian slits: geometry, per-slit width, and beam drifts.

    ``dvx`` is derived as ``v1 - v2``; it is the only place the beam
    kinematics enter the interference phase.
    """

    separation: float
    sigma0: float
    v1: float
    v2: float
    dvx: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "separation", _require_positive("separation", self.separation))
        object.__setattr__(self, "sigma0", _require_positive("sigma0", self.sigma0))
        object.__setattr__(self, "v1", float(self.v1))
        object.__setattr__(self, "v2", float(self.v2))
        object.__setattr__(self, "dvx", self.v1 - self.v2)
        if not math.isfinite(self.dvx):  # then v1 and v2 are finite too
            raise ValidationError(f"v1 - v2 must be finite, got v1 = {self.v1!r}, v2 = {self.v2!r}")


@dataclass(frozen=True)
class TrajectorySet:
    """Flux lines: per-quantile positions over a shared time axis.

    ``paths[i, k]`` is the position of quantile ``quantiles[i]`` at
    ``times[k]``. Built only by :func:`~balldiff.trajectories.trace_flux_lines`,
    whose quantile inversion is monotone, so the paths never cross.
    """

    quantiles: np.ndarray
    times: np.ndarray
    paths: np.ndarray


def grid_spanning(
    center: float,
    half_width_min: float,
    dx: float,
    *,
    dt: float,
    t_final: float,
    nx_cap: int = DEFAULT_NX_CAP,
) -> Grid1D:
    """Build an odd-node grid centered on ``center`` covering the given half-width."""
    dx = _require_positive("dx", dx)
    if dx > math.sqrt(sys.float_info.max):  # dx**2 divides every stencil nu
        raise ValidationError(f"dx must be at most 1.34e+154, got {dx!r}")
    dt = _require_positive("dt", dt)
    half_width_min = _require_positive("half_width_min", half_width_min)
    n_half = half_width_min / dx
    if math.isfinite(n_half):  # ceil cannot take inf; the cap check refuses it
        n_half = max(1, math.ceil(n_half))
    nx = 2.0 * n_half + 1  # a float, so a count past the float range reads inf
    if nx > nx_cap:
        raise ResourceLimitError(
            f"grid would need {nx:.15g} nodes (cap {nx_cap}); "
            "coarsen dx, shorten t_final, or lower safety_span"
        )
    steps = t_final / dt - 1e-9
    if steps > MAX_STEPS:
        raise ResourceLimitError(
            f"run would need {steps:.3g} macro steps (cap {MAX_STEPS}); raise dt or shorten t_final"
        )
    n_steps = max(1, math.ceil(steps))
    return Grid1D(x_min=center - n_half * dx, dx=dx, nx=nx, dt=dt, n_steps=n_steps)
