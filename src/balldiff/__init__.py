"""Ballistic diffusion simulator for freely spreading probability densities.

A Gaussian packet evolved under a diffusion coefficient that grows
linearly in time reproduces the square-root-of-quadratic spreading law
of a free quantum wave packet, with variance growing as t^2 at late
times instead of the linear growth of ordinary diffusion. On top of the
single-packet solver the package composes two-beam interference
patterns, traces constant-probability flux lines, and checks itself
against the closed-form spreading law.

The finite-difference kernel has a compiled extension and a pure-Python
fallback that produce bit-identical results; see `kernel_backend()`.
"""
from ._kernel import KERNEL_BACKEND
from .analytic import analytic_sigma, diffusion_coefficient, gaussian_pdf
from .core import (
    Field,
    GaussianState,
    Grid1D,
    PhysicalParams,
    SlitConfig,
    TrajectorySet,
    grid_spanning,
    make_physical_params,
)
from .errors import (
    BalldiffError,
    ConfigError,
    DomainTooSmallError,
    ResourceLimitError,
    ValidationError,
)
from .interference import (
    IntensityMap,
    compose_intensity,
    detect_fringe_maxima,
    fringe_spacing,
    phase,
    required_half_width,
    simulate_double_slit,
)
from .stepper import (
    StepperReport,
    evolve,
    sample_gaussian_field,
    second_moment_sigma,
)
from .trajectories import cumulative, trace_flux_lines, velocity_field

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Which stencil implementation is active, "compiled" or "python"."""
    return KERNEL_BACKEND


__all__ = [
    "BalldiffError",
    "ConfigError",
    "DomainTooSmallError",
    "Field",
    "GaussianState",
    "Grid1D",
    "IntensityMap",
    "PhysicalParams",
    "ResourceLimitError",
    "SlitConfig",
    "StepperReport",
    "TrajectorySet",
    "ValidationError",
    "analytic_sigma",
    "compose_intensity",
    "cumulative",
    "detect_fringe_maxima",
    "diffusion_coefficient",
    "evolve",
    "fringe_spacing",
    "gaussian_pdf",
    "grid_spanning",
    "kernel_backend",
    "make_physical_params",
    "phase",
    "required_half_width",
    "sample_gaussian_field",
    "second_moment_sigma",
    "simulate_double_slit",
    "trace_flux_lines",
    "velocity_field",
]
