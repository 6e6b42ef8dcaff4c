"""Explicit finite-difference integration of the ballistic diffusion equation.

The update rule is the standard explicit stencil
``P[x] <- P[x] + nu * (P[x+1] - 2 P[x] + P[x-1])`` with the dimensionless
coefficient ``nu = D_t * dt / dx**2`` evaluated at the end time of each
(sub)step. Because the diffusion coefficient grows linearly in time, any
fixed step eventually violates the von Neumann bound; ``evolve`` therefore
splits each macro step into however many equal substeps keep every
``nu`` at or below :data:`STABILITY_TARGET`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._kernel import apply_passes
from .analytic import diffusion_coefficient, gaussian_pdf
from .core import Field, GaussianState, Grid1D, PhysicalParams
from .errors import DomainTooSmallError, ResourceLimitError, ValidationError

#: Substepping target, strictly below the von Neumann bound of 1/2 because
#: the coefficient keeps growing within a macro step.
STABILITY_TARGET = 0.4

#: Most stencil passes one evolve call may run; while a segment's kernel call
#: runs, its schedule holds about 40 bytes per pass of that segment.
MAX_PASSES = 2**24

#: Mass within this many cells of either edge counts as boundary leak.
_EDGE_CELLS = 3

#: Largest boundary leak a snapshot may hold before the domain counts as too small.
_LEAK_THRESHOLD = 1e-6

#: How far the initial field's mass may sit from 1.
_MASS_TOL = 1e-9


@dataclass(frozen=True)
class StepperReport:
    """Accounting for one evolve call."""

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


def _snap_indices(snapshot_times, grid: Grid1D, t0: float) -> list[int]:
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
        raise ValidationError(
            f"snapshot_times reach past the final step t={t0 + grid.t_final}"
        )
    return [int(i) for i in steps]


def _substep_counts(t0: float, n_macro: int, grid: Grid1D, sigma0: float,
                    diffusivity: float) -> np.ndarray:
    """Substeps per macro step, the fewest that keep its end-time ``nu`` at or below
    :data:`STABILITY_TARGET`; refuses a run over :data:`MAX_PASSES` passes."""
    t_end = t0 + np.arange(1, n_macro + 1) * grid.dt
    nu_end = diffusion_coefficient(t_end, sigma0, diffusivity) * grid.dt / grid.dx**2
    n_sub = np.maximum(np.ceil(nu_end / STABILITY_TARGET - 1e-12), 1.0)
    if not n_sub.sum() <= MAX_PASSES:  # also refuses nan
        raise ResourceLimitError(f"run would need {n_sub.sum():.3g} stencil passes "
                                 f"(cap {MAX_PASSES}); raise dx or shorten t_final")
    return n_sub.astype(np.int64)


def count_passes(grid: Grid1D, state: GaussianState, params: PhysicalParams, times) -> int:
    """Stencil passes :func:`evolve` runs from t = 0 to ``times``, refused as it refuses them."""
    n_macro = max(_snap_indices(times, grid, 0.0))
    return int(_substep_counts(0.0, n_macro, grid, state.sigma0, params.diffusivity).sum())


def _substep_schedule(t0: float, lo: int, hi: int, n_sub: np.ndarray, grid: Grid1D,
                      sigma0: float, diffusivity: float) -> np.ndarray:
    """The ``nu`` of each pass of macro steps lo + 1 to hi; step m + 1 runs ``n_sub[m]``.

    A per-step loop's float operations in the same order, vectorized over the
    steps, so every ``nu``, evaluated at its substep's end, has the same bits.
    """
    dt, counts = grid.dt, n_sub[lo:hi]
    sub_dt = dt / counts
    step = np.repeat(np.arange(hi - lo), counts)  # the pass's macro step, from the segment's first
    k = np.arange(1, step.size + 1) - (np.cumsum(counts) - counts)[step]  # 1..n_sub per step
    sub_ends = (t0 + np.arange(lo, hi) * dt)[step] + sub_dt[step] * k
    return diffusion_coefficient(sub_ends, sigma0, diffusivity) * (sub_dt / grid.dx**2)[step]


def _edge_fraction(v: np.ndarray) -> float:
    total = v.sum()
    if total <= 0.0:
        return 0.0
    # on grids of fewer than 2 * _EDGE_CELLS nodes the two edges meet; count each node once
    edge = v[:_EDGE_CELLS].sum() + v[max(_EDGE_CELLS, v.size - _EDGE_CELLS):].sum()
    return float(edge / total)


def evolve(
    initial: Field,
    grid: Grid1D,
    state: GaussianState,
    params: PhysicalParams,
    snapshot_times,
) -> tuple[list[Field], StepperReport]:
    """March the density forward, emitting snapshots at the requested times.

    Requested times snap to the nearest completed macro step. The end-time
    coefficient of each macro step decides its substep count, and the
    coefficient is evaluated at every substep end. The kernel runs once per
    snapshot segment, over all the passes between two consecutive snapshots,
    whose coefficients are built just before that call. The very first
    step from t=0 is a near no-op since the coefficient vanishes there;
    that is expected behavior, not a bug. :func:`march` is that loop; the
    double-slit beams run it as two rows at once.

    Raises :class:`DomainTooSmallError` as soon as a snapshot holds more
    than :data:`_LEAK_THRESHOLD` of its mass within :data:`_EDGE_CELLS`
    cells of either edge.
    """
    snaps, report = march(initial.values, initial.time, grid, state.sigma0,
                          params.diffusivity, snapshot_times)
    return [Field(time=t, values=v) for t, v in snaps], report


def march(
    values: np.ndarray, t0: float, grid: Grid1D, sigma0: float, diffusivity: float,
    snapshot_times,
) -> tuple[list[tuple[float, np.ndarray]], StepperReport]:
    """The segment loop of :func:`evolve` on ``values`` of shape ``(nx,)`` or
    ``(rows, nx)``, each row a unit-mass density that evolves on its own.

    Returns ``(t, values at t)`` per requested time and one report: the
    leak and mass drift are the worst over the rows. The kernel runs once
    per snapshot segment for all rows together.
    """
    v = np.array(values, dtype=np.float64)
    if v.shape[-1] != grid.nx:
        raise ValidationError(f"initial field has {v.shape[-1]} nodes, grid has {grid.nx}")
    mass0 = [float(row.sum() * grid.dx) for row in np.atleast_2d(v)]
    for m in mass0:
        if abs(m - 1.0) > _MASS_TOL:
            raise ValidationError(f"initial field mass {m!r} is not 1 within {_MASS_TOL}")
    wanted = Counter(_snap_indices(snapshot_times, grid, t0))
    n_sub = _substep_counts(t0, max(wanted), grid, sigma0, diffusivity)
    snapshots: list[tuple[float, np.ndarray]] = []
    worst_leak = max_courant = 0.0
    done = 0  # macro steps run
    for step, count in wanted.items():  # ascending: _snap_indices rejects unsorted times
        if step > done:
            nus = _substep_schedule(t0, done, step, n_sub, grid, sigma0, diffusivity)
            v = apply_passes(v, nus)
            max_courant = max(max_courant, float(nus.max()))  # nu never falls within a step
            done = step
        t = t0 + step * grid.dt
        leak = max(_edge_fraction(row) for row in np.atleast_2d(v))
        worst_leak = max(worst_leak, leak)
        if leak > _LEAK_THRESHOLD:
            raise DomainTooSmallError(
                f"boundary holds {leak:.3e} of the mass at t={t}; widen the domain"
            )
        snapshots.extend((t, v) for _ in range(count))

    return snapshots, StepperReport(
        macro_steps=done,
        total_substeps=int(n_sub.sum()),
        max_courant=max_courant,
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
