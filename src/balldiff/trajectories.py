"""Flux-line extraction from density snapshots by quantile tracking.

A flux line is a curve that keeps the enclosed probability on either side
constant in time. On a 1-d grid that is exactly a fixed quantile of the
cumulative distribution, so the lines are read off the CDF directly with
no trajectory integration error; the velocity field is differentiated
from the paths afterwards, never used to build them.
"""
from __future__ import annotations

import numpy as np

from .core import Field, Grid1D, TrajectorySet
from .errors import ValidationError


def cumulative(field: Field, grid: Grid1D) -> np.ndarray:
    """Trapezoid cumulative integral of the density, rescaled to end at 1.

    Entry 0 is exactly 0 and the last entry exactly 1; the result is
    non-decreasing because the density is non-negative.
    """
    v = field.values
    if v.shape[0] != grid.nx:
        raise ValidationError(f"field has {v.shape[0]} nodes, grid has {grid.nx}")
    inc = 0.5 * (v[1:] + v[:-1]) * grid.dx
    c = np.concatenate(([0.0], np.cumsum(inc)))
    total = c[-1]
    if total <= 0.0:
        raise ValidationError("cannot build a CDF from a zero-mass field")
    c /= total  # last entry becomes exactly 1.0 (x/x rounds to 1)
    return c


def trace_flux_lines(snapshots, grid: Grid1D, quantiles) -> TrajectorySet:
    """Quantile paths through a time-ordered series of density snapshots.

    ``paths[i, k]`` is the leftmost position where the piecewise-linear CDF
    of snapshot ``k`` reaches ``quantiles[i]``; every quantile lies in (0, 1).
    """
    q = np.array(quantiles, dtype=np.float64)  # a copy: the set marks it read-only
    if q.ndim != 1 or q.size == 0:
        raise ValidationError("quantiles must be a non-empty 1-d sequence")
    if not np.all((q > 0.0) & (q < 1.0)):  # NaN fails both
        raise ValidationError(f"quantiles must lie in (0, 1), got {q.tolist()!r}")
    if np.any(np.diff(q) <= 0.0):
        raise ValidationError("quantiles must be strictly increasing")
    snaps = list(snapshots)
    if not snaps:
        raise ValidationError("need at least one snapshot")
    times = np.array([s.time for s in snaps])
    if np.any(np.diff(times) < 0.0):
        raise ValidationError("snapshots must be time-ordered")
    paths = np.empty((q.size, times.size))
    for k, snap in enumerate(snaps):
        c = cumulative(snap, grid)
        # c[0] = 0 < q < 1 = c[-1], so 1 <= j <= nx - 1 and c[j - 1] < q <= c[j];
        # side="left" takes the leftmost solution inside a zero-density plateau
        j = np.searchsorted(c, q, side="left")
        paths[:, k] = grid.x_min + ((j - 1) + (q - c[j - 1]) / (c[j] - c[j - 1])) * grid.dx
    for a in (q, times, paths):
        a.setflags(write=False)
    return TrajectorySet(quantiles=q, times=times, paths=paths)


def velocity_field(snapshots, grid: Grid1D, quantiles) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference velocities along each flux line.

    Central differences at interior times, one-sided at the ends; with
    exactly two snapshots every entry is the single forward difference.
    Returns ``(times, velocities)`` with one velocity row per quantile.
    """
    traj = trace_flux_lines(snapshots, grid, quantiles)
    t = traj.times
    if t.size < 2:
        raise ValidationError("need at least 2 snapshots to differentiate")
    if np.any(np.diff(t) <= 0.0):
        raise ValidationError("snapshot times must be strictly increasing")
    x = traj.paths
    v = np.empty_like(x)
    v[:, 0] = (x[:, 1] - x[:, 0]) / (t[1] - t[0])
    v[:, -1] = (x[:, -1] - x[:, -2]) / (t[-1] - t[-2])
    if t.size > 2:
        v[:, 1:-1] = (x[:, 2:] - x[:, :-2]) / (t[2:] - t[:-2])
    return np.array(t), v
