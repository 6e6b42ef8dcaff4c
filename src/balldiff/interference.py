"""Two-beam double-slit intensity from independently evolved slit densities.

Each beam spreads by pure ballistic diffusion in its co-moving frame; the
transverse drift enters only as a coordinate shift of the beam center and
through the velocity difference in the interference phase. The total
intensity follows the classical two-wave rule
``p1 + p2 + 2 sqrt(p1 p2) cos(phi)`` with ``phi = m dvx x / hbar``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import analytic_sigma
from .core import MIN_SAFETY_SPAN, GaussianState, Grid1D, PhysicalParams, SlitConfig
from .errors import DomainTooSmallError, ValidationError
from .stepper import evolve  # noqa: F401  (unused: kept bound for perfbench/spans.py)
from .stepper import march, plan, sample_gaussian_field

#: Fringe search ignores cells whose beam envelope is below this fraction of its peak,
#: and beams whose envelope peaks below this fraction of the larger beam make no fringes.
ENVELOPE_FLOOR = 1e-9

#: Rounding bound of the cross term p_total - p1 - p2, in units of p1 + p2 + p_total.
_ROUNDING = 8.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class IntensityMap:
    """Per-snapshot beam densities and their composed total intensity.

    Built only by :func:`simulate_double_slit`, with read-only arrays.
    """

    times: np.ndarray
    x_axis: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p_total: np.ndarray


def phase(x, dvx: float, params: PhysicalParams):
    """Interference phase mass * dvx * x / hbar; linear and odd in x."""
    out = params.mass * dvx * np.asarray(x, dtype=np.float64) / params.hbar
    return float(out) if np.isscalar(x) else out


def compose_intensity(p1, p2, phi):
    """Classical two-wave intensity p1 + p2 + 2 sqrt(p1 p2) cos(phi).

    Never negative: algebraically the minimum is (sqrt(p1)-sqrt(p2))^2,
    and the one-ulp rounding dip at perfect destructive interference is
    clamped to zero.
    """
    p1_arr = np.asarray(p1, dtype=np.float64)
    p2_arr = np.asarray(p2, dtype=np.float64)
    if np.any(p1_arr < 0.0) or np.any(p2_arr < 0.0):
        raise ValidationError("beam intensities must be non-negative")
    out = p1_arr + p2_arr + 2.0 * np.sqrt(p1_arr * p2_arr) * np.cos(phi)
    out = np.maximum(out, 0.0)
    scalar = np.isscalar(p1) and np.isscalar(p2) and np.isscalar(phi)
    return float(out) if scalar else out


def _beam_extents(slits: SlitConfig, params: PhysicalParams, t_final: float,
                  safety_span: float):
    """(x0, v, t, c, reach) per beam at t = 0 and t_final: the beam that starts
    at x0 and drifts at v is centered at c and needs [c - reach, c + reach]."""
    half = 0.5 * slits.separation
    for c0, v in ((-half, slits.v1), (half, slits.v2)):
        for t in (0.0, t_final):
            reach = safety_span * analytic_sigma(t, slits.sigma0, params.diffusivity)
            yield c0, v, t, c0 + v * t, reach


def _shift(values: np.ndarray, x: np.ndarray, offset: float) -> np.ndarray:
    return np.interp(x - offset, x, values, left=0.0, right=0.0)


def simulate_double_slit(
    slits: SlitConfig,
    grid: Grid1D,
    params: PhysicalParams,
    snapshot_times,
) -> IntensityMap:
    """Evolve both slit beams and compose the total intensity per snapshot.

    Beams evolve in their co-moving frames on the shared grid; the drift
    ``v_i * t`` is applied afterwards as a linear-interpolation shift.
    Both beams share sigma0, the grid and dt, so every stencil nu: they
    march together as the two rows of one array, with one nu and one kernel
    call per snapshot segment.
    Both per-beam densities are kept in the output for diagnostics; each
    is normalized to unit mass, so the composed total is not.

    Raises :class:`DomainTooSmallError` when the grid leaves less than
    :data:`~balldiff.core.MIN_SAFETY_SPAN` sigma(t) around either beam at t = 0
    or at the last time the plan reaches, the floor ``[grid] safety_span`` enforces.
    """
    segments = plan(snapshot_times, grid, 0.0, slits.sigma0, params.diffusivity)
    t_end = segments[-1][0] * grid.dt  # the last snapshot time, snapped to a step of dt
    for x0, v, t, c, reach in _beam_extents(slits, params, t_end, MIN_SAFETY_SPAN):
        if c - reach < grid.x_min or c + reach > grid.x_max:
            raise DomainTooSmallError(
                f"beam from x0={x0} drifting at {v} needs "
                f"[{c - reach:.4g}, {c + reach:.4g}] at t={t}, grid covers "
                f"[{grid.x_min:.4g}, {grid.x_max:.4g}]"
            )

    half = 0.5 * slits.separation
    initial = [sample_gaussian_field(GaussianState(sigma0=slits.sigma0, center=c), grid).values
               for c in (-half, half)]
    snaps, _ = march(np.stack(initial), 0.0, grid, segments)
    beams = [np.stack([_shift(rows[i], grid.x, v * t) for t, rows in snaps])
             for i, v in enumerate((slits.v1, slits.v2))]

    p_total = compose_intensity(*beams, phase(grid.x, slits.dvx, params))
    times = np.array([t for t, _ in snaps])
    for a in (times, *beams, p_total):
        a.setflags(write=False)
    return IntensityMap(times=times, x_axis=grid.x, p1=beams[0], p2=beams[1], p_total=p_total)


def required_half_width(
    slits: SlitConfig, params: PhysicalParams, t_final: float, safety_span: float
) -> float:
    """Half-width around x = 0 holding both drifted, spread beams."""
    extents = _beam_extents(slits, params, t_final, safety_span)
    return max(abs(c) + reach for _, _, _, c, reach in extents)


def detect_fringe_maxima(
    x: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    p_total: np.ndarray,
) -> np.ndarray:
    """Positions of constructive-interference maxima in one snapshot.

    Works on the envelope-normalized cross term
    ``(p_total - p1 - p2) / (2 sqrt(p1 p2))``, which recovers the phase
    cosine; maxima of the raw cross term are dragged toward the envelope
    peak and would not land on the cosine's crests. Cells where the
    envelope is below :data:`ENVELOPE_FLOOR` of its maximum are ignored,
    and a maximum counts only if it rises above both neighbours by more
    than their rounding bounds, so a flat phase yields none.
    """
    envelope = 2.0 * np.sqrt(p1 * p2)
    valid = envelope > ENVELOPE_FLOOR * envelope.max()  # none when the beams never overlap
    scale = np.where(valid, envelope, 1.0)  # cells left invalid are masked out below
    ratio = (p_total - p1 - p2) / scale
    noise = _ROUNDING * (p1 + p2 + p_total) / scale  # bound on the ratio's rounding error
    ok = valid[1:-1] & valid[:-2] & valid[2:]
    rising = ratio[1:-1] - ratio[:-2] > noise[1:-1] + noise[:-2]
    falling = ratio[1:-1] - ratio[2:] > noise[1:-1] + noise[2:]
    hits = np.nonzero(ok & rising & falling)[0] + 1
    return x[hits]


def fringe_spacing(params: PhysicalParams, dvx: float) -> float:
    """Distance between adjacent maxima, 2 pi (hbar / (m |dvx|)); infinite where there are none."""
    if not math.isfinite(dvx):
        raise ValidationError(f"fringe spacing needs a finite dvx, got {dvx!r}")
    momentum = params.mass * abs(dvx)  # 2 pi hbar alone may overflow, so hbar / momentum first
    return 2.0 * math.pi * (params.hbar / momentum) if momentum else math.inf
