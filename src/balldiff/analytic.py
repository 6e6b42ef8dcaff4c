"""Closed-form reference solutions the numerical stepper is checked against.

Everything here is a pure function of its arguments: the Gaussian density,
its spreading law, and the induced time-dependent diffusion coefficient. The
q-quantile flux line of a spreading packet is ``center + z_q * sigma(t)``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_pdf(x, center: float, sigma: float):
    """Normal density with the given mean and standard deviation.

    Accepts a scalar or an array of positions.
    """
    if not (sigma > 0.0):
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    z = (np.asarray(x, dtype=np.float64) - center) / sigma
    out = np.exp(-0.5 * z * z) / (_SQRT_2PI * sigma)
    return float(out) if np.isscalar(x) else out


def _checked_times(t, sigma0: float, diffusivity: float) -> np.ndarray:
    """``t`` as a float array, once sigma0 > 0, diffusivity > 0 and every t >= 0 hold."""
    if not (sigma0 > 0.0):
        raise ValidationError(f"sigma0 must be positive, got {sigma0!r}")
    if not (diffusivity > 0.0):
        raise ValidationError(f"diffusivity must be positive, got {diffusivity!r}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0):
        raise ValidationError(f"t must be >= 0, got {t!r}")
    return t_arr


def analytic_sigma(t, sigma0: float, diffusivity: float):
    """Packet width sigma0 * sqrt(1 + (D t / sigma0^2)^2) at time t >= 0."""
    t_arr = _checked_times(t, sigma0, diffusivity)
    u = diffusivity * t_arr / sigma0**2
    w = np.minimum(u, 2.0**27)  # from 2**27 on, 1 + u*u rounds to u*u, whose root is u
    out = sigma0 * np.where(u < 2.0**27, np.sqrt(1.0 + w * w), u)
    return float(out) if np.isscalar(t) else out


def diffusion_coefficient(t, sigma0: float, diffusivity: float):
    """Time-dependent diffusion coefficient D**2 * t / sigma0**2.

    Zero at t=0 and growing linearly; this is what makes the spreading
    ballistic (variance growing like t**2) rather than diffusive.
    """
    t_arr = _checked_times(t, sigma0, diffusivity)
    out = diffusivity**2 * t_arr / sigma0**2
    return float(out) if np.isscalar(t) else out

