"""Closed-form oracles: density, spreading law, diffusion coefficient."""
import math

import numpy as np
import pytest

from balldiff import ValidationError, analytic_sigma, diffusion_coefficient, gaussian_pdf


def test_gaussian_pdf_peak_and_point_values():
    assert gaussian_pdf(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-15)
    assert gaussian_pdf(1.0, 0.0, 1.0) == pytest.approx(0.24197072451914337, abs=1e-15)


def test_gaussian_pdf_symmetry():
    assert gaussian_pdf(3.0, 1.0, 2.0) == gaussian_pdf(-1.0, 1.0, 2.0)


def test_gaussian_pdf_rejects_bad_sigma():
    with pytest.raises(ValidationError):
        gaussian_pdf(0.0, 0.0, 0.0)


@pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
def test_gaussian_pdf_normalizes(sigma):
    x = np.linspace(-10 * sigma, 10 * sigma, 3201)
    mass = np.trapezoid(gaussian_pdf(x, 0.0, sigma), x)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_gaussian_pdf_array_shape():
    x = np.zeros((4,))
    out = gaussian_pdf(x, 0.0, 1.0)
    assert out.shape == (4,)
    assert isinstance(gaussian_pdf(0.0, 0.0, 1.0), float)


def test_analytic_sigma_matches_spreading_law():
    assert analytic_sigma(0.0, 1.0, 0.5) == 1.0
    assert analytic_sigma(1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    # late-time asymptote sigma -> D t / sigma0, exact value sqrt(1 + 1e6)
    assert analytic_sigma(1000.0, 1.0, 1.0) == pytest.approx(1000.000499999875, rel=1e-15)
    assert abs(analytic_sigma(1000.0, 1.0, 1.0) / 1000.0 - 1.0) < 1e-6


def test_analytic_sigma_monotone():
    t = np.linspace(0.0, 50.0, 200)
    s = analytic_sigma(t, 1.0, 0.5)
    assert np.all(np.diff(s) > 0.0)


def test_analytic_sigma_keeps_the_bits_of_the_law_past_a_squared_ratio_overflow():
    # u = D t / sigma0**2 from 2**20 to 2**60: the same bits as sigma0 * sqrt(1 + u * u)
    u = 2.0 ** np.arange(20.0, 60.0, 0.125)
    assert np.array_equal(analytic_sigma(u, 1.0, 1.0), np.sqrt(1.0 + u * u))
    # u = 2.2e307, whose square overflows: sigma is sigma0 * u, about 3.3e153
    assert analytic_sigma(1.0, 1.5e-154, 0.5) == 1.5e-154 * (0.5 * 1.0 / 1.5e-154**2)


def test_analytic_sigma_rejects_negative_time():
    with pytest.raises(ValidationError):
        analytic_sigma(-0.1, 1.0, 0.5)


@pytest.mark.parametrize("sigma0, diffusivity, message", [
    (0.0, 0.5, "sigma0 must be positive, got 0.0"),
    (-1.0, 0.5, "sigma0 must be positive, got -1.0"),
    (1.0, 0.0, "diffusivity must be positive, got 0.0"),
    (1.0, math.nan, "diffusivity must be positive, got nan"),
], ids=["zero_sigma0", "negative_sigma0", "zero_diffusivity", "nan_diffusivity"])
def test_analytic_sigma_refuses_non_positive_sigma0_and_diffusivity(sigma0, diffusivity,
                                                                     message):
    with pytest.raises(ValidationError) as refused:
        analytic_sigma(1.0, sigma0, diffusivity)
    assert str(refused.value) == message


def test_diffusion_coefficient_values():
    assert diffusion_coefficient(0.0, 1.0, 0.5) == 0.0
    assert diffusion_coefficient(2.0, 1.0, 1.0) == 2.0
    assert diffusion_coefficient(4.0, 2.0, 0.5) == 0.25


def test_spreading_law_consistency():
    """d(sigma^2)/dt equals twice the diffusion coefficient.

    sigma^2 is exactly quadratic in t, so the central difference is
    exact up to rounding; this identity is what forces the linear-in-t
    coefficient.
    """
    for t in (0.1, 1.0, 10.0, 100.0):
        h = 1e-4 * t
        d_var = (
            analytic_sigma(t + h, 1.0, 0.5) ** 2 - analytic_sigma(t - h, 1.0, 0.5) ** 2
        ) / (2 * h)
        assert d_var == pytest.approx(2.0 * diffusion_coefficient(t, 1.0, 0.5), rel=1e-6)
