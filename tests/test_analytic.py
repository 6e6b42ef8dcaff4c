"""Closed-form oracles: density, spreading law, diffusion coefficient, quantiles."""
import math

import numpy as np
import pytest

from balldiff import (
    GaussianState,
    ValidationError,
    analytic_flux_line,
    analytic_sigma,
    diffusion_coefficient,
    gaussian_pdf,
    normal_quantile,
)

# Phi(1), the standard normal CDF at z = 1
PHI_1 = 0.8413447460685429


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


def test_analytic_sigma_rejects_negative_time():
    with pytest.raises(ValidationError):
        analytic_sigma(-0.1, 1.0, 0.5)


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


def test_normal_quantile_median_and_known_points():
    assert abs(normal_quantile(0.5)) <= 1e-12
    assert normal_quantile(PHI_1) == pytest.approx(1.0, abs=1e-11)
    assert normal_quantile(0.9) == pytest.approx(1.2815515655446004, abs=1e-11)
    assert normal_quantile(0.75) == pytest.approx(0.6744897501960817, abs=1e-11)


def test_normal_quantile_antisymmetric():
    for q in (0.1, 0.25, 0.4):
        assert normal_quantile(q) + normal_quantile(1.0 - q) == pytest.approx(0.0, abs=1e-11)


def test_normal_quantile_range():
    with pytest.raises(ValidationError):
        normal_quantile(0.0)
    with pytest.raises(ValidationError):
        normal_quantile(1.0)


def test_normal_quantile_against_scipy():
    ndtri = pytest.importorskip("scipy.special").ndtri
    for q in (1e-12, 1e-10, 1e-8, 0.01, 0.1, 0.3, 0.5, 0.8413447460685429, 0.99,
              1.0 - 1e-10):
        assert normal_quantile(q) == pytest.approx(float(ndtri(q)), abs=1e-10)


def test_flux_line_median_is_center():
    state = GaussianState(sigma0=1.0, center=2.0)
    for t in (0.0, 1.0, 10.0):
        assert analytic_flux_line(0.5, t, state, 0.5) == pytest.approx(2.0, abs=1e-11)


def test_flux_line_at_phi_of_one():
    state = GaussianState(sigma0=1.0, center=0.0)
    assert analytic_flux_line(PHI_1, 0.0, state, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert analytic_flux_line(PHI_1, 1.0, state, 1.0) == pytest.approx(
        math.sqrt(2.0), abs=1e-10
    )


def test_flux_line_homothety():
    state = GaussianState(sigma0=1.0, center=0.0)
    for q in (0.2, 0.8413447460685429):
        x0 = analytic_flux_line(q, 0.0, state, 0.5)
        x2 = analytic_flux_line(q, 2.0, state, 0.5)
        assert x2 / x0 == pytest.approx(analytic_sigma(2.0, 1.0, 0.5), rel=1e-10)


def test_flux_line_increasing_in_quantile():
    state = GaussianState(sigma0=1.0, center=0.0)
    qs = np.linspace(0.05, 0.95, 19)
    xs = [analytic_flux_line(q, 3.0, state, 0.5) for q in qs]
    assert np.all(np.diff(xs) > 0.0)
