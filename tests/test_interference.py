"""Two-beam composition: phase, intensity rule, fringes, drift handling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balldiff.stepper as stepper
from balldiff import (
    DomainTooSmallError,
    GaussianState,
    SlitConfig,
    ValidationError,
    compose_intensity,
    detect_fringe_maxima,
    evolve,
    fringe_spacing,
    gaussian_pdf,
    grid_spanning,
    make_physical_params,
    phase,
    required_half_width,
    sample_gaussian_field,
    simulate_double_slit,
)
from balldiff.core import MIN_SAFETY_SPAN
from balldiff.interference import _shift


def _slits(separation=6.0, dvx=2.0, sigma0=1.0):
    return SlitConfig(separation=separation, sigma0=sigma0, v1=0.5 * dvx, v2=-0.5 * dvx)


def _grid(slits, params, t_final, points_per_sigma0, dt):
    need = required_half_width(slits, params, t_final, 10.0)
    return grid_spanning(0.0, need, slits.sigma0 / points_per_sigma0, dt=dt, t_final=t_final)


def test_phase_values(params):
    assert phase(0.0, 1.0, params) == 0.0
    assert phase(math.pi, 1.0, params) == math.pi
    p2 = make_physical_params(1.0, 2.0)
    assert phase(-2.0, 0.5, p2) == -2.0


def test_phase_is_odd_and_linear(params):
    x = np.linspace(-3.0, 3.0, 13)
    phi = phase(x, 2.0, params)
    assert np.array_equal(phi, -phase(-x, 2.0, params))
    assert np.array_equal(phi, 2.0 * x)


def test_compose_intensity_point_values():
    assert compose_intensity(1.0, 1.0, 0.0) == 4.0
    assert compose_intensity(1.0, 1.0, math.pi) == pytest.approx(0.0, abs=1e-15)
    assert compose_intensity(1.0, 0.0, 2.3) == 1.0
    assert compose_intensity(4.0, 1.0, math.pi / 2) == pytest.approx(5.0, abs=1e-14)


def test_compose_intensity_rejects_negative():
    with pytest.raises(ValidationError):
        compose_intensity(-1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        compose_intensity(np.array([1.0, -0.5]), np.array([1.0, 1.0]), 0.0)


@settings(max_examples=150, deadline=None)
@given(
    p1=st.floats(0.0, 1e6),
    p2=st.floats(0.0, 1e6),
    phi=st.floats(-50.0, 50.0),
)
def test_compose_intensity_bounds(p1, p2, phi):
    total = compose_intensity(p1, p2, phi)
    assert total >= 0.0
    envelope = 2.0 * math.sqrt(p1 * p2)
    assert abs(total - p1 - p2) <= envelope + 1e-9 * (p1 + p2 + 1.0)


def test_zero_dvx_degeneracy(params):
    slits = _slits(separation=2.0, dvx=0.0)
    grid = _grid(slits, params, 1.0, 10, dt=0.05)
    imap = simulate_double_slit(slits, grid, params, [0.0, 0.5, 1.0])
    expected = (np.sqrt(imap.p1) + np.sqrt(imap.p2)) ** 2
    assert np.max(np.abs(imap.p_total - expected)) <= 1e-12


def test_zero_dvx_midpoint_adds_constructively(params):
    """Equal tails at the midpoint: the total is four times one beam."""
    slits = _slits(separation=4.0, dvx=0.0)
    grid = _grid(slits, params, 0.5, 16, dt=0.05)
    imap = simulate_double_slit(slits, grid, params, [0.5])
    mid = (grid.nx - 1) // 2
    assert grid.x[mid] == pytest.approx(0.0, abs=1e-12)
    assert imap.p1[0][mid] == pytest.approx(imap.p2[0][mid], rel=1e-12)
    assert imap.p_total[0][mid] == pytest.approx(4.0 * imap.p1[0][mid], rel=1e-11)


def test_mirror_symmetry(params):
    slits = _slits(separation=4.0, dvx=1.0)
    grid = _grid(slits, params, 1.0, 16, dt=0.02)
    imap = simulate_double_slit(slits, grid, params, [1.0])
    total = imap.p_total[0]
    assert np.max(np.abs(total - total[::-1])) <= 1e-12


def test_beams_escaping_domain_detected(params):
    slits = _slits(separation=4.0, dvx=4.0)
    narrow = grid_spanning(0.0, 3.0, 0.1, dt=0.05, t_final=1.0)
    with pytest.raises(DomainTooSmallError):
        simulate_double_slit(slits, narrow, params, [0.0, 1.0])


def test_domain_check_margin_is_the_safety_span_floor(params):
    # a grid sized with the smallest safety_span a config accepts passes the check
    slits = _slits(separation=4.0, dvx=1.0)
    need = required_half_width(slits, params, 1.0, MIN_SAFETY_SPAN)
    fits = grid_spanning(0.0, need, 0.05, dt=0.05, t_final=1.0)
    simulate_double_slit(slits, fits, params, [0.0, 1.0])
    short = grid_spanning(0.0, 0.98 * need, 0.05, dt=0.05, t_final=1.0)
    with pytest.raises(DomainTooSmallError, match="needs"):
        simulate_double_slit(slits, short, params, [0.0, 1.0])


def test_detect_fringe_maxima_on_synthetic_pattern():
    dx = 0.025
    x = np.arange(-10.0, 10.0 + dx / 2, dx)
    p1 = gaussian_pdf(x, 1.0, 2.0)
    p2 = gaussian_pdf(x, -1.0, 2.0)
    total = p1 + p2 + 2.0 * np.sqrt(p1 * p2) * np.cos(2.0 * x)
    hits = detect_fringe_maxima(x, p1, p2, total)
    assert hits.size >= 5
    spacing = math.pi  # cos(2x) crests at multiples of pi
    for h in hits:
        nearest = round(h / spacing) * spacing
        assert abs(h - nearest) <= 0.5 * dx + 1e-9


def test_detect_fringe_maxima_empty_for_disjoint_beams():
    x = np.linspace(-10.0, 10.0, 401)
    p1 = np.where(x < 0, 1.0, 0.0)
    p2 = np.where(x > 5, 1.0, 0.0)
    hits = detect_fringe_maxima(x, p1, p2, p1 + p2)
    assert hits.size == 0


def test_fringe_spacing_values(params):
    assert fringe_spacing(params, 2.0) == math.pi
    assert fringe_spacing(params, -2.0) == math.pi
    assert fringe_spacing(params, 1.0) == 2.0 * math.pi
    with pytest.raises(ValidationError):
        fringe_spacing(params, 0.0)
    with pytest.raises(ValidationError):  # mass * |dvx| underflows to 0
        fringe_spacing(make_physical_params(1.0, 1e-300), 1e-30)
    # the ratio is taken first, so 2 pi hbar never overflows on its own
    assert fringe_spacing(make_physical_params(1e308, 1e307), 1.0) == pytest.approx(20 * math.pi)


@pytest.mark.parametrize("dvx", [math.nan, math.inf, -math.inf])
def test_fringe_spacing_refuses_non_finite_dvx(params, dvx):
    with pytest.raises(ValidationError, match="finite dvx"):
        fringe_spacing(params, dvx)


def test_intensity_map_validates_shapes(params):
    """simulate_double_slit, the only IntensityMap producer, gives matching
    shapes, non-negative intensities and read-only arrays."""
    slits = _slits(separation=3.0, dvx=1.0)
    grid = _grid(slits, params, 0.5, 10, dt=0.05)
    imap = simulate_double_slit(slits, grid, params, [0.0, 0.25, 0.5])
    assert imap.times.shape == (3,)
    assert imap.x_axis.shape == (grid.nx,)
    for a in (imap.p1, imap.p2, imap.p_total):
        assert a.shape == (3, grid.nx)
        assert np.all(a >= 0.0)
    for a in (imap.times, imap.x_axis, imap.p1, imap.p2, imap.p_total):
        assert not a.flags.writeable


def test_simulate_keeps_both_beam_densities(params):
    slits = _slits(separation=3.0, dvx=1.0)
    grid = _grid(slits, params, 0.5, 10, dt=0.05)
    imap = simulate_double_slit(slits, grid, params, [0.0, 0.5])
    assert imap.p1.shape == (2, grid.nx)
    assert imap.p2.shape == (2, grid.nx)
    # beams start centered on the slit positions
    i1 = int(np.argmax(imap.p1[0]))
    i2 = int(np.argmax(imap.p2[0]))
    assert grid.x[i1] == pytest.approx(-1.5, abs=grid.dx)
    assert grid.x[i2] == pytest.approx(+1.5, abs=grid.dx)


def _double_slit_per_beam(slits, grid, params, snapshot_times):
    """Reference: (times, p1, p2, p_total) with each beam in its own evolve call."""
    half = 0.5 * slits.separation
    beams = []
    for center, v in ((-half, slits.v1), (half, slits.v2)):
        state = GaussianState(sigma0=slits.sigma0, center=center)
        initial = sample_gaussian_field(state, grid)
        snaps, _ = evolve(initial, grid, state, params, snapshot_times)
        beams.append(np.stack([_shift(s.values, grid.x, v * s.time) for s in snaps]))
    phi = phase(grid.x, slits.dvx, params)
    p_total = np.stack([compose_intensity(r1, r2, phi) for r1, r2 in zip(*beams)])
    return np.array([s.time for s in snaps]), beams[0], beams[1], p_total


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
@pytest.mark.parametrize("v1, v2", [(1.0, -1.0), (1.5, -0.25)], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("times", [
    [0.0],
    [0.0, 0.5, 1.0],
    [0.0, 0.0, 0.3, 0.3, 1.0, 1.0],
    [0.7, 1.0],
])
def test_beams_march_together_like_separate_evolve_calls(monkeypatch, params, kernel,
                                                         v1, v2, times):
    slits = SlitConfig(separation=4.0, sigma0=1.0, v1=v1, v2=v2)
    grid = _grid(slits, params, 1.0, 10, dt=0.05)
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    want = _double_slit_per_beam(slits, grid, params, times)
    calls = []

    def counting(values, nus):
        calls.append(np.shape(values))
        return kernel.apply_passes(values, nus)

    monkeypatch.setattr(stepper, "apply_passes", counting)
    imap = simulate_double_slit(slits, grid, params, times)
    for got, ref in zip((imap.times, imap.p1, imap.p2, imap.p_total), want):
        assert np.array_equal(got, ref)
    # one call per distinct snapshot time after t = 0, both beams in it
    assert calls == [(2, grid.nx)] * len({t for t in times if t > 0.0})
