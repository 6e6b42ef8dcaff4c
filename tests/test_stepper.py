"""Finite-difference stepper: stencil arithmetic, substepping, conservation."""
import math

import numpy as np
import pytest

from balldiff import (
    DomainTooSmallError,
    Field,
    GaussianState,
    Grid1D,
    ResourceLimitError,
    ValidationError,
    analytic_sigma,
    evolve,
    gaussian_pdf,
    grid_spanning,
    sample_gaussian_field,
    second_moment_sigma,
)
from balldiff import stepper
from balldiff.analytic import diffusion_coefficient
from balldiff.stepper import STABILITY_TARGET, StepperReport, _edge_fraction, _snap_indices


def _spread_setup(dx, dt, t_final, params, state):
    half = 10.0 * analytic_sigma(t_final, state.sigma0, params.diffusivity)
    grid = grid_spanning(state.center, half, dx, dt=dt, t_final=t_final)
    return grid, sample_gaussian_field(state, grid)


def test_evolve_headline_spreading(params, unit_state):
    """Packet width reaches sigma(2) = sqrt(2) within 0.5% relative."""
    grid, f0 = _spread_setup(0.02, 0.01, 2.0, params, unit_state)
    snaps, report = evolve(f0, grid, unit_state, params, [0.0, 1.0, 2.0])
    sigma = second_moment_sigma(snaps[-1], grid)
    assert sigma == pytest.approx(math.sqrt(2.0), rel=0.005)
    assert report.max_courant <= 0.4 + 1e-12
    assert report.macro_steps == 200


def test_evolve_snapshot_zero_is_initial(params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    snaps, _ = evolve(f0, grid, unit_state, params, [0.0])
    assert np.array_equal(snaps[0].values, f0.values)
    assert snaps[0].time == 0.0


def test_evolve_conservation_and_positivity(params, unit_state):
    grid, f0 = _spread_setup(0.02, 0.01, 2.0, params, unit_state)
    snaps, report = evolve(f0, grid, unit_state, params, [0.0, 0.5, 1.0, 1.5, 2.0])
    for snap in snaps:
        assert abs(snap.values.sum() * grid.dx - 1.0) <= 1e-9
        assert np.all(snap.values >= 0.0)
    assert report.mass_drift <= 1e-9
    assert report.boundary_leak < 1e-12


def test_evolve_preserves_symmetry(params, unit_state):
    grid, f0 = _spread_setup(0.02, 0.01, 2.0, params, unit_state)
    snaps, _ = evolve(f0, grid, unit_state, params, [1.0, 2.0])
    for snap in snaps:
        assert np.max(np.abs(snap.values - snap.values[::-1])) <= 1e-12


def test_evolve_substeps_grow_with_time(params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.05, 2.0, params, unit_state)
    _, short = evolve(f0, grid, unit_state, params, [1.0])
    _, full = evolve(f0, grid, unit_state, params, [2.0])
    # coefficient grows linearly, so substeps per macro step roughly double
    assert full.total_substeps > 2 * short.total_substeps


def test_evolve_duplicate_snapshot_times(params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    snaps, _ = evolve(f0, grid, unit_state, params, [1.0, 1.0])
    assert len(snaps) == 2
    assert np.array_equal(snaps[0].values, snaps[1].values)


def test_evolve_validates_snapshot_times(params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    with pytest.raises(ValidationError):
        evolve(f0, grid, unit_state, params, [1.0, 0.5])
    with pytest.raises(ValidationError):
        evolve(f0, grid, unit_state, params, [5.0])
    with pytest.raises(ValidationError):
        evolve(f0, grid, unit_state, params, [])
    with pytest.raises(ValidationError):
        evolve(f0, grid, unit_state, params, [-0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolve_refuses_non_finite_snapshot_times(params, unit_state, bad):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    with pytest.raises(ValidationError, match="snapshot_times must be finite"):
        evolve(f0, grid, unit_state, params, [0.0, bad])


def test_evolve_refuses_snapshot_step_count_that_overflows(params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    # (t - t0) / dt overflows to inf: refused as past the final step, not cast to an int
    with pytest.raises(ValidationError, match="past the final step"):
        evolve(f0, grid, unit_state, params, [0.0, 1e307])


def test_evolve_requires_unit_mass(params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    doubled = Field(time=0.0, values=2.0 * f0.values)
    with pytest.raises(ValidationError):
        evolve(doubled, grid, unit_state, params, [1.0])


def test_evolve_requires_matching_grid(params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    other = Grid1D(x_min=grid.x_min, dx=grid.dx, nx=grid.nx + 2, dt=grid.dt,
                   n_steps=grid.n_steps)
    with pytest.raises(ValidationError):
        evolve(f0, other, unit_state, params, [1.0])


def test_evolve_flags_boundary_leak(params, unit_state):
    # domain only 2 sigma0 wide; the spreading packet must hit the edges
    grid = grid_spanning(0.0, 2.0, 0.05, dt=0.01, t_final=4.0)
    f0 = sample_gaussian_field(unit_state, grid)
    with pytest.raises(DomainTooSmallError):
        evolve(f0, grid, unit_state, params, [0.0, 2.0, 4.0])


def test_evolve_three_node_grid_leaks_whole_mass(params, unit_state):
    # dx = 100 around sigma0 = 1: every node is within an edge's reach
    grid = grid_spanning(0.0, 11.0, 100.0, dt=0.01, t_final=1.0)
    assert grid.nx == 3
    f0 = sample_gaussian_field(unit_state, grid)
    with pytest.raises(DomainTooSmallError, match=r"^boundary holds 1\.000e\+00 of the mass at t=0\.0;"):
        evolve(f0, grid, unit_state, params, [0.0, 1.0])


def test_evolve_refuses_schedule_over_pass_cap(params, unit_state):
    # dx = 0.001 to t = 100 needs about 3.1e9 passes; the cap refuses it before
    # the schedule is allocated (the grid is narrow, since only dx sets the count)
    grid = grid_spanning(0.0, 1.0, 0.001, dt=0.1, t_final=100.0)
    f0 = sample_gaussian_field(unit_state, grid)
    with pytest.raises(ResourceLimitError, match=r"3\.13e\+09 stencil passes .*dx or shorten t_final"):
        evolve(f0, grid, unit_state, params, [100.0])


def test_evolve_pass_cap_is_inclusive(monkeypatch, params, unit_state):
    grid, f0 = _spread_setup(0.05, 0.01, 1.0, params, unit_state)
    _, report = evolve(f0, grid, unit_state, params, [1.0])
    monkeypatch.setattr(stepper, "MAX_PASSES", report.total_substeps)
    evolve(f0, grid, unit_state, params, [1.0])
    monkeypatch.setattr(stepper, "MAX_PASSES", report.total_substeps - 1)
    with pytest.raises(ResourceLimitError, match="stencil passes"):
        evolve(f0, grid, unit_state, params, [1.0])


@pytest.mark.parametrize("nx, expected", [(3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0), (7, 6 / 7)])
def test_edge_fraction_counts_each_node_once(nx, expected):
    assert _edge_fraction(np.ones(nx)) == expected


def test_sample_gaussian_field_has_exact_unit_mass(params, unit_state):
    grid = grid_spanning(0.0, 8.0, 0.07, dt=0.1, t_final=1.0)
    f0 = sample_gaussian_field(unit_state, grid)
    assert f0.values.sum() * grid.dx == pytest.approx(1.0, abs=1e-15)


def test_second_moment_of_sampled_gaussian():
    grid = grid_spanning(0.0, 10.0, 0.01, dt=0.1, t_final=1.0)
    f = Field(time=0.0, values=gaussian_pdf(grid.x, 0.0, 1.0))
    assert second_moment_sigma(f, grid) == pytest.approx(1.0, abs=1e-6)


def test_second_moment_two_point_field():
    grid = Grid1D(x_min=-2.0, dx=1.0, nx=5, dt=0.1, n_steps=1)
    f = Field(time=0.0, values=[1.0, 0.0, 0.0, 0.0, 1.0])
    assert second_moment_sigma(f, grid) == pytest.approx(2.0, rel=1e-12)


def test_second_moment_uniform_field():
    n = 201
    dx = 0.05
    grid = Grid1D(x_min=-(n - 1) / 2 * dx, dx=dx, nx=n, dt=0.1, n_steps=1)
    f = Field(time=0.0, values=np.ones(n))
    # discrete uniform over n nodes has variance dx^2 (n^2 - 1) / 12
    exact = dx * math.sqrt((n**2 - 1) / 12.0)
    assert second_moment_sigma(f, grid) == pytest.approx(exact, rel=1e-12)
    # converges to the continuous L / sqrt(12) as n grows
    length = (n - 1) * dx
    assert second_moment_sigma(f, grid) == pytest.approx(length / math.sqrt(12.0), rel=0.01)


def test_second_moment_rejects_zero_mass():
    grid = Grid1D(x_min=0.0, dx=1.0, nx=3, dt=0.1, n_steps=1)
    with pytest.raises(ValidationError):
        second_moment_sigma(Field(time=0.0, values=[0.0, 0.0, 0.0]), grid)


def test_error_drops_fourfold_when_dx_halves(params, unit_state):
    """Second-order stencil: halving dx (dt/4) cuts the Linf error ~4x."""
    t_final = 1.0
    sigma_end = analytic_sigma(t_final, unit_state.sigma0, params.diffusivity)
    errors = []
    for dx, dt in ((0.1, 0.0125), (0.05, 0.003125)):
        grid, f0 = _spread_setup(dx, dt, t_final, params, unit_state)
        snaps, _ = evolve(f0, grid, unit_state, params, [t_final])
        exact = gaussian_pdf(grid.x, 0.0, sigma_end)
        errors.append(np.max(np.abs(snaps[-1].values - exact)))
    factor = errors[0] / errors[1]
    assert 3.5 <= factor <= 4.5


def _evolve_per_macro_step(initial, grid, state, params, snapshot_times, apply_passes,
                           leak_threshold=1e-6):
    """Reference: the substep schedule worked out one macro step at a time."""
    t0 = initial.time
    indices = _snap_indices(snapshot_times, grid, t0)
    wanted = {}
    for i in indices:
        wanted[i] = wanted.get(i, 0) + 1
    sigma0, d, dx2 = state.sigma0, params.diffusivity, grid.dx**2
    v = np.array(initial.values, dtype=np.float64)
    mass0 = float(initial.values.sum() * grid.dx)
    snapshots, max_nu, total_substeps, worst_leak = [], 0.0, 0, 0.0

    def emit(step):
        nonlocal worst_leak
        t = t0 + step * grid.dt
        leak = _edge_fraction(v)
        worst_leak = max(worst_leak, leak)
        if leak > leak_threshold:
            raise DomainTooSmallError(
                f"boundary holds {leak:.3e} of the mass at t={t}; widen the domain"
            )
        for _ in range(wanted[step]):
            snapshots.append(Field(time=t, values=v))

    if 0 in wanted:
        emit(0)
    for m in range(1, max(indices) + 1):
        t_end = t0 + m * grid.dt
        nu_end = diffusion_coefficient(t_end, sigma0, d) * grid.dt / dx2
        n_sub = max(1, math.ceil(nu_end / STABILITY_TARGET - 1e-12))
        sub_dt = grid.dt / n_sub
        sub_ends = t0 + (m - 1) * grid.dt + sub_dt * np.arange(1, n_sub + 1)
        nus = diffusion_coefficient(sub_ends, sigma0, d) * (sub_dt / dx2)
        v = apply_passes(v, nus)
        max_nu = max(max_nu, float(nus[-1]))
        total_substeps += n_sub
        if m in wanted:
            emit(m)
    mass_final = float(v.sum() * grid.dx)
    report = StepperReport(
        macro_steps=max(indices),
        total_substeps=total_substeps,
        max_courant=max_nu,
        mass_drift=abs(mass_final - mass0) / mass0,
        boundary_leak=worst_leak,
    )
    return snapshots, report


class _CountingKernel:
    def __init__(self, impl):
        self.impl = impl
        self.calls = 0

    def __call__(self, values, nus):
        self.calls += 1
        return self.impl.apply_passes(values, nus)


def _assert_same_run(got, want):
    (snaps, report), (ref_snaps, ref_report) = got, want
    assert len(snaps) == len(ref_snaps)
    for a, b in zip(snaps, ref_snaps):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)
    for name in StepperReport.__dataclass_fields__:
        assert getattr(report, name) == getattr(ref_report, name), name


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
@pytest.mark.parametrize("t0, times", [
    (0.0, [0.0]),
    (0.0, [0.0, 0.0]),
    (0.0, [0.0, 0.4, 0.4, 1.3, 3.0]),
    (0.0, [3.0]),
    (0.75, [0.75, 1.0, 1.0, 2.2, 3.0]),
    (0.75, [3.0, 3.0]),
])
def test_evolve_schedule_matches_per_macro_step_loop(monkeypatch, params, unit_state,
                                                     kernel, t0, times):
    grid = grid_spanning(0.0, 40.0, 0.05, dt=0.01, t_final=3.0)
    f0 = Field(time=t0, values=sample_gaussian_field(unit_state, grid).values)
    counting = _CountingKernel(kernel)
    monkeypatch.setattr(stepper, "apply_passes", counting)
    got = evolve(f0, grid, unit_state, params, times)
    want = _evolve_per_macro_step(f0, grid, unit_state, params, times, kernel.apply_passes)
    _assert_same_run(got, want)
    # one kernel call per distinct snapshot time after the start
    assert counting.calls == len({t for t in times if t > t0})


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
def test_evolve_schedule_raises_leak_at_same_snapshot(monkeypatch, params, unit_state,
                                                      kernel):
    # 6 sigma0 each side: clean at t = 1, past the leak threshold by t = 2
    grid = grid_spanning(0.0, 6.0, 0.05, dt=0.01, t_final=4.0)
    f0 = sample_gaussian_field(unit_state, grid)
    times = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    with pytest.raises(DomainTooSmallError) as got:
        evolve(f0, grid, unit_state, params, times)
    with pytest.raises(DomainTooSmallError) as want:
        _evolve_per_macro_step(f0, grid, unit_state, params, times, kernel.apply_passes)
    assert str(got.value) == str(want.value)
    assert "t=2.0;" in str(got.value)
