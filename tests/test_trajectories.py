"""Flux lines: CDF building, quantile inversion, tracing, velocities."""
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balldiff import (
    Field,
    Grid1D,
    ValidationError,
    analytic_sigma,
    cumulative,
    gaussian_pdf,
    grid_spanning,
    evolve,
    sample_gaussian_field,
    trace_flux_lines,
    velocity_field,
)
from balldiff.config import load_config, single_beam_grid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PHI_1 = 0.8413447460685429


def _uniform_grid():
    grid = Grid1D(x_min=0.0, dx=0.25, nx=5, dt=0.1, n_steps=1)
    field = Field(time=0.0, values=np.ones(5))
    return grid, field


def _gaussian_snapshot(t, grid, sigma0=1.0, diffusivity=0.5, center=0.0):
    sigma = analytic_sigma(t, sigma0, diffusivity)
    return Field(time=t, values=gaussian_pdf(grid.x, center, sigma))


def test_cumulative_uniform_is_linear():
    grid, field = _uniform_grid()
    c = cumulative(field, grid)
    assert np.array_equal(c, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_cumulative_endpoints_exact():
    grid = grid_spanning(0.0, 6.0, 0.05, dt=0.1, t_final=1.0)
    c = cumulative(_gaussian_snapshot(0.0, grid), grid)
    assert c[0] == 0.0
    assert c[-1] == 1.0
    assert np.all(np.diff(c) >= 0.0)


def test_cumulative_center_of_symmetric_density():
    grid = grid_spanning(0.0, 8.0, 0.05, dt=0.1, t_final=1.0)
    c = cumulative(_gaussian_snapshot(0.0, grid), grid)
    assert c[(grid.nx - 1) // 2] == pytest.approx(0.5, abs=1e-8)


def test_cumulative_refuses_a_node_count_mismatch():
    grid = grid_spanning(0.0, 1.0, 0.1, dt=0.1, t_final=1.0)
    with pytest.raises(ValidationError) as refused:
        cumulative(Field(time=0.0, values=np.ones(5)), grid)
    assert str(refused.value) == "field has 5 nodes, grid has 21"


def test_cumulative_rejects_zero_mass():
    grid = Grid1D(x_min=0.0, dx=1.0, nx=3, dt=0.1, n_steps=1)
    with pytest.raises(ValidationError):
        cumulative(Field(time=0.0, values=np.zeros(3)), grid)


def _reference_paths(snapshots, grid, quantiles):
    """Per-quantile reference for trace_flux_lines: one searchsorted per (snapshot, quantile)."""
    q = np.asarray(quantiles, dtype=np.float64)
    paths = np.empty((q.size, len(snapshots)))
    for k, snap in enumerate(snapshots):
        c = cumulative(snap, grid)
        for i, qi in enumerate(q):
            j = int(np.searchsorted(c, qi, side="left"))
            frac = (qi - c[j - 1]) / (c[j] - c[j - 1])
            paths[i, k] = float(grid.x_min + (j - 1 + frac) * grid.dx)
    return paths


def _plateau():
    """Zero density on nodes 2-4: the CDF is 0.5 from x = 2 to x = 4."""
    grid = Grid1D(x_min=0.0, dx=1.0, nx=7, dt=0.1, n_steps=1)
    field = Field(time=0.0, values=[0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0])
    return grid, field


def _uniform_case():
    grid, field = _uniform_grid()
    return grid, [field], [0.1, 0.25, 0.3, 0.5, 0.75, 0.9]


def _gaussian_case():
    grid = grid_spanning(0.0, 8.0, 0.05, dt=0.1, t_final=1.0)
    snaps = [_gaussian_snapshot(t, grid) for t in (0.0, 1.0, 2.0)]
    return grid, snaps, [1e-9, 0.1, 0.5, PHI_1, 1.0 - 1e-9]


def _plateau_case():
    grid, field = _plateau()
    return grid, [field], [0.25, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.75]


def _trajectories_cfg_case():
    """The shipped config's snapshots, at its deciles and 999 more quantiles."""
    cfg = load_config(CONFIGS / "trajectories.cfg")
    grid = single_beam_grid(cfg)
    snaps, _ = evolve(sample_gaussian_field(cfg.state, grid), grid, cfg.state, cfg.params,
                      cfg.snapshot_times)
    return grid, snaps, np.union1d(cfg.quantiles, np.linspace(0.001, 0.999, 999))


@pytest.mark.parametrize("case", [_uniform_case, _gaussian_case, _plateau_case,
                                  _trajectories_cfg_case], ids=lambda case: case.__name__)
def test_trace_flux_lines_equal_per_quantile_reference(case):
    grid, snaps, quantiles = case()
    traj = trace_flux_lines(snaps, grid, quantiles)
    assert np.array_equal(traj.paths, _reference_paths(snaps, grid, quantiles))


def test_invert_cdf_on_uniform():
    grid, field = _uniform_grid()
    paths = trace_flux_lines([field], grid, [0.1, 0.25, 0.5]).paths[:, 0]
    assert paths[0] == pytest.approx(0.1, abs=1e-15)
    assert paths[1] == 0.25
    assert paths[2] == 0.5


def test_invert_cdf_median_of_gaussian():
    grid = grid_spanning(0.0, 8.0, 0.05, dt=0.1, t_final=1.0)
    traj = trace_flux_lines([_gaussian_snapshot(0.0, grid)], grid, [0.5])
    assert traj.paths[0, 0] == pytest.approx(0.0, abs=1e-8)


def test_invert_cdf_at_phi_of_one():
    grid = grid_spanning(0.0, 8.0, 0.05, dt=0.1, t_final=1.0)
    traj = trace_flux_lines([_gaussian_snapshot(0.0, grid)], grid, [PHI_1])
    assert traj.paths[0, 0] == pytest.approx(1.0, abs=grid.dx)


def test_invert_cdf_plateau_returns_leftmost():
    grid, field = _plateau()
    assert np.array_equal(cumulative(field, grid), [0.0, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0])
    paths = trace_flux_lines([field], grid, [0.5, 0.5 + 1e-6]).paths[:, 0]
    assert paths[0] == 2.0
    # just above the plateau value the solution jumps to its right edge
    assert paths[1] == pytest.approx(4.0, abs=1e-4)


def test_invert_cdf_validates_inputs():
    grid, field = _uniform_grid()
    for quantiles in ([0.0], [1.0], [0.5, 1.0], [math.nan], [0.2, math.nan]):
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            trace_flux_lines([field], grid, quantiles)


def test_trace_flux_lines_match_analytic_quantiles():
    grid = grid_spanning(0.0, 25.0, 0.05, dt=0.1, t_final=1.0)
    snaps = [_gaussian_snapshot(t, grid) for t in (0.0, 2.0, 4.0)]
    qs = [0.1, 0.3, 0.5, 0.7, 0.9]
    traj = trace_flux_lines(snaps, grid, qs)
    for i, q in enumerate(qs):
        for k, t in enumerate((0.0, 2.0, 4.0)):
            expected = NormalDist().inv_cdf(q) * analytic_sigma(t, 1.0, 0.5)
            assert traj.paths[i, k] == pytest.approx(expected, abs=1e-3 * analytic_sigma(t, 1.0, 0.5) + 1e-9)


def test_trace_flux_lines_homothety():
    grid = grid_spanning(0.0, 25.0, 0.05, dt=0.1, t_final=1.0)
    snaps = [_gaussian_snapshot(t, grid) for t in (0.0, 4.0)]
    traj = trace_flux_lines(snaps, grid, [0.2, 0.8])
    ratio = analytic_sigma(4.0, 1.0, 0.5) / 1.0
    for i in range(2):
        assert traj.paths[i, 1] / traj.paths[i, 0] == pytest.approx(ratio, rel=0.01)


def test_trace_flux_lines_never_cross():
    grid = grid_spanning(0.0, 25.0, 0.05, dt=0.1, t_final=1.0)
    snaps = [_gaussian_snapshot(t, grid) for t in (0.0, 1.0, 2.0, 3.0)]
    traj = trace_flux_lines(snaps, grid, np.linspace(0.05, 0.95, 19))
    assert np.all(np.diff(traj.paths, axis=0) >= 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    densities=st.lists(st.lists(st.floats(0.0, 1e3), min_size=6, max_size=6)
                       .filter(lambda v: sum(v) > 0.0), min_size=1, max_size=3),
    quantiles=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8, unique=True),
)
def test_trace_flux_lines_paths_ordered_by_quantile(densities, quantiles):
    """Any non-negative densities, zero plateaus included, give non-crossing flux lines."""
    grid = Grid1D(x_min=-1.0, dx=0.4, nx=6, dt=0.1, n_steps=1)
    snaps = [Field(time=float(k), values=v) for k, v in enumerate(densities)]
    traj = trace_flux_lines(snaps, grid, sorted(quantiles))
    assert traj.paths.shape == (len(quantiles), len(densities))
    assert np.all(np.diff(traj.paths, axis=0) >= 0.0)
    assert np.array_equal(traj.paths, _reference_paths(snaps, grid, sorted(quantiles)))


def test_trace_flux_lines_arrays_read_only_and_caller_quantiles_untouched():
    grid, field = _uniform_grid()
    qs = np.array([0.25, 0.5])
    traj = trace_flux_lines([field], grid, qs)
    for a in (traj.quantiles, traj.times, traj.paths):
        assert not a.flags.writeable
    assert qs.flags.writeable and not np.shares_memory(qs, traj.quantiles)


def test_trace_flux_lines_validates_inputs():
    grid, field = _uniform_grid()
    with pytest.raises(ValidationError):
        trace_flux_lines([field], grid, [0.7, 0.3])
    with pytest.raises(ValidationError):
        trace_flux_lines([], grid, [0.5])
    out_of_order = [Field(time=1.0, values=np.ones(5)), Field(time=0.0, values=np.ones(5))]
    with pytest.raises(ValidationError):
        trace_flux_lines(out_of_order, grid, [0.5])


def test_velocity_field_pure_shift():
    """A rigidly translating density has every quantile moving at the drift."""
    grid = grid_spanning(0.0, 10.0, 0.1, dt=0.1, t_final=1.0)
    v_drift = 0.2  # exactly two cells per unit time
    snaps = [
        Field(time=t, values=gaussian_pdf(grid.x, v_drift * t, 1.0))
        for t in (0.0, 1.0, 2.0)
    ]
    times, vel = velocity_field(snaps, grid, [0.2, 0.5, 0.8])
    assert np.array_equal(times, [0.0, 1.0, 2.0])
    assert np.max(np.abs(vel - v_drift)) <= 1e-9


def test_velocity_field_central_difference_exact_for_quadratic():
    grid = grid_spanning(0.0, 10.0, 0.1, dt=0.1, t_final=1.0)
    # centers at 0, 0.2, 0.8: quadratic path 0.2 t^2 sampled on nodes
    snaps = [
        Field(time=t, values=gaussian_pdf(grid.x, 0.2 * t * t, 1.0))
        for t in (0.0, 1.0, 2.0)
    ]
    _, vel = velocity_field(snaps, grid, [0.5])
    assert vel[0, 1] == pytest.approx(0.4, abs=1e-9)  # exact derivative at t=1
    assert vel[0, 0] == pytest.approx(0.2, abs=1e-9)  # forward difference
    assert vel[0, 2] == pytest.approx(0.6, abs=1e-9)  # backward difference


def test_velocity_field_median_is_stationary():
    grid = grid_spanning(0.0, 25.0, 0.05, dt=0.1, t_final=1.0)
    snaps = [_gaussian_snapshot(t, grid) for t in (0.0, 1.0, 2.0)]
    _, vel = velocity_field(snaps, grid, [0.5])
    assert np.max(np.abs(vel)) <= 1e-6


def test_velocity_field_needs_two_snapshots():
    grid, field = _uniform_grid()
    with pytest.raises(ValidationError):
        velocity_field([field], grid, [0.5])
    same_time = [Field(time=0.0, values=np.ones(5)), Field(time=0.0, values=np.ones(5))]
    with pytest.raises(ValidationError):
        velocity_field(same_time, grid, [0.5])
