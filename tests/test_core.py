"""Domain types: invariants, derived fields, and grid_spanning."""
import dataclasses

import numpy as np
import pytest

from balldiff import (
    Field,
    GaussianState,
    Grid1D,
    ResourceLimitError,
    SlitConfig,
    ValidationError,
    grid_spanning,
    make_physical_params,
    trace_flux_lines,
)
import balldiff.core
from balldiff.core import MAX_STEPS


def test_diffusivity_is_hbar_over_two_mass():
    assert make_physical_params(1.0, 0.5).diffusivity == 1.0
    assert make_physical_params(1.0, 1.0).diffusivity == 0.5
    assert make_physical_params(2.0, 4.0).diffusivity == 0.25


def test_diffusivity_deterministic_bitwise():
    a = make_physical_params(0.1, 0.7)
    b = make_physical_params(0.1, 0.7)
    assert a.diffusivity == b.diffusivity


@pytest.mark.parametrize("hbar,mass", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (float("nan"), 1.0)])
def test_physical_params_rejects_bad_inputs(hbar, mass):
    with pytest.raises(ValidationError):
        make_physical_params(hbar, mass)


def test_physical_params_frozen():
    p = make_physical_params(1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.hbar = 2.0


def test_gaussian_state_requires_positive_sigma0():
    with pytest.raises(ValidationError):
        GaussianState(sigma0=0.0)
    with pytest.raises(ValidationError):
        GaussianState(sigma0=-1.0)


def test_grid_geometry():
    g = Grid1D(x_min=-1.0, dx=0.5, nx=5, dt=0.1, n_steps=10)
    assert g.x_max == 1.0
    assert np.array_equal(g.x, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_x_is_readonly():
    g = Grid1D(x_min=0.0, dx=1.0, nx=3, dt=0.1, n_steps=1)
    with pytest.raises(ValueError):
        g.x[0] = 5.0


def test_grid_rejects_degenerate():
    with pytest.raises(ValidationError):
        Grid1D(x_min=0.0, dx=1.0, nx=2, dt=0.1, n_steps=1)
    with pytest.raises(ValidationError):
        Grid1D(x_min=0.0, dx=1.0, nx=3, dt=0.1, n_steps=0)
    with pytest.raises(ValidationError):
        Grid1D(x_min=0.0, dx=-0.1, nx=3, dt=0.1, n_steps=1)


def test_field_mass_and_readonly():
    f = Field(time=0.0, values=[0.0, 1.0, 0.0])
    assert f.values.sum() * 0.5 == 0.5
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_field_rejects_bad_values():
    with pytest.raises(ValidationError):
        Field(time=0.0, values=[0.0, -1.0, 0.0])
    with pytest.raises(ValidationError):
        Field(time=0.0, values=[0.0, float("nan"), 0.0])
    with pytest.raises(ValidationError):
        Field(time=0.0, values=[1.0, 2.0])


def test_slit_config_derives_dvx():
    s = SlitConfig(separation=6.0, sigma0=1.0, v1=1.0, v2=-1.0)
    assert s.dvx == 2.0
    with pytest.raises(ValidationError):
        SlitConfig(separation=0.0, sigma0=1.0, v1=0.0, v2=0.0)


@pytest.mark.parametrize("v1, v2", [(float("nan"), 0.0), (0.0, float("inf")),
                                    (float("-inf"), 1.0), (1e308, -1e308)])
def test_slit_config_refuses_non_finite_drifts(v1, v2):
    with pytest.raises(ValidationError, match="v1 - v2 must be finite"):
        SlitConfig(separation=6.0, sigma0=1.0, v1=v1, v2=v2)


def test_trajectory_set_validates_quantiles():
    """trace_flux_lines, the only TrajectorySet producer, refuses quantiles
    that are not a non-empty, increasing 1-d sequence inside (0, 1)."""
    grid = Grid1D(x_min=0.0, dx=0.25, nx=5, dt=0.1, n_steps=1)
    field = Field(time=0.0, values=np.ones(5))
    for bad in ([0.7, 0.3], [0.5, 0.5], [0.0, 0.5], [0.5, 1.0], [], [[0.3, 0.7]]):
        with pytest.raises(ValidationError):
            trace_flux_lines([field], grid, bad)


def test_grid_spanning_step_count_immune_to_float_noise():
    # 1.0 / 0.1 rounds slightly above 10; must still give 10 steps
    g = grid_spanning(0.0, 1.0, 0.1, dt=0.1, t_final=1.0)
    assert g.n_steps == 10


def test_grid_spanning_cap(monkeypatch):
    assert grid_spanning(0.0, 1.0, 0.1, dt=0.1, t_final=1.0).nx == 21
    monkeypatch.setattr(balldiff.core, "NX_CAP", 20)  # read at each call
    with pytest.raises(ResourceLimitError, match=r"grid would need 21 nodes \(cap 20\)"):
        grid_spanning(0.0, 1.0, 0.1, dt=0.1, t_final=1.0)


def test_grid_spanning_counts_nodes_past_the_float_range_as_inf():
    # 2 * 1e308 + 1 nodes is an int no float can hold
    with pytest.raises(ResourceLimitError, match=r"grid would need inf nodes \(cap 4194304\)"):
        grid_spanning(0.0, 1e308, 1.0, dt=0.1, t_final=1.0)


def test_grid_spanning_refuses_a_dx_whose_square_overflows():
    # dx**2 divides every stencil nu
    with pytest.raises(ValidationError) as refused:
        grid_spanning(0.0, 1e300, 1.35e154, dt=0.1, t_final=1.0)
    assert str(refused.value) == "dx must be at most 1.34e+154, got 1.35e+154"


def test_grid_spanning_step_cap():
    assert grid_spanning(0.0, 1.0, 0.1, dt=1.0, t_final=float(MAX_STEPS)).n_steps == MAX_STEPS
    for t_final in (MAX_STEPS + 1.0, 1e300):
        with pytest.raises(ResourceLimitError, match="macro steps"):
            grid_spanning(0.0, 1.0, 0.1, dt=1.0, t_final=t_final)
