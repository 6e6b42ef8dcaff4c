"""The explicit scheme solved exactly, as an oracle for the schedule and both kernels.

Every pass multiplies the interior by I + nu L with the same tridiagonal L
(held edges), so the passes commute and are diagonal in the interior's sine
basis. After the linear profile between the two held edge values is taken
out, sine mode k of N interior nodes is multiplied by
1 - 4 nu sin^2(k pi / (2 (N + 1))) per pass. The oracle computes every nu
itself, from tau(t) = D^2 t^2 / (2 sigma0^2), the integral of
D_t = D^2 t / sigma0^2, and the segment rule of the stepper's docstring, so a
wrong pass count or nu fails it as much as a wrong kernel does. It does not
depend on the kernels' operation order.
"""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import balldiff.stepper as stepper
from balldiff import (GaussianState, analytic_sigma, evolve, grid_spanning,
                      make_physical_params)
from balldiff.cli import _evolve_packet
from balldiff.config import double_slit_grid, load_config
from balldiff.stepper import (STABILITY_TARGET, march, plan, sample_gaussian_field,
                              second_moment_sigma)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _segments(times, dx, sigma0, diffusivity):
    """``(n, nu)`` of the passes that end at each of the snapshot ``times``, from the
    time before it; ``(0, 0.0)`` where a time repeats the one before it.

    Each snapshot segment [t_a, t_b] takes the fewest equal passes that keep nu at
    or below the stability target and add up to (tau(t_b) - tau(t_a)) / dx^2.
    """
    segments, t_a = [], 0.0
    for t_b in times:
        n, nu = 0, 0.0
        if t_b > t_a:
            total = diffusivity**2 * (t_b - t_a) * (t_b + t_a) / (2.0 * sigma0**2) / dx**2
            n = max(math.ceil(total / STABILITY_TARGET - 1e-12), 1)
            nu = total / n
            t_a = t_b
        segments.append((n, nu))
    return segments


def _dst1(u):
    """sum_j u_j sin(pi j k / (N + 1)) for k = 1..N along the last axis of ``u``: a DST-I,
    read off the FFT of u's odd extension [0, u, 0, -reversed u], of length 2 (N + 1),
    whose bin k is -2i times that sum. O(N log N), where the sine matrix was O(N^2)."""
    zero = np.zeros(u.shape[:-1] + (1,))
    odd = np.concatenate([zero, u, zero, -u[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1:-1]


def _sine_oracle(values, segments):
    """``values`` of shape (nx,) or (rows, nx) after the passes of each ``(n, nu)``."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    nx = v.shape[-1]
    n = nx - 2
    along = np.linspace(0.0, 1.0, nx)
    linear = v[:, :1] + (v[:, -1:] - v[:, :1]) * along
    modes = _dst1((v - linear)[:, 1:-1]) * (2.0 / (n + 1))
    shrink = 4.0 * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
    gain = np.ones(n)
    out = []
    for passes, nu in segments:
        # (1 - x)^passes through log1p where 1 - x is near 1: multiplying by the rounded
        # factor once per pass would add up the same rounding error passes times over;
        # where x > 1 the factor is negative, and the power keeps its sign (-1)^passes
        x = nu * shrink
        near = x < 0.5
        gain *= np.where(near, np.exp(passes * np.log1p(-np.where(near, x, 0.0))),
                         (1.0 - x) ** passes)
        interior = linear[:, 1:-1] + _dst1(modes * gain)
        out.append(np.concatenate([v[:, :1], interior, v[:, -1:]], axis=1).reshape(
            np.shape(values)))
    return out


def _ulps_of_peak(got, want, peak):
    return float(np.max(np.abs(got - want)) / np.spacing(peak))


def _oracle_ulps(initial, snaps, report, grid, sigma0, diffusivity):
    """Worst mismatch of ``(t, values)`` snapshots against the oracle, in ulps of the
    initial peak; the pass count must match the oracle's too."""
    segments = _segments([t for t, _ in snaps], grid.dx, sigma0, diffusivity)
    assert report.total_substeps == sum(n for n, _ in segments)
    want = _sine_oracle(initial, segments)
    return max(_ulps_of_peak(v, w, np.max(initial)) for (_, v), w in zip(snaps, want))


def _packet_run(cfg):
    """Initial values and ``(t, values)`` snapshots of a config's single-packet run."""
    grid, snaps, report = _evolve_packet(cfg)
    initial = sample_gaussian_field(cfg.state, grid).values
    return grid, initial, [(s.time, s.values) for s in snaps], report


#: Largest oracle mismatch, in ulps of the initial peak, over the snapshots of a run.
#: Measured on either kernel: 2 (trajectories.cfg), 4 (doubleslit.cfg), 3 (the small
#: spread), 3, 2, 3 and 4 (convergence.cfg levels 0 to 3) and 0.625 (acceptance 2).
_ULPS = 32

#: A small spread run: 285 nodes, snapshots every 0.5 up to t = 2.
_SMALL_SPREAD = """\
[grid]
dx = 0.1
dt = 0.05
t_final = 2.0
"""


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
def test_flux_line_run_matches_sine_basis_oracle(monkeypatch, kernel):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    cfg = load_config(CONFIGS / "trajectories.cfg")
    grid, initial, snaps, report = _packet_run(cfg)
    worst = _oracle_ulps(initial, snaps, report, grid, cfg.state.sigma0, cfg.params.diffusivity)
    assert worst <= _ULPS, worst


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
def test_small_spread_run_matches_sine_basis_oracle(tmp_path, monkeypatch, kernel):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    (tmp_path / "run.cfg").write_text(_SMALL_SPREAD)
    cfg = load_config(tmp_path / "run.cfg")
    grid, initial, snaps, report = _packet_run(cfg)
    assert grid.nx == 285 and len(snaps) == 5
    worst = _oracle_ulps(initial, snaps, report, grid, cfg.state.sigma0, cfg.params.diffusivity)
    assert worst <= _ULPS, worst


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
def test_convergence_level_matches_sine_basis_oracle(monkeypatch, kernel, level):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    base = load_config(CONFIGS / "convergence.cfg")
    # the level run_convergence runs: dx halved per level, dt kept, one snapshot at
    # t_final, which the stepper's plan snaps to a whole number of dt
    cfg = dataclasses.replace(base, dx=base.dx / 2**level, snapshot_times=(base.t_final,))
    grid, initial, snaps, report = _packet_run(cfg)
    assert grid.nx == 2**level * 112 + 1
    worst = _oracle_ulps(initial, snaps, report, grid, cfg.state.sigma0, cfg.params.diffusivity)
    assert worst <= _ULPS, worst


@pytest.mark.parametrize("kernel", ["compiled"], indirect=True)
def test_acceptance_2_run_matches_sine_basis_oracle(monkeypatch, kernel):
    """Acceptance 2's long run, 200,012 passes on 8,003 nodes up to t = 100, on the
    compiled kernel alone to keep the suite short: the numpy kernel takes about 2.4 times
    as long, and tests/test_kernel.py holds the two bit-identical. One pass more or fewer
    in the last segment, where the packet is widest and a pass changes it least, fails
    the oracle, at the same nu (3.6e8 ulps) and with nu rescaled to keep tau exact
    (1,346 ulps)."""
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    params, state = make_physical_params(1.0, 1.0), GaussianState(sigma0=1.0)
    grid = grid_spanning(0.0, 10.0 * analytic_sigma(100.0, 1.0, 0.5), 0.125,
                         dt=0.1, t_final=100.0)
    initial = sample_gaussian_field(state, grid)
    snaps, report = evolve(initial, grid, state, params, np.linspace(10.0, 100.0, 25))
    assert grid.nx == 8003 and len(snaps) == 25 and report.total_substeps == 200_012
    snaps = [(s.time, s.values) for s in snaps]
    assert _oracle_ulps(initial.values, snaps, report, grid, 1.0, 0.5) <= _ULPS
    segments = _segments([t for t, _ in snaps], grid.dx, 1.0, 0.5)
    (n, nu), peak = segments[-1], np.max(initial.values)
    for wrong in (n - 1, n + 1):
        for wrong_nu in (nu, n * nu / wrong):  # from the stencil's snapshot before it
            [want] = _sine_oracle(snaps[-2][1], [(wrong, wrong_nu)])
            assert _ulps_of_peak(snaps[-1][1], want, peak) > _ULPS, (wrong, wrong_nu)


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
def test_two_beam_rows_match_sine_basis_oracle(monkeypatch, kernel):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    cfg = load_config(CONFIGS / "doubleslit.cfg")
    grid = double_slit_grid(cfg)
    half = 0.5 * cfg.slits.separation
    initial = np.stack([sample_gaussian_field(GaussianState(sigma0=cfg.slits.sigma0, center=c),
                                              grid).values for c in (-half, half)])
    snaps, report = march(initial, 0.0, grid, plan(cfg.snapshot_times, grid, 0.0,
                                                   cfg.slits.sigma0, cfg.params.diffusivity))
    worst = _oracle_ulps(initial, snaps, report, grid, cfg.slits.sigma0, cfg.params.diffusivity)
    assert worst <= _ULPS, worst


@pytest.mark.parametrize("config", ["spread", "trajectories", "convergence"])
@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
def test_variance_grows_by_two_dx_squared_per_unit_nu(monkeypatch, kernel, config):
    """Each pass adds 2 dx^2 nu to the variance and keeps the mass, up to the held
    edges' flux, which is negligible on these grids. Measured on either kernel: at
    most 6.6e-16 of the variance, and a mass drift of at most 4.5e-16."""
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    cfg = load_config(CONFIGS / f"{config}.cfg")
    grid, snaps, report = _evolve_packet(cfg)
    var0 = second_moment_sigma(sample_gaussian_field(cfg.state, grid), grid) ** 2
    segments = _segments([s.time for s in snaps], grid.dx, cfg.state.sigma0,
                         cfg.params.diffusivity)
    worst, nus = 0.0, []
    for snap, (n, nu) in zip(snaps, segments):
        nus += [nu] * n
        var = second_moment_sigma(snap, grid) ** 2
        worst = max(worst, abs(var - var0 - 2.0 * grid.dx**2 * math.fsum(nus)) / var)
    assert worst <= 1e-15, worst
    assert report.mass_drift <= 1e-15, report.mass_drift
