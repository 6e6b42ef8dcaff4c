"""Dyadic scale invariance of the shipped spread and double-slit runs.

Lengths scaled by 2**k and times by 4**k leave every stencil coefficient
nu = D_t dt / dx**2 and the phase mass * dvx * x / hbar unchanged, and
multiplying by a power of two is exact in binary floating point. So the
scaled run must take the same steps on the same number of nodes and give
densities scaled by 2**-k bit for bit, on either kernel.
"""
from pathlib import Path

import numpy as np
import pytest

import balldiff.stepper as stepper
from balldiff.cli import _evolve_packet
from balldiff.config import build_config, double_slit_grid, load_raw
from balldiff.interference import simulate_double_slit

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _scaled_config(name, factors):
    """The shipped config with each listed (section, key) scaled entry by entry."""
    raw = load_raw(CONFIGS / f"{name}.cfg")
    for (section, key), factor in factors.items():
        raw[section][key] = ", ".join(repr(float(s) * factor)
                                      for s in raw[section][key].split(","))
    return build_config(raw, f"{name}.cfg scaled")


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
@pytest.mark.parametrize("k", [1, -3])
def test_spread_is_dyadic_scale_invariant(monkeypatch, kernel, k):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    runs = []
    for scale in (0, k):
        length, time = 2.0**scale, 4.0**scale
        runs.append(_evolve_packet(_scaled_config("spread", {
            ("packet", "sigma0"): length, ("packet", "center"): length,
            ("grid", "dx"): length, ("grid", "dt"): time, ("grid", "t_final"): time,
            ("output", "snapshot_times"): time,
        })))
    (grid, snaps, report), (grid_k, snaps_k, report_k) = runs
    assert grid_k.nx == grid.nx
    assert np.array_equal(grid_k.x, grid.x * 2.0**k)
    assert report_k == report
    assert len(snaps_k) == len(snaps)
    for snap, snap_k in zip(snaps, snaps_k):
        assert snap_k.time == snap.time * 4.0**k
        assert np.array_equal(snap_k.values, snap.values * 2.0**-k)


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
@pytest.mark.parametrize("k", [1, -2])
def test_doubleslit_is_dyadic_scale_invariant(monkeypatch, kernel, k):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    runs = []
    for scale in (0, k):
        length, time = 2.0**scale, 4.0**scale
        cfg = _scaled_config("doubleslit", {
            ("packet", "sigma0"): length, ("slits", "separation"): length,
            ("grid", "dx"): length, ("grid", "dt"): time, ("grid", "t_final"): time,
            ("output", "snapshot_times"): time, ("slits", "dvx"): length / time,
        })
        grid = double_slit_grid(cfg)
        runs.append((grid, simulate_double_slit(cfg.slits, grid, cfg.params,
                                                cfg.snapshot_times)))
    (grid, imap), (grid_k, imap_k) = runs
    assert grid_k.nx == grid.nx
    assert np.array_equal(imap_k.x_axis, imap.x_axis * 2.0**k)
    assert np.array_equal(imap_k.times, imap.times * 4.0**k)
    for name in ("p1", "p2", "p_total"):
        assert np.array_equal(getattr(imap_k, name), getattr(imap, name) * 2.0**-k), name
