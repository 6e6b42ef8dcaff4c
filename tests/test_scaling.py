"""Dyadic scale invariance of the shipped spread, double-slit, flux-line and convergence runs.

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
from balldiff.cli import _evolve_packet, run_convergence, run_trajectories
from balldiff.config import build_config, double_slit_grid, load_raw
from balldiff.interference import simulate_double_slit
from balldiff.tables import read_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: The keys of a single-packet config that are lengths and times.
_LENGTHS = [("packet", "sigma0"), ("packet", "center"), ("grid", "dx")]
_TIMES = [("grid", "dt"), ("grid", "t_final"), ("output", "snapshot_times")]


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
        runs.append(_evolve_packet(_scaled_config(
            "spread", {**dict.fromkeys(_LENGTHS, length), **dict.fromkeys(_TIMES, time)})))
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


def _columns(path):
    names, data = read_table(path)
    return {name: data[:, j] for j, name in enumerate(names)}


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
@pytest.mark.parametrize("k", [1, -3])
def test_trajectories_are_dyadic_scale_invariant(monkeypatch, tmp_path, kernel, k):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    for scale in (0, k):
        factors = {**dict.fromkeys(_LENGTHS, 2.0**scale), **dict.fromkeys(_TIMES, 4.0**scale),
                   ("trajectories", "v_y"): 2.0**-scale}
        assert run_trajectories(_scaled_config("trajectories", factors), tmp_path / str(scale),
                                quiet=True) == 0
    for table, lengths, times, same in [
        ("trajectories.txt", ["x", "y_display"], ["t"], ["quantile"]),
        ("homothety.txt", ["x_expected", "x_actual"], ["t"], ["quantile", "rel_dev"]),
    ]:
        base, scaled = _columns(tmp_path / "0" / table), _columns(tmp_path / str(k) / table)
        assert base["quantile"].size > 0
        for name in lengths:
            assert np.array_equal(scaled[name], base[name] * 2.0**k), (table, name)
        for name in times:
            assert np.array_equal(scaled[name], base[name] * 4.0**k), (table, name)
        for name in same:
            assert np.array_equal(scaled[name], base[name]), (table, name)


@pytest.mark.parametrize("kernel", ["python", "compiled"], indirect=True)
@pytest.mark.parametrize("k", [1, -3])
def test_convergence_is_dyadic_scale_invariant(monkeypatch, tmp_path, kernel, k):
    monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
    for scale in (0, k):
        factors = {**dict.fromkeys(_LENGTHS, 2.0**scale), **dict.fromkeys(_TIMES[:2], 4.0**scale)}
        assert run_convergence(_scaled_config("convergence", factors), tmp_path / str(scale),
                               quiet=True) == 0
    base = _columns(tmp_path / "0" / "convergence.txt")
    scaled = _columns(tmp_path / str(k) / "convergence.txt")
    assert np.array_equal(scaled["level"], base["level"])
    assert np.array_equal(scaled["dx"], base["dx"] * 2.0**k)
    assert np.array_equal(scaled["dt"], base["dt"] * 4.0**k)
    assert np.array_equal(scaled["linf_error"], base["linf_error"] * 2.0**-k)
    orders = [(tmp_path / str(scale) / "orders.txt").read_bytes() for scale in (0, k)]
    assert orders[0] == orders[1]
