"""CLI runners end-to-end: files, exit codes, determinism, sweeps."""
import concurrent.futures
import contextlib
import io
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import balldiff
import balldiff.cli as cli
import balldiff.stepper as stepper
import balldiff.tables as tables
from balldiff import (
    GaussianState,
    analytic_sigma,
    evolve,
    gaussian_pdf,
    grid_spanning,
    sample_gaussian_field,
    trace_flux_lines,
)
from balldiff._kernel import select_kernel
from balldiff.cli import main
from balldiff import config
from balldiff.config import build_config, load_config, load_raw, single_beam_grid
from balldiff.tables import read_table, write_table

BASE = """\
[physical]
hbar = 1.0
mass = 1.0

[packet]
sigma0 = 1.0

[grid]
dx = 0.1
dt = 0.05
t_final = 1.0
"""

SLITS = """
[slits]
separation = 4.0
dvx = 2.0
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _fresh_interpreter(*args):
    """Run ``python *args`` in a fresh interpreter that imports balldiff from its source tree."""
    src = str(Path(balldiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _cli_in_subprocess(tmp_path, text, command="spread"):
    """Exit status and stderr of the CLI run in a fresh interpreter.

    Numpy warnings reach stderr there as a user sees them; in-process,
    pytest would capture them instead.
    """
    proc = _fresh_interpreter("-m", "balldiff.cli", command, "--config", _cfg(tmp_path, text),
                              "--out", str(tmp_path / "o"), "--quiet")
    return proc.returncode, proc.stderr


def test_spread_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    assert main(["spread", "--config", _cfg(tmp_path, BASE), "--out", str(out)]) == 0
    assert (out / "sigma_timeseries.txt").exists()
    assert (out / "stepper_report.txt").exists()
    names, data = read_table(out / "sigma_timeseries.txt")
    assert names == ["t", "sigma_simulated", "sigma_analytic", "rel_error"]
    assert data.shape[0] == 5  # default snapshot count
    assert np.all(data[:, 3] < 0.01)


def test_spread_at_t_zero_reproduces_initial(tmp_path):
    text = BASE.replace("t_final = 1.0", "t_final = 0.0")
    out = tmp_path / "out"
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    cfg = load_config(tmp_path / "run.cfg")
    grid = single_beam_grid(cfg)
    expected = sample_gaussian_field(GaussianState(sigma0=1.0), grid)
    _, data = read_table(out / "field_000.txt")
    assert np.array_equal(data[:, 2], expected.values)
    assert np.array_equal(data[:, 1], grid.x)


def test_spread_tolerance_failure_sets_exit_code(tmp_path, capsys):
    # the exact tau per segment leaves sigma only the domain's truncation: 1.2e-5 at
    # safety_span = 5, against rounding (2.2e-16) at the default 10
    text = BASE + "safety_span = 5\n\n[output]\nsigma_rel_tol = 1e-12\n"
    out = tmp_path / "out"
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 1
    assert "tolerance" in capsys.readouterr().err
    # files are still written for inspection
    assert (out / "sigma_timeseries.txt").exists()


def test_grid_cap_failure_reported(tmp_path, capsys):
    text = BASE.replace("dx = 0.1", "dx = 1e-7")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    assert "cap" in capsys.readouterr().err


def test_step_cap_failure_reported(tmp_path, capsys):
    text = BASE.replace("dt = 0.05", "dt = 1e-15")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "macro steps" in err
    assert "Traceback" not in err


def test_pass_cap_failure_reported(tmp_path, capsys):
    text = BASE.replace("dx = 0.1", "dx = 0.001").replace("dt = 0.05", "dt = 0.1")
    text = text.replace("t_final = 1.0", "t_final = 100")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "stencil passes" in err
    assert "Traceback" not in err


def test_three_node_grid_leak_is_whole_mass(tmp_path, capsys):
    # dx = 100 would size a 3-node grid whose edges hold the whole mass; the config
    # is refused for its dx first (test_stepper covers the leak on such a grid)
    text = BASE.replace("dx = 0.1", "dx = 100").replace("dt = 0.05", "dt = 0.01")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "[grid] dx = 100 must be at most half of [packet] sigma0 = 1" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra", [("spread", ""), ("doubleslit", SLITS)],
                         ids=["spread", "doubleslit"])
def test_dx_too_coarse_for_sigma0_names_both_keys(tmp_path, capsys, command, extra):
    text = (BASE.replace("hbar = 1.0", "hbar = 0.001").replace("mass = 1.0", "mass = 1000")
            .replace("sigma0 = 1.0", "sigma0 = 0.001") + extra)
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'run.cfg'}: [grid] dx = 0.1 must be at most half of "
                   "[packet] sigma0 = 0.001; lower dx\n")
    assert not (tmp_path / "o").exists()


def test_dx_of_half_sigma0_still_runs(tmp_path):
    text = BASE.replace("dx = 0.1", "dx = 0.5")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0


def test_doubleslit_requires_slit_section(tmp_path, capsys):
    assert main(["doubleslit", "--config", _cfg(tmp_path, BASE), "--out", str(tmp_path / "o")]) == 1
    assert "slits" in capsys.readouterr().err


def test_doubleslit_writes_intensity_and_fringes(tmp_path):
    out = tmp_path / "out"
    code = main(["doubleslit", "--config", _cfg(tmp_path, BASE + SLITS), "--out", str(out)])
    assert code == 0
    names, data = read_table(out / "intensity_004.txt")
    assert names == ["t", "x", "p1", "p2", "p_total"]
    assert np.all(data[:, 2] >= 0.0)
    names, fr = read_table(out / "fringes.txt")
    assert names == ["n", "x_detected", "x_analytic", "error_cells"]
    assert fr.shape[0] >= 1


def test_doubleslit_zero_dvx_has_no_fringes(tmp_path):
    text = BASE + "\n[slits]\nseparation = 4.0\ndvx = 0.0\n"
    out = tmp_path / "out"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    _, fr = read_table(out / "fringes.txt")
    assert fr.shape[0] == 0


@pytest.mark.parametrize("text", [
    BASE + "\n[slits]\nseparation = 60\ndvx = 1\n\n[output]\nfringe_cell_tol = 1\n",
    (CONFIGS / "doubleslit.cfg").read_text().replace("separation = 6.0", "separation = 80"),
], ids=["separation_60", "shipped_at_separation_80"])
def test_beams_that_never_overlap_make_no_fringes(tmp_path, capsys, text):
    # the last snapshot's envelope 2 sqrt(p1 p2) is 0, so the grid holds crests of the phase
    # but no fringes, as with an infinite spacing, and fringe_cell_tol is not checked
    out = tmp_path / "o"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ("doubleslit: no fringes (beams do not overlap) "
                                       f"[{balldiff.kernel_backend()} kernel]\n")
    _, fr = read_table(out / "fringes.txt")
    assert fr.shape[0] == 0


@pytest.mark.parametrize("v1, v2, lo, hi", [
    ("10.1", "9.9", "10.9375", "29.0625"), ("-9.9", "-10.1", "-29.0625", "-10.9375"),
], ids=["right", "left"])
def test_beams_that_overlap_only_between_crests_make_no_fringes(tmp_path, capsys, v1, v2, lo, hi):
    # at t = 2 the envelope exceeds 1e-9 of its peak only on [lo, hi], between the crests
    # n = 0 and n = +-1 at x = +-31.4: no fringe to check, so fringe_cell_tol is not checked
    text = (CONFIGS / "doubleslit.cfg").read_text().replace("dvx = 2.0", f"v1 = {v1}\nv2 = {v2}")
    out = tmp_path / "o"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"doubleslit: no fringes (no crest where the beams overlap, [{lo}, {hi}]) "
        f"[{balldiff.kernel_backend()} kernel]\n")
    _, fr = read_table(out / "fringes.txt")
    assert fr.shape[0] == 0


@pytest.mark.parametrize("v1, v2, n", [("15.1", "14.9", 1), ("-14.9", "-15.1", -1)])
def test_one_crest_where_the_beams_overlap_is_a_fringe(tmp_path, v1, v2, n):
    # the overlap at t = 2 holds the crest n, and no other but n = 0
    text = (CONFIGS / "doubleslit.cfg").read_text().replace("dvx = 2.0", f"v1 = {v1}\nv2 = {v2}")
    out = tmp_path / "o"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 0
    _, fr = read_table(out / "fringes.txt")
    assert fr[:, 0].tolist() == [n]


#: A phase too flat to resolve over the grid: x = 0 is the only crest it holds, n = 0.
_FLAT_PHASE = BASE + "\n[slits]\nseparation = 6\n\n[output]\nfringe_cell_tol = 1\n"


def _no_fringes_line(path, spacing):
    grid = config.double_slit_grid(load_config(path))
    half = max(-grid.x_min, grid.x_max)
    return (f"doubleslit: no fringes (spacing {spacing:.6g} > half-width {half:.6g})"
            f" [{balldiff.kernel_backend()} kernel]\n")


@pytest.mark.parametrize("dvx", ["1e-5", "3e-6", "1e-6", "1e-8", "1e-12"])
def test_doubleslit_finds_no_maximum_in_rounding_noise(tmp_path, capsys, dvx):
    # the n = 1 crest, 2 pi / dvx from x = 0, lies far off the grid: a run with no
    # fringes, like dvx = 0, whose fringe_cell_tol is not checked
    out = tmp_path / "o"
    path = _cfg(tmp_path, _FLAT_PHASE.replace("separation = 6", f"separation = 6\ndvx = {dvx}"))
    assert main(["doubleslit", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == _no_fringes_line(path, 2.0 * math.pi / float(dvx))
    _, fr = read_table(out / "fringes.txt")
    assert fr.shape == (0, 4)


def test_doubleslit_with_underflowing_momentum_has_no_fringes(tmp_path, capsys):
    # mass * |dvx| = 1e-350 underflows to 0, like dvx = 0: an infinite spacing, no refusal
    text = (_FLAT_PHASE.replace("hbar = 1.0", "hbar = 1e-150")
            .replace("mass = 1.0", "mass = 1e-150")
            .replace("separation = 6", "separation = 6\ndvx = 1e-200"))
    out = tmp_path / "o"
    path = _cfg(tmp_path, text)
    assert main(["doubleslit", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == _no_fringes_line(path, math.inf)
    _, fr = read_table(out / "fringes.txt")
    assert fr.shape == (0, 4)


def test_sweep_point_without_fringes_records_an_infinite_spacing(tmp_path):
    text = BASE + SLITS + "\n[sweep]\ncommand = doubleslit\nslits.dvx = 0, 2\n"
    out = tmp_path / "o"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    names, rows = read_table(out / "manifest.txt")
    assert names == ["point", "slits.dvx", "status", "fringe_spacing"]
    assert rows.tolist() == [[0.0, 0.0, 0.0, math.inf], [1.0, 2.0, 0.0, math.pi]]
    assert (out / "manifest.txt").read_text().splitlines()[1] == "0 0 0 inf"


#: t_final = 0.26 snaps to the step t = 0.5 of dt; a grid sized at 0.26 is too narrow there
_SNAPS_LATER = "[grid]\ndx = {dx}\ndt = 0.5\nt_final = 0.26\nsafety_span = 5\n"


@pytest.mark.parametrize("command", ["spread", "trajectories"])
def test_single_packet_grid_holds_the_step_t_final_snaps_to(tmp_path, capsys, command):
    # sigma is 13.0 at t = 0.26 but 25.0 at t = 0.5, where the last snapshot lands
    text = "[physical]\nhbar = 100\n" + _SNAPS_LATER.format(dx=0.25)
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0, capsys.readouterr().err


def test_doubleslit_beams_keep_their_mass_to_the_step_t_final_snaps_to(tmp_path, capsys):
    # beam 2 drifts from x = 3 to 8 by t = 0.5; a grid sized at t = 0.26 loses 0.38% of it
    text = _SNAPS_LATER.format(dx=0.1) + "[slits]\nseparation = 6\nv1 = 10\nv2 = 10\n"
    out = tmp_path / "o"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 0, capsys.readouterr().err
    tail = 0.5 * math.erfc(5 / math.sqrt(2))  # a beam's mass past safety_span = 5 sigma
    files = sorted(out.glob("intensity_*.txt"))
    assert len(files) == 5
    for path in files:
        names, data = read_table(path)
        for beam in ("p1", "p2"):
            mass = data[:, names.index(beam)].sum() * 0.1
            assert abs(mass - 1.0) <= tail, (path.name, beam, mass)


#: t_final = 0.25 snaps to step 0 of dt (t_final / dt = 0.5 rounds to even), but a snapshot
#: time one ulp later, which the t_final check lets through, snaps to the step t = 0.5
_SNAPSHOT_PAST_T_FINAL = ("[physical]\nhbar = 100\n[grid]\ndx = {dx}\ndt = 0.5\n"
                          "t_final = 0.25\nsafety_span = 5\n"
                          "[output]\nsnapshot_times = 0, 0.25000000000000006\n")


@pytest.mark.parametrize("command", ["spread", "trajectories"])
def test_single_packet_grid_holds_the_step_a_late_snapshot_snaps_to(tmp_path, capsys, command):
    text = _SNAPSHOT_PAST_T_FINAL.format(dx=0.25)
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0, capsys.readouterr().err


def test_doubleslit_beams_keep_their_mass_to_the_step_a_late_snapshot_snaps_to(tmp_path,
                                                                                capsys):
    text = _SNAPSHOT_PAST_T_FINAL.format(dx=0.1) + "[slits]\nseparation = 6\nv1 = 10\nv2 = 10\n"
    out = tmp_path / "o"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 0, capsys.readouterr().err
    files = sorted(out.glob("intensity_*.txt"))
    assert len(files) == 2
    for path in files:
        names, data = read_table(path)
        for beam in ("p1", "p2"):
            mass = data[:, names.index(beam)].sum() * 0.1
            assert abs(mass - 1.0) <= 1e-6, (path.name, beam, mass)


@pytest.mark.parametrize("command", ["spread", "doubleslit"])
def test_overflowing_slit_velocities_name_the_file_and_section(tmp_path, capsys, command):
    text = BASE + "\n[slits]\nseparation = 4.0\nv1 = 1e308\nv2 = -1e308\n"
    path, out = _cfg(tmp_path, text), tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: [slits] v1 - v2 must be finite, got v1 = 1e+308, v2 = -1e+308\n")
    assert not out.exists()


def test_trajectories_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["trajectories", "--config", _cfg(tmp_path, BASE), "--out", str(out)]) == 0
    names, rows = read_table(out / "trajectories.txt")
    assert names == ["quantile", "t", "y_display", "x"]
    assert rows.shape[0] == 9 * 5  # default deciles x default snapshots
    _, hom = read_table(out / "homothety.txt")
    # the median is excluded: its homothety ratio is 0/0
    assert not np.any(hom[:, 0] == 0.5)


def test_trajectories_rejects_bad_quantiles(tmp_path, capsys):
    text = BASE + "\n[trajectories]\nquantiles = 0.9, 0.1\n"
    assert main(["trajectories", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    assert "increasing" in capsys.readouterr().err


def test_convergence_run_and_orders(tmp_path):
    text = BASE.replace("dx = 0.1", "dx = 0.2")
    out = tmp_path / "out"
    code = main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--refinements", "2"])
    assert code == 0
    _, conv = read_table(out / "convergence.txt")
    assert conv.shape == (3, 4)
    _, orders = read_table(out / "orders.txt")
    assert orders.shape == (2, 2)
    assert np.all(orders[:, 1] >= 1.7)
    assert np.all(orders[:, 1] <= 2.3)


@pytest.mark.parametrize("dt, t_final", [("0.1", "1.05"), ("0.07", "1.0")],
                         ids=["t_final_off_level_0_steps", "dt_not_dividing_t_final"])
def test_convergence_compares_each_level_at_the_time_it_reached(tmp_path, capsys, dt, t_final):
    # t_final is no whole number of level 0's dt, so level 0 stops short of or past it
    text = (BASE.replace("dx = 0.1", "dx = 0.2").replace("dt = 0.05", f"dt = {dt}")
            .replace("t_final = 1.0", f"t_final = {t_final}"))
    out = tmp_path / "out"
    assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 0, capsys.readouterr().err
    _, orders = read_table(out / "orders.txt")
    lo, hi = cli.ORDER_WINDOW
    assert np.all((lo <= orders[:, 1]) & (orders[:, 1] <= hi)), orders[:, 1]


def test_convergence_runs_every_level_to_the_time_level_0_reached(tmp_path, capsys,
                                                                  monkeypatch):
    # t_final = 0.3 rounds to one step of dt = 0.5; each level snapping t_final to its own
    # dt would reach 0.5, 0.25, 0.3125 and 0.296875, and read orders 1.343, 1.866, 2.032
    ran = []

    def march(values, t0, grid, segments):
        snaps, report = stepper.march(values, t0, grid, segments)
        ran.append(tuple(t for t, _ in snaps))
        return snaps, report

    monkeypatch.setattr(cli, "march", march)
    text = "[grid]\ndx = 0.2\ndt = 0.5\nt_final = 0.3\n"
    out = tmp_path / "out"
    assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 0, capsys.readouterr().err
    assert ran == [(0.5,)] * 4
    _, orders = read_table(out / "orders.txt")
    assert np.round(orders[:, 1], 3).tolist() == [2.038, 2.009, 1.943]


def test_convergence_plans_each_level_once_and_marches_that_plan(tmp_path, capsys,
                                                                  monkeypatch):
    planned, marched, sized = [], [], []

    def sizer(cfg):
        sized.append(cfg.dx)
        return single_beam_grid(cfg)

    def plan(*args):
        planned.append(stepper.plan(*args))
        return planned[-1]

    def march(values, t0, grid, segments):
        marched.append(segments)
        return stepper.march(values, t0, grid, segments)

    monkeypatch.setattr(cli, "single_beam_grid", sizer)
    monkeypatch.setattr(cli, "plan", plan)
    monkeypatch.setattr(cli, "march", march)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(CONFIGS / "convergence.cfg"), "--out", str(out),
                 "--quiet"]) == 0, capsys.readouterr().err
    names, conv = read_table(out / "convergence.txt")
    assert len(planned) == len(marched) == conv.shape[0] == 4
    assert sized == conv[:, names.index("dx")].tolist()  # each level's grid sized once
    assert all(got is made for got, made in zip(marched, planned))
    assert conv[:, names.index("passes")].tolist() == [
        sum(n for _, n, _ in segments) for segments in planned]


def test_convergence_refuses_a_t_final_that_rounds_to_no_step(tmp_path, capsys, monkeypatch):
    def march(*_):
        pytest.fail("a convergence level ran")

    monkeypatch.setattr(cli, "march", march)
    text = "[grid]\ndx = 0.2\ndt = 1.0\nt_final = 0.3\n"
    out = tmp_path / "o"
    assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == ("error: convergence study needs t_final = 0.3 to round "
                                       "to at least one step of dt = 1\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, args, caps, reason", [
    (("", ""), [], {"balldiff.core.NX_CAP": 500}, "grid would need 897 nodes (cap 500)"),
    (("dt = 0.05", "dt = 1e-7"), [], {}, "run would need 1e+07 macro steps (cap 4194304)"),
    # levels 0-2 take 8, 32 and 125 passes, level 3 takes 500
    (("", ""), [], {"balldiff.stepper.MAX_PASSES": 400},
     "run would need 500 stencil passes (cap 400)"),
    # levels are sized one by one, so the pass cap stops the loop at level 11, long
    # before 2**level leaves the float range at level 1024
    (("", ""), ["--refinements", "600"], {}, "run would need 3.28e+07 stencil passes"),
    (("", ""), ["--refinements", "1100"], {}, "run would need 3.28e+07 stencil passes"),
], ids=["nx_cap", "macro_step_cap", "pass_cap", "refinements_600", "refinements_1100"])
def test_convergence_refuses_a_level_before_any_level_runs(tmp_path, capsys, monkeypatch,
                                                           edit, args, caps, reason):
    def march(*_):
        pytest.fail("a convergence level ran before every level was sized")

    monkeypatch.setattr(cli, "march", march)
    for target, cap in caps.items():
        monkeypatch.setattr(target, cap)
    text = (CONFIGS / "convergence.cfg").read_text().replace(*edit)
    out = tmp_path / "o"
    assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err, err
    assert not out.exists()


@pytest.mark.parametrize("edit, args, caps, message", [
    (("dt = 0.05", "dt = 1e-7"), [], {},
     "run would need 1e+07 macro steps (cap 4194304); raise dt or shorten t_final"),
    (("", ""), [], {"balldiff.stepper.MAX_PASSES": 7},
     "run would need 8 stencil passes (cap 7); raise dx or shorten t_final"),
    # levels 0-2 take 8, 32 and 125 passes; every study runs levels 0-2
    (("", ""), [], {"balldiff.stepper.MAX_PASSES": 100}, "convergence level 2 with dx = 0.05 "
     "is refused: run would need 125 stencil passes (cap 100); raise [grid] dx"),
    (("", ""), [], {"balldiff.core.NX_CAP": 500}, "convergence level 3 with dx = 0.025 is "
     "refused: grid would need 897 nodes (cap 500); lower --refinements below 3"),
    (("", ""), ["--refinements", "600"], {}, "convergence level 11 with dx = 9.76563e-05 is "
     "refused: run would need 3.28e+07 stencil passes (cap 16777216); "
     "lower --refinements below 11"),
], ids=["level_0_steps", "level_0_passes", "level_2_passes", "level_3_nodes", "level_11_passes"])
def test_convergence_refusal_of_a_refined_level_names_the_level(tmp_path, capsys, monkeypatch,
                                                                 edit, args, caps, message):
    """Level 0 runs at the config's own dx and keeps the refusal's own text; a refined
    level's refusal names the level and its dx, and past level 2, the least every study
    runs, fewer refinements as the remedy."""
    for target, cap in caps.items():
        monkeypatch.setattr(target, cap)
    text = (CONFIGS / "convergence.cfg").read_text().replace(*edit)
    out = tmp_path / "o"
    assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet", *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_convergence_keeps_dt_so_a_fine_dt_is_not_refused(tmp_path, capsys):
    # every level runs one segment to t_final, so dt = 1e-5 sets the same passes as 0.05;
    # a dt quartered per level would ask level 3 for 6.4e6 macro steps, past the step cap
    errors = []
    for dt in ("0.05", "1e-5"):
        text = BASE.replace("dx = 0.1", "dx = 0.2").replace("dt = 0.05", f"dt = {dt}")
        out = tmp_path / dt
        assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                     "--quiet"]) == 0, capsys.readouterr().err
        _, orders = read_table(out / "orders.txt")
        lo, hi = cli.ORDER_WINDOW
        assert np.all((lo <= orders[:, 1]) & (orders[:, 1] <= hi)), orders[:, 1]
        names, conv = read_table(out / "convergence.txt")
        errors.append(conv[:, names.index("linf_error")])
    assert np.array_equal(errors[0], errors[1])


def test_convergence_rejects_single_refinement(tmp_path, capsys):
    assert main(["convergence", "--config", _cfg(tmp_path, BASE), "--out",
                 str(tmp_path / "o"), "--refinements", "1"]) == 1
    assert "refinements" in capsys.readouterr().err


@pytest.mark.parametrize("dx", [repr(1.0 / 8), repr(1.0 / 10)],
                         ids=["zero_over_zero", "zero_over_nonzero"])
def test_convergence_with_an_error_of_zero_reports_no_order(tmp_path, capsys, dx):
    # a packet this heavy does not spread: some levels match the exact Gaussian to the bit
    text = f"[physical]\nmass = 1e300\n[grid]\ndx = {dx}\ndt = 0.1\nt_final = 0.1\n"
    out = tmp_path / "o"
    assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == "error: observed order nan outside [1.7, 2.3]\n"
    _, orders = read_table(out / "orders.txt")
    assert np.isnan(orders[:, 1]).all()


def test_sweep_single_point_matches_direct_run(tmp_path):
    sweep_text = BASE + "\n[sweep]\ncommand = spread\npacket.sigma0 = 1.0\n"
    sweep_out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", _cfg(tmp_path, sweep_text, "s.cfg"),
                 "--out", str(sweep_out)]) == 0
    direct_out = tmp_path / "direct_out"
    assert main(["spread", "--config", _cfg(tmp_path, BASE, "d.cfg"),
                 "--out", str(direct_out)]) == 0
    a = (sweep_out / "point_000" / "sigma_timeseries.txt").read_bytes()
    b = (direct_out / "sigma_timeseries.txt").read_bytes()
    assert a == b


def test_sweep_grid_layout_and_manifest(tmp_path):
    text = BASE + "\n[sweep]\ncommand = spread\npacket.sigma0 = 1.0, 2.0\ngrid.t_final = 0.5, 1.0\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    names, rows = read_table(out / "manifest.txt")
    assert names == ["point", "packet.sigma0", "grid.t_final", "status", "max_sigma_rel_error"]
    assert rows.shape[0] == 4
    # last key varies fastest
    assert list(rows[:, 1]) == [1.0, 1.0, 2.0, 2.0]
    assert list(rows[:, 2]) == [0.5, 1.0, 0.5, 1.0]
    assert np.all(rows[:, 3] == 0.0)
    for i in range(4):
        assert (out / f"point_{i:03d}" / "sigma_timeseries.txt").exists()


def test_sweep_parallel_matches_serial(tmp_path):
    text = BASE + "\n[sweep]\ncommand = spread\ngrid.t_final = 0.5, 1.0\n"
    cfg = _cfg(tmp_path, text)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--workers", "2",
                 "--quiet"]) == 0
    assert (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()
    for i in range(2):
        a = (out1 / f"point_{i:03d}" / "sigma_timeseries.txt").read_bytes()
        b = (out2 / f"point_{i:03d}" / "sigma_timeseries.txt").read_bytes()
        assert a == b


def test_sweep_without_axes_rejected(tmp_path, capsys):
    text = BASE + "\n[sweep]\ncommand = spread\n"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_unknown_target_rejected(tmp_path, capsys):
    text = BASE + "\n[sweep]\ncommand = spread\npacket.wobble = 1.0\n"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    assert "wobble" in capsys.readouterr().err


def test_sweep_failing_point_recorded(tmp_path):
    # second point exceeds an impossible tolerance, first passes; safety_span = 5 leaves
    # sigma a truncation error of 1.2e-5, where the default 10 leaves only rounding
    text = (BASE + "safety_span = 5\n\n[output]\nsigma_rel_tol = 0.01\n"
            "\n[sweep]\ncommand = spread\noutput.sigma_rel_tol = 0.01, 1e-15\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 1
    _, rows = read_table(out / "manifest.txt")
    assert list(rows[:, 2]) == [0.0, 1.0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_failed_point_reports_its_reason(tmp_path, capsys, workers):
    # point 000 parses, and its grid is refused only when the point runs
    text = BASE + "\n[sweep]\ncommand = spread\ngrid.dx = 1e-9, 0.1\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet",
                 "--workers", workers]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: point 000: ")
    assert err[0].endswith("grid would need 22360679777 nodes (cap 4194304); "
                           "coarsen dx, shorten t_final, or lower safety_span")
    assert err[1:] == ["error: 1 of 2 sweep points failed"]


def test_missing_out_directory_rejected(tmp_path, capsys, monkeypatch):
    # --out is the one output path: without it the command line is refused as usage
    monkeypatch.chdir(tmp_path)
    path = _cfg(tmp_path, BASE + SLITS + "\n[sweep]\ncommand = spread\ngrid.dx = 0.1\n")
    for command in ("spread", "doubleslit", "trajectories", "convergence", "sweep"):
        with pytest.raises(SystemExit) as refused:
            main([command, "--config", path])
        assert refused.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_quiet_suppresses_progress(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spread", "--config", _cfg(tmp_path, BASE), "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_unknown_subcommand_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["render", "--config", "x", "--out", "y"])


@pytest.mark.parametrize("command", ["spread", "doubleslit"])
@pytest.mark.parametrize("section, line", [("grid", "points_per_sigma0 = 10"),
                                           ("grid", "nx_cap = 500"),
                                           ("output", "normalize_total = yes"),
                                           ("output", "directory = o")])
def test_removed_key_is_refused_by_name(tmp_path, capsys, monkeypatch, command, section, line):
    # dx is written only as dx, the node cap is fixed, doubleslit always writes p_total,
    # and --out alone names the output directory (here the run's own, relative to the cwd)
    monkeypatch.chdir(tmp_path)
    key = line.partition(" =")[0]
    if section == "output":
        text = BASE + SLITS + f"\n[output]\n{line}\n"
    else:  # BASE ends in [grid]
        text = (BASE.replace("dx = 0.1", line) if key == "points_per_sigma0"
                else BASE + f"{line}\n") + SLITS
    path, out = _cfg(tmp_path, text), tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: unknown key [{section}] {key}\n"
    assert not out.exists()


def test_sweep_non_numeric_value_reported(tmp_path, capsys):
    text = BASE + SLITS + "\n[sweep]\ncommand = doubleslit\nslits.dvx = 0.5, abc\n"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "slits.dvx" in err and "abc" in err
    assert not (tmp_path / "o").exists()


#: A config that runs under every swept key: dvx or v1/v2 are dropped when the other is
#: the key under test.
_FULL = {
    "physical": {"hbar": "1.0", "mass": "1.0"},
    "packet": {"sigma0": "1.0", "center": "0.0"},
    "grid": {"dx": "0.1", "dt": "0.05", "t_final": "1.0", "safety_span": "10.0"},
    "slits": {"separation": "4.0", "dvx": "2.0"},
    "trajectories": {"v_y": "1.0"},
    "output": {"sigma_rel_tol": "0.1", "homothety_tol": "0.1", "fringe_cell_tol": "1.0"},
}
#: The keys a config may not give together with each key.
_RIVALS = {"dvx": ("v1", "v2"), "v1": ("dvx",), "v2": ("dvx",)}
#: Valid text for each numeric key, written in varied forms.
_VALID = {
    "hbar": "5e-1", "mass": "2", "sigma0": "1.5", "center": "-0.25", "dx": "0.125",
    "dt": "2.5e-2", "t_final": "0.50", "safety_span": "12",
    "separation": "3.", "v1": "0.5", "v2": "-.5", "dvx": "1.5e0",
    "v_y": "2.0", "sigma_rel_tol": "1e-2", "homothety_tol": "0.02", "fringe_cell_tol": "0.5",
}
_NUMERIC_KEYS = [(section, key, kind) for section, keys in config.SCHEMA.items()
                 for key, (kind, *_) in keys.items() if kind == "float"]


def _ini(raw):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) + "\n"
                   for section, kv in raw.items())


def _full_raw(section, key):
    raw = {s: dict(kv) for s, kv in _FULL.items()}
    for rival in _RIVALS.get(key, ()):
        raw[section].pop(rival, None)
    return raw


@pytest.mark.parametrize("section, key, kind", _NUMERIC_KEYS)
def test_one_value_sweep_builds_the_plain_config(tmp_path, section, key, kind):
    plain = _full_raw(section, key)
    plain[section][key] = _VALID[key]
    swept = _full_raw(section, key)
    swept["sweep"] = {"command": "spread", f"{section}.{key}": _VALID[key]}
    command, keys, points = config.sweep_points(
        load_raw(_cfg(tmp_path, _ini(swept), "s.cfg")), "run", cli._SWEEP_COMMANDS)
    assert (command, keys) == ("spread", [f"{section}.{key}"])
    [(raw_point, values)] = points
    expected = load_config(_cfg(tmp_path, _ini(plain), "p.cfg"))
    assert build_config(raw_point, expected.origin) == expected
    [value] = values
    assert type(value) is float
    assert value == float(_VALID[key])


#: Text outside the domain of each scalar key that declares one.
_OUT_OF_DOMAIN = {"hbar": "0", "mass": "-1", "sigma0": "-1", "dx": "-0.1", "dt": "0",
                  "t_final": "-1", "safety_span": "4", "separation": "0"}
_REFUSED = [(section, key, text) for section, key, _ in _NUMERIC_KEYS
            for text in ("nan", "inf", "-inf", "abc")
            + ((_OUT_OF_DOMAIN[key],) if key in _OUT_OF_DOMAIN else ())]


def test_every_scalar_domain_has_an_out_of_domain_text():
    assert set(_OUT_OF_DOMAIN) == {key for section, key, _ in _NUMERIC_KEYS
                                   if len(config.SCHEMA[section][key]) > 1}


@pytest.mark.parametrize("section, key, text", _REFUSED)
def test_sweep_refuses_what_its_section_refuses(tmp_path, capsys, section, key, text):
    raw = _full_raw(section, key)
    raw[section][key] = text
    out = tmp_path / "o"
    assert main(["spread", "--config", _cfg(tmp_path, _ini(raw), "p.cfg"), "--out", str(out),
                 "--quiet"]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err
    raw = _full_raw(section, key)
    raw["sweep"] = {"command": "spread", f"{section}.{key}": f"{_VALID[key]}, {text}"}
    assert main(["sweep", "--config", _cfg(tmp_path, _ini(raw), "s.cfg"), "--out", str(out),
                 "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"[sweep] {section}.{key}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["spread", "doubleslit", "trajectories"])
@pytest.mark.parametrize("section, key, text", [
    ("output", "snapshot_times", "0.0, nan, 1.0"),
    ("trajectories", "quantiles", "0.1, nan"),
])
def test_non_finite_list_entry_refused(tmp_path, capsys, command, section, key, text):
    cfg = BASE + SLITS + f"\n[{section}]\n{key} = {text}\n"
    out = tmp_path / "o"
    assert main([command, "--config", _cfg(tmp_path, cfg), "--out", str(out), "--quiet"]) == 1
    # the list's location is named once, not once per enclosing parse
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'run.cfg'}: [{section}] {key}: not finite\n")
    assert not out.exists()


def test_huge_safety_span_reported(tmp_path, capsys):
    # safety_span * sigma(t_final) is finite, but its ratio to dx is not
    text = BASE + "safety_span = 1e308\n"
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid would need inf nodes (cap ")
    assert "Traceback" not in err


def test_huge_dx_reported(tmp_path, capsys):
    text = BASE.replace("dx = 0.1", "dx = 1e308")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'run.cfg'}: [grid] dx = 1e+308 must be at most half of "
                   "[packet] sigma0 = 1; lower dx\n")


@pytest.mark.parametrize("packet, grid, want", [
    ("sigma0 = 1.0", "dx = 1e155\nt_final = 1.0",
     "{cfg}: [grid] dx = 1e+155 must be at most half of [packet] sigma0 = 1; lower dx\n"),
    ("sigma0 = 1.5e-154", "dx = 1e-155\nt_final = 1",
     "grid would need inf nodes (cap 4194304); "),
    ("sigma0 = 1e100", "dx = 1e99\nt_final = 1e308",
     "grid would need 1e+110 nodes (cap 4194304); "),
], ids=["dx_over_the_float_range", "finite_spread_of_tiny_sigma0",
        "step_count_past_the_float_range"])
def test_refusal_names_the_key_and_the_real_cause(tmp_path, packet, grid, want):
    # sigma(1) of the third case is about 3.3e153: finite, so the node cap refuses the run;
    # in the last, t_final / dt overflows, but sigma(t_final) = 5e207 is finite too
    text = f"[physical]\nhbar = 1.0\nmass = 1.0\n[packet]\n{packet}\n[grid]\n{grid}\ndt = 0.05\n"
    status, err = _cli_in_subprocess(tmp_path, text)
    assert status == 1
    assert err.startswith("error: " + want.format(cfg=tmp_path / "run.cfg"))
    assert "Warning" not in err and "Traceback" not in err


def test_default_snapshot_times_of_huge_t_final(tmp_path, capsys):
    # a packet this wide and slow keeps sigma(t_final) finite and the grid small,
    # so the macro-step cap is what refuses the run
    text = ("[physical]\nhbar = 1e-200\n[packet]\nsigma0 = 1e60\n"
            "[grid]\ndt = 1.0\nt_final = 1e308\n")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run would need 1e+308 macro steps")


@pytest.mark.parametrize("sigma0, dx", [("1e200", "1e199"), ("1e-300", "1e-301")],
                         ids=["square_overflows", "square_underflows"])
def test_sigma0_out_of_range_reported(tmp_path, sigma0, dx):
    text = BASE.replace("sigma0 = 1.0", f"sigma0 = {sigma0}").replace("dx = 0.1", f"dx = {dx}")
    status, err = _cli_in_subprocess(tmp_path, text)
    assert status == 1
    assert err.startswith("error: ")
    assert f"[packet] sigma0 must lie in [1.49e-154, 1.34e+154], got {float(sigma0)!r}" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("command, extra", [("spread", ""), ("doubleslit", SLITS),
                                            ("convergence", "")],
                         ids=["spread", "doubleslit", "convergence"])
def test_overflowing_spread_of_huge_t_final_names_the_key(tmp_path, command, extra):
    text = BASE.replace("t_final = 1.0", "t_final = 1e308") + extra
    status, err = _cli_in_subprocess(tmp_path, text, command)
    assert status == 1
    assert err.startswith("error: ")
    assert "[grid] t_final = 1e+308 spreads the packet beyond the float range" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err


@pytest.mark.parametrize("hbar, mass", [("1e308", "1e-308"), ("1e-308", "1e308")],
                         ids=["overflows", "underflows"])
def test_diffusivity_out_of_range_names_hbar_and_mass(tmp_path, capsys, hbar, mass):
    text = BASE.replace("hbar = 1.0", f"hbar = {hbar}").replace("mass = 1.0", f"mass = {mass}")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "[physical] hbar / (2 * mass) must be positive and finite" in err
    assert f"hbar = {float(hbar)!r}, mass = {float(mass)!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, hbar, mass, extra", [
    ("spread", "1", "1e-160", ""),
    ("doubleslit", "1e-16", "5e-324", SLITS),
], ids=["spread", "doubleslit"])
def test_diffusivity_whose_square_overflows_names_hbar_and_mass(tmp_path, capsys, command,
                                                                hbar, mass, extra):
    # t_final = 0 keeps the grid small, so the run reaches the stencil coefficient D**2
    text = (BASE.replace("hbar = 1.0", f"hbar = {hbar}").replace("mass = 1.0", f"mass = {mass}")
            .replace("t_final = 1.0", "t_final = 0") + extra)
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.cfg'}: [physical] hbar / (2 * mass) must be "
                          "positive and finite and at most 1.34e+154, got ")
    assert err.endswith(f"from hbar = {float(hbar)!r}, mass = {float(mass)!r}\n")


@pytest.mark.parametrize("command", ["spread", "trajectories", "convergence"])
@pytest.mark.parametrize("center", ["1e308", "-1e12"])
def test_unresolvable_center_names_center_and_dx(tmp_path, capsys, command, center):
    text = BASE.replace("sigma0 = 1.0\n", f"sigma0 = 1.0\ncenter = {center}\n")
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.cfg'}: [grid] dx = 0.1 is too fine for the "
                          "grid edge x = ")
    assert err.endswith(f"; raise dx or move [packet] center = {float(center):g} toward 0\n")
    assert "Traceback" not in err


def test_far_center_that_nodes_resolve_still_runs(tmp_path):
    text = BASE.replace("sigma0 = 1.0\n", "sigma0 = 1.0\ncenter = -1e11\n")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0


#: A grid whose dx lies below the float spacing at its edges, with a centre of 0; under a
#: node cap that lets its 2e14 nodes through, only the float-spacing refusal stops it.
_FINER_THAN_FLOATS = (BASE.replace("sigma0 = 1.0\n", "sigma0 = 1.0\ncenter = 0\n")
                      .replace("dx = 0.1", "dx = 1e-13"))
#: Every convergence level takes 0 passes (D is 5e-301), so the levels halve dx until
#: the float-spacing refusal stops them.
_FINER_THAN_FLOATS_BY_LEVEL = (BASE.replace("mass = 1.0", "mass = 1e300")
                               .replace("t_final = 1.0", "t_final = 0.1"))


#: How the float-spacing refusal opens and ends for a config's own dx, and for the dx of a
#: refined convergence level, which only fewer refinements can raise.
_CONFIG_DX = ("{cfg}: [grid] ", "raise dx")
_LEVEL_DX = ("convergence level 36 with dx = 1.45519e-12 is refused: ",
             "lower --refinements below 36")


@pytest.mark.parametrize("argv, text, dx, edge, lead_remedy", [
    (["spread"], _FINER_THAN_FLOATS, "1e-13", "-11.1803", _CONFIG_DX),
    (["doubleslit"], _FINER_THAN_FLOATS + SLITS, "1e-13", "-12.1803", _CONFIG_DX),
    (["convergence", "--refinements", "1000000000"], _FINER_THAN_FLOATS_BY_LEVEL,
     "1.45519e-12", "-10", _LEVEL_DX),
], ids=["spread", "doubleslit", "convergence_level"])
def test_dx_finer_than_the_floats_at_the_grid_edge_names_dx_alone(tmp_path, capsys, monkeypatch,
                                                                  argv, text, dx, edge,
                                                                  lead_remedy):
    """Every grid meets the float-spacing refusal before any node array is built (for the
    double slit that array would take 1.87 PiB), and a centre of 0 is not blamed."""
    monkeypatch.setattr(balldiff.core, "NX_CAP", 10**30)
    out = tmp_path / "o"
    lead, remedy = lead_remedy
    assert main([*argv, "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"error: {lead.format(cfg=tmp_path / 'run.cfg')}dx = {dx} is too fine for the grid edge "
        f"x = {edge}, where floats are 1.78e-15 apart; {remedy}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, old, new, search, message, tables", [
    ("doubleslit", "fringe_cell_tol = 1.0", "fringe_cell_tol = 0.01", None,
     "fringe offset 0.469 cells exceeds tolerance 0.01",
     ["fringes.txt", *(f"intensity_{i:03d}.txt" for i in range(5))]),
    # the shipped grid holds crests where the beams overlap, but the fringe search finds none
    ("doubleslit", "", "", lambda *_: np.empty(0), "no interference maxima detected",
     ["fringes.txt", *(f"intensity_{i:03d}.txt" for i in range(5))]),
    ("trajectories", "homothety_tol = 0.01", "homothety_tol = 1e-9", None,
     "homothety deviation 3.679e-04 exceeds tolerance 1e-09",
     ["homothety.txt", "trajectories.txt"]),
], ids=["fringe_offset", "no_maxima", "homothety"])
def test_failed_check_exits_1_and_still_writes_its_tables(tmp_path, capsys, monkeypatch, command,
                                                         old, new, search, message, tables):
    if search is not None:
        monkeypatch.setattr(balldiff.cli, "detect_fringe_maxima", search)
    text = (CONFIGS / f"{command}.cfg").read_text()
    assert old in text
    out = tmp_path / "o"
    assert main([command, "--config", _cfg(tmp_path, text.replace(old, new)), "--out", str(out),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in out.iterdir()) == tables


def test_sweep_refuses_zero_workers(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(CONFIGS / "sweep_dvx.cfg"), "--out", str(out),
                 "--workers", "0"]) == 1
    assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra, reason", [
    ("spread", "\n[output]\nsnapshot_times = 0.5, 0.25\n",
     "[output] snapshot_times must be sorted"),
    ("sweep", "", "[sweep] section is required for sweep"),
    ("sweep", "\n[sweep]\ncommand = convergence\ngrid.dx = 0.1\n",
     "[sweep] command must be one of ['doubleslit', 'spread', 'trajectories'], "
     "got 'convergence'"),
    ("sweep", "\n[sweep]\ncommand = spread\noutput.directory = a, b\n",
     "[sweep] unknown target 'output.directory'"),
    ("sweep", "\n[sweep]\ncommand = spread\noutput.snapshot_times = 0, 1\n",
     "[sweep] cannot sweep floats key 'output.snapshot_times'"),
    ("sweep", "\n[sweep]\ncommand = spread\ngrid.dx = ,\n", "[sweep] grid.dx has no values"),
], ids=["unsorted_snapshot_times", "sweep_without_section", "unknown_sweep_command",
        "swept_directory", "swept_list", "sweep_without_values"])
def test_config_refusal_names_its_section(tmp_path, capsys, command, extra, reason):
    out = tmp_path / "o"
    assert main([command, "--config", _cfg(tmp_path, BASE + extra), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'run.cfg'}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("hbar, mass, dvx, reason", [
    ("1e-308", "625.6", "2", "12.1, and its fringe spacing 2 pi hbar / (mass |dvx|) = 5.02e-311"),
    ("1e307", "1e306", "20", "59, and its fringe spacing 2 pi hbar / (mass |dvx|) = 3.14"),
], ids=["aliased_fringes", "overflowing_phase"])
def test_doubleslit_phase_the_grid_cannot_hold_names_the_keys(tmp_path, capsys, hbar, mass,
                                                               dvx, reason):
    text = (BASE.replace("hbar = 1.0", f"hbar = {hbar}").replace("mass = 1.0", f"mass = {mass}")
            .replace("sigma0 = 1.0", "sigma0 = 1.001")
            + f"\n[slits]\nseparation = 4\ndvx = {dvx}\n")
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.cfg'}: [slits] dvx = {dvx} with [physical] "
                          f"hbar = {float(hbar):g}, mass = {float(mass):g} and [grid] dx = 0.1: "
                          "the phase mass * dvx * x / hbar must be finite out to x = ")
    assert err.endswith(reason + " at least 2 * dx\n")
    assert "Warning" not in err and "Traceback" not in err


_EXTREMES = [0.0, 5e-324, 1e-308, 1e-300, 1e-154, 1e154, 1e300, 1e308, 1.7976931348623157e308]
#: Shipped configs each fuzzed command starts from.
_FUZZ_BASES = {"spread": ("spread", "trajectories", "convergence"),
               "trajectories": ("trajectories", "spread", "convergence"),
               "doubleslit": ("doubleslit",), "convergence": ("convergence",)}
#: Keys that scale as a length, a time and a velocity when lengths scale by 2^k and
#: times by 4^k; hbar / mass, and so the diffusivity, stays fixed.
_LENGTHS = {"sigma0", "center", "dx", "separation"}
_TIMES = {"dt", "t_final", "snapshot_times"}
_VELOCITIES = {"dvx", "v1", "v2", "v_y"}
_FUZZ_DRAWS = 50


def _any_float(rng, near):
    """A finite float of either sign: any bit pattern, an extreme, or a multiple of ``near``."""
    pick = rng.randrange(4)
    if pick == 0:  # every exponent alike
        while not math.isfinite(value := struct.unpack("<d", rng.randbytes(8))[0]):
            pass
        return value
    if pick == 1:
        return rng.choice(_EXTREMES) * rng.choice((1.0, -1.0))
    if pick == 2:
        return near * rng.uniform(-2.0, 2.0)
    return near * 2.0 ** rng.randint(-40, 40)


def _shipped_draw(rng, command):
    """A shipped config scaled by 2^k (times by 4^k) and each value perturbed by up to 3%."""
    raw = load_raw(CONFIGS / f"{rng.choice(_FUZZ_BASES[command])}.cfg")
    k, j = rng.randint(-4, 4), rng.randint(-4, 4)
    t_factor = 4.0**k * rng.uniform(0.97, 1.03)  # t_final and snapshot_times move together
    for section, kv in raw.items():
        for key, text in kv.items():
            values = [float(v) for v in text.split(",")]
            if key in _TIMES:
                values = [v * t_factor for v in values]
            else:
                scale = (2.0**k if key in _LENGTHS else 2.0**-k if key in _VELOCITIES
                         else 2.0**j if key in ("hbar", "mass") else 1.0)
                values = [v * scale * rng.uniform(0.97, 1.03) for v in values]
            kv[key] = ", ".join(repr(v) for v in values)
    return raw


def _wild_draw(rng, command):
    """A shipped draw with about a third of the float keys drawn anew, in or out of their
    domains."""
    raw = _shipped_draw(rng, command)
    for section, key, kind in _NUMERIC_KEYS + [("trajectories", "quantiles", "floats"),
                                              ("output", "snapshot_times", "floats")]:
        if rng.random() > 0.3:
            continue
        if key == "quantiles":
            value = sorted(rng.uniform(-0.3, 1.3) for _ in range(rng.randint(1, 5)))
        elif key == "snapshot_times":
            t_final = float(raw["grid"]["t_final"])
            value = sorted(rng.uniform(-0.2, 1.2) * t_final for _ in range(rng.randint(1, 4)))
        else:
            value = _any_float(rng, float(raw.get(section, {}).get(key, _VALID[key])))
            if rng.random() < 0.5:  # most domains are positive: keep as many draws inside
                value = abs(value)
        kv = raw.setdefault(section, {})
        for rival in _RIVALS.get(key, ()):
            kv.pop(rival, None)
        kv[key] = ", ".join(map(repr, value)) if kind == "floats" else repr(value)
    return raw


def _outside(raw):
    """``[section] key`` of each drawn value outside the domain SCHEMA declares for it."""
    tests = {">": lambda v, b: v > b, ">=": lambda v, b: v >= b,
             "[]": lambda v, lo, hi: lo <= v <= hi, "()": lambda v, lo, hi: lo < v < hi}
    names = []
    for section, kv in raw.items():
        for key, text in kv.items():
            kind, *domain = config.SCHEMA[section][key]
            if domain and not all(tests[domain[0]](float(v), *domain[1:])
                                  for v in text.split(",")):
                names.append(f"[{section}] {key}")
    return names


def _last_snapshot_masses(cfg_path, out):
    """Sum times dx of each density column (p, or p1 and p2) of the last snapshot table a
    spread or doubleslit run wrote into ``out``; empty for the other commands."""
    tables = sorted(out.glob("field_*.txt")) + sorted(out.glob("intensity_*.txt"))
    if not tables:
        return {}
    names, data = read_table(tables[-1])
    dx = load_config(cfg_path).dx
    return {name: float(data[:, names.index(name)].sum() * dx)
            for name in names if name in ("p", "p1", "p2")}


@pytest.mark.parametrize("command", ["spread", "trajectories", "doubleslit", "convergence"])
def test_any_schema_values_exit_cleanly(monkeypatch, command):
    """Half the draws perturb a shipped config, half also redraw keys anywhere. Every draw
    exits 0, with each density of its last snapshot within 1e-6 of unit mass, or exits 1
    with one error line, which names a key drawn outside its domain when there is one."""
    # runs stay small: at most 4,096 nodes and 2^14 macro steps or stencil passes
    monkeypatch.setattr(balldiff.core, "NX_CAP", 4096)
    monkeypatch.setattr(stepper, "MAX_PASSES", 2**14)
    monkeypatch.setattr(balldiff.core, "MAX_STEPS", 2**14)
    rng = random.Random(f"fuzz {command}")
    completed = 0
    for draw in range(_FUZZ_DRAWS):
        raw = (_shipped_draw if draw % 2 else _wild_draw)(rng, command)
        # in-process, warnings are recorded here, not printed: add them to what stderr shows
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            path, out = _cfg(Path(tmp), _ini(raw)), Path(tmp) / "o"
            status = main([command, "--config", path, "--out", str(out), "--quiet"])
            masses = _last_snapshot_masses(path, out) if status == 0 else {}
        stderr = err.getvalue() + "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught)
        context = f"{_ini(raw)}\n{stderr}"
        assert "Traceback" not in stderr and "RuntimeWarning" not in stderr, context
        outside = _outside(raw)
        if status == 0:
            assert not outside and not stderr, context
            # a completed run holds every density it writes: at most the leak threshold is lost
            assert all(abs(m - 1.0) <= 1e-6 for m in masses.values()), (context, masses)
            completed += 1
            continue
        assert status == 1, context
        [line] = stderr.splitlines()
        assert line.startswith("error: "), context
        assert not outside or any(name in line for name in outside), context
    assert completed >= _FUZZ_DRAWS // 4, completed


def test_import_leaves_pool_argparse_and_traceback_unloaded():
    proc = _fresh_interpreter("-c", (
        "import sys, balldiff.cli; "
        "print(*[m for m in ('concurrent.futures', 'multiprocessing', 'argparse', 'traceback') "
        "if m in sys.modules])"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_sweep_failed_point_writes_its_reason(tmp_path):
    # point 000 parses, and its grid is refused only when the point runs
    text = BASE + "\n[sweep]\ncommand = spread\ngrid.dx = 1e-9, 0.1\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    reason = (out / "point_000" / "error.txt").read_text()
    assert reason.endswith("grid would need 22360679777 nodes (cap 4194304); "
                           "coarsen dx, shorten t_final, or lower safety_span\n")
    assert not (out / "point_001" / "error.txt").exists()
    assert (out / "point_001" / "sigma_timeseries.txt").exists()


def test_sweep_point_unexpected_exception_keeps_traceback(tmp_path, monkeypatch, capsys):
    def broken_runner(cfg, out_dir, *, quiet=False):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(cli._SWEEP_COMMANDS, "spread", (broken_runner, "max_sigma_rel_error"))
    text = BASE + "\n[sweep]\ncommand = spread\ngrid.t_final = 0.5, 1.0\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    for index in (0, 1):
        saved = (out / f"point_{index:03d}" / "error.txt").read_text()
        assert saved.startswith("Traceback (most recent call last):")
        assert saved.endswith("RuntimeError: runner broke\n")
    _, rows = read_table(out / "manifest.txt")
    assert list(rows[:, 2]) == [1.0, 1.0]
    assert np.isnan(rows[:, 3]).all()
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: point 000: RuntimeError: runner broke (traceback in ")
    assert err[-1] == "error: 2 of 2 sweep points failed"


def test_sweep_without_failures_writes_no_error_file(tmp_path):
    text = BASE + "\n[sweep]\ncommand = spread\ngrid.t_final = 0.5, 1.0\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    assert not list(out.rglob("error.txt"))


def test_sweep_workers_capped_at_point_count(tmp_path, monkeypatch):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor and runs the points in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    text = BASE + "\n[sweep]\ncommand = spread\ngrid.t_final = 0.5, 1.0\n"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet", "--workers", "10000"]) == 0
    assert started == [2]
    # one point needs no pool at all
    text = BASE + "\n[sweep]\ncommand = spread\ngrid.t_final = 0.5\n"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "p"),
                 "--quiet", "--workers", "10000"]) == 0
    assert started == [2]


def _homothety_reference(cfg, traj):
    """Rows of homothety.txt, one flux line and one time at a time."""
    center = cfg.state.center
    sigma_ref = analytic_sigma(traj.times[0], cfg.state.sigma0, cfg.params.diffusivity)
    rows_q, rows_t, rows_exp, rows_act, rows_dev = [], [], [], [], []
    for i, q in enumerate(traj.quantiles):
        offset0 = traj.paths[i, 0] - center
        if abs(offset0) < 1e-9 * cfg.state.sigma0:
            continue  # median: homothety ratio is 0/0
        for k, t in enumerate(traj.times):
            scale = analytic_sigma(t, cfg.state.sigma0, cfg.params.diffusivity) / sigma_ref
            expected = center + offset0 * scale
            actual = traj.paths[i, k]
            rows_q.append(q)
            rows_t.append(t)
            rows_exp.append(expected)
            rows_act.append(actual)
            rows_dev.append(abs(actual - expected) / abs(offset0 * scale))
    return [rows_q, rows_t, rows_exp, rows_act, rows_dev]


@pytest.mark.parametrize("extra", [
    "[packet]\nsigma0 = 1.0\ncenter = 0.73\n",
    "[packet]\nsigma0 = 1.0\n[trajectories]\nquantiles = 0.05, 0.3, 0.5, 0.9\n",
    "[packet]\nsigma0 = 1.0\n[trajectories]\nquantiles = 0.5\n",
], ids=["off_centre", "with_median", "median_only"])
def test_homothety_table_matches_per_row_reference(tmp_path, extra):
    text = BASE.replace("[packet]\nsigma0 = 1.0\n", extra)
    out = tmp_path / "out"
    assert main(["trajectories", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 0
    cfg = load_config(tmp_path / "run.cfg")
    grid = single_beam_grid(cfg)
    snaps, _ = evolve(sample_gaussian_field(cfg.state, grid), grid, cfg.state, cfg.params,
                      cfg.snapshot_times)
    rows = _homothety_reference(cfg, trace_flux_lines(snaps, grid, cfg.quantiles))
    write_table(tmp_path / "reference.txt",
                ["quantile", "t", "x_expected", "x_actual", "rel_dev"], rows)
    assert (out / "homothety.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    expected_worst = max(rows[4]) if rows[4] else 0.0
    assert cli._point_metric("trajectories", cfg, out) == expected_worst
    if cfg.quantiles == (0.5,):
        assert rows[4] == []


def test_convergence_table_matches_per_level_reference(tmp_path):
    text = BASE.replace("dx = 0.1", "dx = 0.2").replace("sigma0 = 1.0\n",
                                                        "sigma0 = 1.0\ncenter = 0.3\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", _cfg(tmp_path, text), "--out", str(out),
                 "--refinements", "2", "--quiet"]) == 0
    cfg = load_config(tmp_path / "run.cfg")
    sigma_end = analytic_sigma(cfg.t_final, cfg.state.sigma0, cfg.params.diffusivity)
    levels, dxs, passes, errors = [0, 1, 2], [], [], []
    for level in levels:
        dx = cfg.dx / 2**level
        grid = grid_spanning(cfg.state.center, cfg.safety_span * sigma_end, dx, dt=cfg.dt,
                             t_final=cfg.t_final)
        snaps, report = evolve(sample_gaussian_field(cfg.state, grid), grid, cfg.state,
                               cfg.params, [cfg.t_final])
        exact = gaussian_pdf(grid.x, cfg.state.center, sigma_end)
        dxs.append(dx)
        passes.append(report.total_substeps)
        errors.append(float(np.max(np.abs(snaps[-1].values - exact))))
    write_table(tmp_path / "reference.txt", ["level", "dx", "passes", "linf_error"],
                [levels, dxs, passes, errors])
    assert (out / "convergence.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_fringe_spacing_of_huge_hbar_and_mass_runs(tmp_path, capsys):
    # 2 pi hbar alone overflows; the spacing 2 pi (hbar / (mass |dvx|)) does not
    text = (BASE.replace("hbar = 1.0", "hbar = 1e308").replace("mass = 1.0", "mass = 1e307")
            .replace("t_final = 1.0", "t_final = 0")
            + "\n[slits]\nseparation = 6\ndvx = 1\n")
    out = tmp_path / "o"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    # the n = 1 crest at x = 62.8 lies off the grid, so the run has no fringes
    assert "(spacing 62.8319 > half-width" in capsys.readouterr().out
    assert (out / "fringes.txt").exists()


@pytest.mark.parametrize("command", ["spread", "sweep"])
@pytest.mark.parametrize("target", ["file", "file/sub"], ids=["file", "under_file"])
def test_output_path_that_is_a_file_reported(tmp_path, capsys, command, target):
    (tmp_path / "file").write_text("not a directory\n")
    text = BASE + ("\n[sweep]\ncommand = spread\ngrid.t_final = 0.5\n" if command == "sweep" else "")
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(tmp_path / target),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert str(tmp_path / "file") in err and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_out_of_memory_reported(tmp_path, capsys, monkeypatch):
    def sample(*_):  # stands in for the allocation of the grid's 2e11 nodes
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape "
                          "(200000000001,) and data type int64")

    monkeypatch.setattr(cli, "sample_gaussian_field", sample)
    monkeypatch.setattr(balldiff.core, "NX_CAP", 10**12)
    text = (BASE.replace("dx = 0.1", "dx = 1e-10").replace("t_final = 1.0", "t_final = 0")
            + "[output]\nsnapshot_times = 0\n")
    out = tmp_path / "o"
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 1.46 TiB for an array with shape "
        "(200000000001,) and data type int64; coarsen dx\n")
    assert not out.exists()


# a span of 5 keeps every grid here under the node cap (convergence's level 0:
# 5.0e5 nodes), so the pass cap is what refuses each run
_PASS_CAP = (BASE.replace("dx = 0.1", "dx = 0.001").replace("dt = 0.05", "dt = 0.1")
             .replace("t_final = 1.0", "t_final = 100\nsafety_span = 5.0"))


@pytest.mark.parametrize("command", ["spread", "trajectories", "convergence", "doubleslit"])
@pytest.mark.parametrize("text, nx_cap, reason", [(BASE, 5, "nodes (cap 5)"),
                                                  (_PASS_CAP, None, "stencil passes (cap ")],
                         ids=["nx_cap", "pass_cap"])
def test_refused_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch, command, text,
                                                nx_cap, reason):
    if nx_cap is not None:
        monkeypatch.setattr(balldiff.core, "NX_CAP", nx_cap)
    if command == "doubleslit":
        text += SLITS
    out = tmp_path / "o"
    assert main([command, "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("spread", "spread"), ("trajectories", "trajectories"), ("doubleslit", "doubleslit"),
    ("convergence", "convergence"), ("sweep", "sweep_dvx"),
])
def test_shipped_configs_write_the_same_bytes_on_both_kernels(tmp_path, monkeypatch,
                                                              compiled_stencil, command, config):
    """Each backend whole: the numpy stencil and table writer, then the compiled ones."""
    trees = []
    for name, kernel, format_rows in [("python", select_kernel("python")[0], None),
                                      ("compiled", compiled_stencil, compiled_stencil.format_rows)]:
        monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
        monkeypatch.setattr(tables, "format_rows", format_rows)
        out = tmp_path / name
        assert main([command, "--config", str(CONFIGS / f"{config}.cfg"), "--out", str(out),
                     "--quiet"]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert trees[0] and trees[0] == trees[1]


@pytest.mark.parametrize("command, text, summary", [
    ("spread", BASE, " snapshots on "),
    ("trajectories", BASE, "trajectories: "),
    ("doubleslit", BASE + SLITS, "doubleslit: "),
    ("convergence", BASE, "convergence: observed orders "),
    ("sweep", BASE + "\n[sweep]\ncommand = spread\npacket.sigma0 = 1.0\n", "sweep: 1 points, "),
], ids=["spread", "trajectories", "doubleslit", "convergence", "sweep"])
def test_summary_line_names_the_kernel_backend(tmp_path, capsys, command, text, summary):
    main([command, "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")])
    lines = [line for line in capsys.readouterr().out.splitlines() if summary in line]
    assert len(lines) == 1 and lines[0].endswith(f" [{balldiff.kernel_backend()} kernel]")
    # acceptance 8 compares output trees byte for byte, so the backend stays out of them
    assert not any(b"kernel" in p.read_bytes() for p in (tmp_path / "o").rglob("*.txt"))
