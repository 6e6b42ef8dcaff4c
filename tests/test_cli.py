"""CLI runners end-to-end: files, exit codes, determinism, sweeps."""
import concurrent.futures
import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import balldiff
import balldiff.cli as cli
import balldiff.stepper as stepper
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
    text = BASE + "\n[output]\nsigma_rel_tol = 1e-12\n"
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


def test_doubleslit_normalized_total_column(tmp_path):
    text = BASE + SLITS + "\n[output]\nnormalize_total = yes\n"
    out = tmp_path / "out"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    names, data = read_table(out / "intensity_000.txt")
    assert names[-1] == "p_total_normalized"
    x, total = data[:, 1], data[:, 4]
    assert np.trapezoid(total, x) == pytest.approx(1.0, rel=1e-12)


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


def test_convergence_rejects_single_refinement(tmp_path, capsys):
    assert main(["convergence", "--config", _cfg(tmp_path, BASE), "--out",
                 str(tmp_path / "o"), "--refinements", "1"]) == 1
    assert "refinements" in capsys.readouterr().err


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
    # second point exceeds an impossible tolerance, first passes
    text = (BASE + "\n[output]\nsigma_rel_tol = 0.01\n"
            "\n[sweep]\ncommand = spread\noutput.sigma_rel_tol = 0.01, 1e-15\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 1
    _, rows = read_table(out / "manifest.txt")
    assert list(rows[:, 2]) == [0.0, 1.0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_failed_point_reports_its_reason(tmp_path, capsys, workers):
    text = BASE.replace("dx = 0.1\n", "") + (
        "\n[sweep]\ncommand = spread\ngrid.points_per_sigma0 = 3, 16\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet",
                 "--workers", workers]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: point 000: ")
    assert err[0].endswith("points_per_sigma0 must be >= 8, got 3")
    assert err[1:] == ["error: 1 of 2 sweep points failed"]


def test_out_falls_back_to_configured_directory(tmp_path):
    target = tmp_path / "from_config"
    text = BASE + f"\n[output]\ndirectory = {target}\n"
    assert main(["spread", "--config", _cfg(tmp_path, text)]) == 0
    assert (target / "sigma_timeseries.txt").exists()


def test_missing_out_directory_rejected(tmp_path, capsys):
    assert main(["spread", "--config", _cfg(tmp_path, BASE)]) == 1
    assert "output directory" in capsys.readouterr().err


def test_quiet_suppresses_progress(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spread", "--config", _cfg(tmp_path, BASE), "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_unknown_subcommand_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["render", "--config", "x", "--out", "y"])


@pytest.mark.parametrize("pps", [0, 3])
def test_points_per_sigma0_below_minimum_reported(tmp_path, capsys, pps):
    text = BASE.replace("dx = 0.1", f"points_per_sigma0 = {pps}")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "points_per_sigma0 must be >= 8" in err
    assert not (tmp_path / "o").exists()


def test_sweep_non_numeric_value_reported(tmp_path, capsys):
    text = BASE + SLITS + "\n[sweep]\ncommand = doubleslit\nslits.dvx = 0.5, abc\n"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "slits.dvx" in err and "abc" in err
    assert not (tmp_path / "o").exists()


#: A config that runs under every swept key: dx or points_per_sigma0, and dvx or v1/v2,
#: are each dropped when the other is the key under test.
_FULL = {
    "physical": {"hbar": "1.0", "mass": "1.0"},
    "packet": {"sigma0": "1.0", "center": "0.0"},
    "grid": {"dx": "0.1", "dt": "0.05", "t_final": "1.0", "safety_span": "10.0",
             "nx_cap": "100000"},
    "slits": {"separation": "4.0", "dvx": "2.0"},
    "trajectories": {"v_y": "1.0"},
    "output": {"sigma_rel_tol": "0.1", "homothety_tol": "0.1", "fringe_cell_tol": "1.0"},
}
_EXCLUSIVE = {"points_per_sigma0": "dx", "v1": "dvx", "v2": "dvx"}
#: Valid text for each numeric key, written in varied forms.
_VALID = {
    "hbar": "5e-1", "mass": "2", "sigma0": "1.5", "center": "-0.25", "dx": "0.125",
    "points_per_sigma0": "10", "dt": "2.5e-2", "t_final": "0.50", "safety_span": "12",
    "nx_cap": "5000", "separation": "3.", "v1": "0.5", "v2": "-.5", "dvx": "1.5e0",
    "v_y": "2.0", "sigma_rel_tol": "1e-2", "homothety_tol": "0.02", "fringe_cell_tol": "0.5",
}
_NUMERIC_KEYS = [(section, key, kind) for section, keys in config.SCHEMA.items()
                 for key, kind in keys.items() if kind in ("float", "int")]


def _ini(raw):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) + "\n"
                   for section, kv in raw.items())


def _full_raw(section, key):
    raw = {s: dict(kv) for s, kv in _FULL.items()}
    raw[section].pop(_EXCLUSIVE.get(key), None)
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
    assert type(value) is {"int": int, "float": float}[kind]
    assert value == float(_VALID[key])


_REFUSED = [(section, key, text) for section, key, kind in _NUMERIC_KEYS
            for text in (("8.0", "1e3", "abc", "1" + "0" * 400) if kind == "int"
                         else ("nan", "inf", "-inf", "abc"))]


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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"[{section}] {key}: not finite" in err
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
    assert err.startswith("error: dx must be at most ")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("command, extra", [("spread", ""), ("doubleslit", SLITS)],
                         ids=["spread", "doubleslit"])
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
    assert err.startswith(f"error: {tmp_path / 'run.cfg'}: [packet] center = {float(center):g} "
                          "lies too far from 0 for [grid] dx = 0.1: floats there are ")
    assert "Traceback" not in err


def test_far_center_that_nodes_resolve_still_runs(tmp_path):
    text = BASE.replace("sigma0 = 1.0\n", "sigma0 = 1.0\ncenter = -1e11\n")
    assert main(["spread", "--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0


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
    assert err.endswith(reason + " finite and at least 2 * dx\n")
    assert "Warning" not in err and "Traceback" not in err


_EXTREMES = [0.0, 5e-324, 1e-308, 1e-300, 1e-154, 1e154, 1e300, 1e308, 1.7976931348623157e308]
# any finite float, the float range's edges of either sign, and magnitudes a run can take
_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(_EXTREMES + [-v for v in _EXTREMES])
           | st.floats(min_value=1e-3, max_value=1e3))
# (hbar, mass, sigma0, center) of runs that complete on both commands
_COMPLETING = [(1.0, 1.0, 1.0, 0.0), (0.5, 2.0, 0.7, -1.3)]


@pytest.mark.parametrize("command", ["spread", "doubleslit"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(hbar=_FINITE, mass=_FINITE, sigma0=_FINITE, center=_FINITE)
@example(*_COMPLETING[0])
@example(*_COMPLETING[1])
def test_any_physical_and_packet_values_exit_cleanly(command, hbar, mass, sigma0, center):
    text = (f"[physical]\nhbar = {hbar!r}\nmass = {mass!r}\n"
            f"[packet]\nsigma0 = {sigma0!r}\ncenter = {center!r}\n"
            "[grid]\ndx = 0.1\ndt = 0.05\nt_final = 1.0\nnx_cap = 1001\n"
            "[output]\nsnapshot_times = 0, 1\n")
    if command == "doubleslit":
        text += "[slits]\nseparation = 4\ndvx = 2\n"
    # in-process, warnings are recorded here, not printed: add them to what stderr shows
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        status = main([command, "--config", _cfg(Path(tmp), text), "--out",
                       str(Path(tmp) / "o"), "--quiet"])
    stderr = err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert status in (0, 1), stderr
    assert "Traceback" not in stderr and "RuntimeWarning" not in stderr, stderr
    if (hbar, mass, sigma0, center) in _COMPLETING:
        assert status == 0, stderr


def test_import_leaves_pool_argparse_and_traceback_unloaded():
    proc = _fresh_interpreter("-c", (
        "import sys, balldiff.cli; "
        "print(*[m for m in ('concurrent.futures', 'multiprocessing', 'argparse', 'traceback') "
        "if m in sys.modules])"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_sweep_failed_point_writes_its_reason(tmp_path):
    text = BASE.replace("dx = 0.1\n", "") + (
        "\n[sweep]\ncommand = spread\ngrid.points_per_sigma0 = 3, 16\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", _cfg(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    reason = (out / "point_000" / "error.txt").read_text()
    assert reason.endswith("points_per_sigma0 must be >= 8, got 3\n")
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
    levels, dxs, dts, errors = [0, 1, 2], [], [], []
    for level in levels:
        dx, dt = cfg.dx / 2**level, cfg.dt / 4**level
        grid = grid_spanning(cfg.state.center, cfg.safety_span * sigma_end, dx, dt=dt,
                             t_final=cfg.t_final, nx_cap=cfg.nx_cap)
        snaps, _ = evolve(sample_gaussian_field(cfg.state, grid), grid, cfg.state,
                          cfg.params, [cfg.t_final])
        exact = gaussian_pdf(grid.x, cfg.state.center, sigma_end)
        dxs.append(dx)
        dts.append(dt)
        errors.append(float(np.max(np.abs(snaps[-1].values - exact))))
    write_table(tmp_path / "reference.txt", ["level", "dx", "dt", "linf_error"],
                [levels, dxs, dts, errors])
    assert (out / "convergence.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_fringe_spacing_of_huge_hbar_and_mass_runs(tmp_path, capsys):
    # 2 pi hbar alone overflows; the spacing 2 pi (hbar / (mass |dvx|)) does not
    text = (BASE.replace("hbar = 1.0", "hbar = 1e308").replace("mass = 1.0", "mass = 1e307")
            .replace("t_final = 1.0", "t_final = 0\nnx_cap = 100001")
            + "\n[slits]\nseparation = 6\ndvx = 1\n")
    out = tmp_path / "o"
    assert main(["doubleslit", "--config", _cfg(tmp_path, text), "--out", str(out)]) == 0
    assert "spacing 62.8319," in capsys.readouterr().out
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


def test_configured_directory_that_is_a_file_reported(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    text = BASE + f"\n[output]\ndirectory = {tmp_path / 'file'}\n"
    assert main(["spread", "--config", _cfg(tmp_path, text), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert "File exists" in err and "Traceback" not in err


_NX_CAP_5 = BASE + "nx_cap = 5\n"
_PASS_CAP = (BASE.replace("dx = 0.1", "dx = 0.001").replace("dt = 0.05", "dt = 0.1")
             .replace("t_final = 1.0", "t_final = 100"))


@pytest.mark.parametrize("command", ["spread", "trajectories", "convergence", "doubleslit"])
@pytest.mark.parametrize("text, reason", [(_NX_CAP_5, "nodes (cap 5)"),
                                          (_PASS_CAP, "stencil passes (cap ")],
                         ids=["nx_cap", "pass_cap"])
def test_refused_run_leaves_no_output_directory(tmp_path, capsys, command, text, reason):
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
    trees = []
    for name, kernel in [("python", select_kernel("python")[0]), ("compiled", compiled_stencil)]:
        monkeypatch.setattr(stepper, "apply_passes", kernel.apply_passes)
        out = tmp_path / name
        assert main([command, "--config", str(CONFIGS / f"{config}.cfg"), "--out", str(out),
                     "--quiet"]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert trees[0] and trees[0] == trees[1]
