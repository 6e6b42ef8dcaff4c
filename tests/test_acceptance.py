"""Acceptance gate: eight end-to-end checks with hard tolerances.

Each test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them. The checks cover
the spreading law, the ballistic variance exponent, conservation, the
scheme's spatial order, the two-beam interference rule, flux-line
homothety, the velocity asymptote, and byte-level determinism.
"""
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from balldiff import (
    GaussianState,
    SlitConfig,
    analytic_sigma,
    detect_fringe_maxima,
    diffusion_coefficient,
    evolve,
    fringe_spacing,
    grid_spanning,
    make_physical_params,
    required_half_width,
    sample_gaussian_field,
    second_moment_sigma,
    simulate_double_slit,
    trace_flux_lines,
    velocity_field,
)
from balldiff.cli import run_convergence, run_doubleslit, run_spread, run_sweep
from balldiff.config import load_config, load_raw, single_beam_grid
from balldiff.tables import read_table, write_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, name: str, failures: list[str]) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _piecewise_linear_integral(x: np.ndarray, v: np.ndarray, dx: float,
                               a: float, b: float) -> float:
    """Integral of the piecewise-linear density between two positions."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dx)])

    def antiderivative(pos: float) -> float:
        i = int(np.clip(np.searchsorted(x, pos, side="right") - 1, 0, x.size - 2))
        f = (pos - x[i]) / dx
        return cum[i] + dx * (v[i] * f + 0.5 * (v[i + 1] - v[i]) * f * f)

    return antiderivative(b) - antiderivative(a)


@pytest.fixture(scope="module")
def spread_run(tmp_path_factory):
    """One timed run of the shipped spreading config, shared across checks."""
    out = tmp_path_factory.mktemp("spread")
    cfg = load_config(CONFIGS / "spread.cfg")
    start = time.perf_counter()
    status = run_spread(cfg, out, quiet=True)
    elapsed = time.perf_counter() - start
    return cfg, out, status, elapsed


def test_1_spreading_law(spread_run):
    """sigma(t) tracks sigma0 sqrt(1 + D^2 t^2 / sigma0^4) within 0.5%."""
    cfg, out, status, elapsed = spread_run
    failures: list[str] = []
    _check(failures, status == 0, f"run exited with status {status}")
    names, data = read_table(out / "sigma_timeseries.txt")
    _check(failures, data.shape[0] == len(cfg.snapshot_times),
           f"expected {len(cfg.snapshot_times)} snapshots, got {data.shape[0]}")
    t = data[:, names.index("t")]
    measured = data[:, names.index("sigma_simulated")]
    exact = analytic_sigma(t, cfg.state.sigma0, cfg.params.diffusivity)
    worst = float(np.max(np.abs(measured - exact) / exact))
    _check(failures, worst <= 0.005, f"sigma rel error {worst:.3e} > 0.5%")
    _check(failures, elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s")
    _report(1, "spreading-law", failures)


def test_2_ballistic_exponent():
    """Log-log variance slope is 2.00 +/- 0.02 in the late-time window."""
    failures: list[str] = []
    params = make_physical_params(1.0, 1.0)
    state = GaussianState(sigma0=1.0)
    sample_times = np.linspace(10.0, 100.0, 25)

    start = time.perf_counter()
    grid = grid_spanning(0.0, 10.0 * analytic_sigma(100.0, 1.0, 0.5), 0.125,
                         dt=0.1, t_final=100.0)
    field = sample_gaussian_field(state, grid)
    snaps, _ = evolve(field, grid, state, params, sample_times)
    t = np.array([s.time for s in snaps])
    variance = np.array([second_moment_sigma(s, grid) ** 2 for s in snaps])
    slope = float(np.polyfit(np.log(t), np.log(variance), 1)[0])
    elapsed = time.perf_counter() - start

    _check(failures, abs(slope - 2.0) <= 0.02, f"slope {slope:.4f} not 2.00 +/- 0.02")
    k = diffusion_coefficient(sample_times, 1.0, 0.5) / sample_times
    worst_k = float(np.max(np.abs(k - 0.25)))
    _check(failures, worst_k <= 1e-10 * 0.25, f"D_t / t off D^2/sigma0^2 by {worst_k:.3e}")
    _check(failures, elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s")
    _report(2, "ballistic-exponent", failures)


def test_3_conservation(spread_run):
    """Mass drift <= 1e-9, boundary leak < 1e-12, density never negative."""
    cfg, out, status, _ = spread_run
    failures: list[str] = []
    names, report = read_table(out / "stepper_report.txt")
    drift = report[0, names.index("mass_drift")]
    leak = report[0, names.index("boundary_leak")]
    _check(failures, drift <= 1e-9, f"mass drift {drift:.3e} > 1e-9")
    _check(failures, leak < 1e-12, f"boundary leak {leak:.3e} >= 1e-12")

    fields = sorted(out.glob("field_*.txt"))
    _check(failures, len(fields) == len(cfg.snapshot_times), "missing field files")
    mass0 = None
    for path in fields:
        fnames, data = read_table(path)
        p = data[:, fnames.index("p")]
        _check(failures, float(p.min()) >= 0.0, f"{path.name} has negative cells")
        mass = float(p.sum() * cfg.dx)
        mass0 = mass if mass0 is None else mass0
        _check(failures, abs(mass - mass0) / mass0 <= 1e-9,
               f"{path.name} mass deviates {abs(mass - mass0) / mass0:.3e}")
    _report(3, "conservation", failures)


def test_4_scheme_order(tmp_path):
    """Three dx halvings show second-order convergence, within [1.7, 2.3]."""
    failures: list[str] = []
    cfg = load_config(CONFIGS / "convergence.cfg")
    start = time.perf_counter()
    status = run_convergence(cfg, tmp_path, refinements=3, quiet=True)
    elapsed = time.perf_counter() - start
    _check(failures, status == 0, f"run exited with status {status}")
    names, data = read_table(tmp_path / "orders.txt")
    orders = data[:, names.index("order")]
    _check(failures, orders.size == 3, f"expected 3 orders, got {orders.size}")
    for level, order in zip(data[:, 0], orders):
        _check(failures, 1.7 <= order <= 2.3,
               f"order {order:.3f} at level {int(level)} outside [1.7, 2.3]")
    _check(failures, elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s")
    _report(4, "scheme-order", failures)


def test_5_interference_rule(tmp_path):
    """Degenerate coherent sum, fringe positions, and spacing halving."""
    failures: list[str] = []
    params = make_physical_params(1.0, 1.0)
    start = time.perf_counter()

    # equal-velocity beams: total collapses to (sqrt p1 + sqrt p2)^2
    slits0 = SlitConfig(separation=4.0, sigma0=1.0, v1=0.0, v2=0.0)
    grid0 = grid_spanning(0.0, required_half_width(slits0, params, 1.0, 10.0), 1.0 / 20,
                          dt=0.01, t_final=1.0)
    imap0 = simulate_double_slit(slits0, grid0, params, [0.0, 1.0])
    coherent = (np.sqrt(imap0.p1) + np.sqrt(imap0.p2)) ** 2
    gap = float(np.max(np.abs(imap0.p_total - coherent)))
    _check(failures, gap <= 1e-12, f"dvx=0 total deviates {gap:.3e} from coherent sum")

    # shipped run: every detected maximum within one cell of 2 pi n hbar / (m dvx)
    cfg = load_config(CONFIGS / "doubleslit.cfg")
    out = tmp_path / "doubleslit"
    status = run_doubleslit(cfg, out, quiet=True)
    _check(failures, status == 0, f"doubleslit run exited with status {status}")
    names, fringes = read_table(out / "fringes.txt")
    _check(failures, fringes.shape[0] >= 3, f"only {fringes.shape[0]} maxima found")
    if fringes.shape[0]:
        worst_cells = float(np.max(np.abs(fringes[:, names.index("error_cells")])))
        _check(failures, worst_cells <= 1.0,
               f"maximum {worst_cells:.2f} cells from analytic position")

    # measured fringe spacing halves when the velocity split doubles
    measured = []
    for dvx in (0.5, 1.0, 2.0):
        slits = SlitConfig(separation=6.0, sigma0=1.0, v1=0.5 * dvx, v2=-0.5 * dvx)
        grid = grid_spanning(0.0, required_half_width(slits, params, 24.0, 10.0), 1.0 / 8,
                             dt=0.01, t_final=24.0)
        imap = simulate_double_slit(slits, grid, params, [24.0])
        hits = detect_fringe_maxima(grid.x, imap.p1[-1], imap.p2[-1], imap.p_total[-1])
        _check(failures, hits.size >= 3, f"dvx={dvx}: only {hits.size} maxima")
        spacing = float(np.median(np.diff(hits))) if hits.size >= 2 else np.nan
        expected = fringe_spacing(params, dvx)
        _check(failures, abs(spacing - expected) <= 2.0 * grid.dx,
               f"dvx={dvx}: spacing {spacing:.4f} vs analytic {expected:.4f}")
        measured.append(spacing)
    for wide, narrow in zip(measured, measured[1:]):
        ratio = wide / narrow
        _check(failures, abs(ratio - 2.0) <= 0.05,
               f"spacing ratio {ratio:.3f} not 2 after doubling dvx")

    # the sweep tooling reports the same halving in its manifest
    sweep_path = CONFIGS / "sweep_dvx.cfg"
    status = run_sweep(load_raw(sweep_path), str(sweep_path), tmp_path / "sweep",
                       quiet=True)
    _check(failures, status == 0, f"sweep exited with status {status}")
    mnames, manifest = read_table(tmp_path / "sweep" / "manifest.txt")
    spacing_col = manifest[:, mnames.index("fringe_spacing")]
    for wide, narrow in zip(spacing_col, spacing_col[1:]):
        _check(failures, abs(wide / narrow - 2.0) <= 1e-12,
               f"manifest spacing ratio {wide / narrow!r} not 2")

    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s")
    _report(5, "interference-rule", failures)


def test_6_flux_lines():
    """Decile paths scale homothetically, carry constant flux, never cross."""
    failures: list[str] = []
    cfg = load_config(CONFIGS / "trajectories.cfg")
    start = time.perf_counter()
    grid = single_beam_grid(cfg)
    field = sample_gaussian_field(cfg.state, grid)
    snaps, _ = evolve(field, grid, cfg.state, cfg.params, cfg.snapshot_times)
    traj = trace_flux_lines(snaps, grid, cfg.quantiles)

    sigma = analytic_sigma(traj.times, cfg.state.sigma0, cfg.params.diffusivity)
    scale = sigma / sigma[0]
    for i, q in enumerate(traj.quantiles):
        if abs(q - 0.5) < 1e-12:
            # the median's homothety ratio is 0/0; it must simply stay put
            worst = float(np.max(np.abs(traj.paths[i])))
            _check(failures, worst <= grid.dx, f"median wanders {worst:.3e}")
            continue
        ratio = traj.paths[i] / traj.paths[i, 0]
        dev = float(np.max(np.abs(ratio / scale - 1.0)))
        _check(failures, dev <= 0.01, f"q={q:g}: homothety off by {dev:.3e}")

    peak = max(float(s.values.max()) for s in snaps)
    budget = grid.dx * peak
    for i in range(traj.quantiles.size - 1):
        fluxes = [
            _piecewise_linear_integral(grid.x, snap.values, grid.dx,
                                       traj.paths[i, k], traj.paths[i + 1, k])
            for k, snap in enumerate(snaps)
        ]
        wobble = max(fluxes) - min(fluxes)
        _check(failures, wobble <= budget,
               f"flux between q={traj.quantiles[i]:g} and next varies {wobble:.3e}")

    _check(failures, bool(np.all(np.diff(traj.paths, axis=0) > 0.0)), "paths cross")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s")
    _report(6, "flux-lines", failures)


def test_7_velocity_asymptote():
    """Late-time flux-line velocities reach z_q D / sigma0 within 2%."""
    failures: list[str] = []
    params = make_physical_params(1.0, 1.0)
    state = GaussianState(sigma0=1.0)
    d = params.diffusivity
    quantiles = tuple(i / 10 for i in range(1, 10))

    start = time.perf_counter()
    grid = grid_spanning(0.0, 10.0 * analytic_sigma(40.0, 1.0, d), 0.1,
                         dt=0.1, t_final=40.0)
    field = sample_gaussian_field(state, grid)
    snaps, _ = evolve(field, grid, state, params, np.arange(20.0, 40.001, 2.0))
    _, velocities = velocity_field(snaps, grid, quantiles)
    elapsed = time.perf_counter() - start

    for i, q in enumerate(quantiles):
        if abs(q - 0.5) < 1e-12:
            worst = float(np.max(np.abs(velocities[i])))
            _check(failures, worst <= 0.02 * d, f"median speed {worst:.3e}")
            continue
        target = NormalDist().inv_cdf(q) * d / state.sigma0
        dev = float(np.max(np.abs(velocities[i] / target - 1.0)))
        _check(failures, dev <= 0.02, f"q={q:g}: velocity off by {dev:.3e}")
    _check(failures, elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s")
    _report(7, "velocity-asymptote", failures)


def test_8_determinism_and_format(spread_run, tmp_path):
    """Reruns are bit-identical and every table round-trips exactly."""
    cfg, first, status, _ = spread_run
    failures: list[str] = []
    _check(failures, status == 0, f"first run exited with status {status}")
    second = tmp_path / "again"
    _check(failures, run_spread(cfg, second, quiet=True) == 0, "second run failed")

    names_a = sorted(p.name for p in first.iterdir())
    names_b = sorted(p.name for p in second.iterdir())
    _check(failures, names_a == names_b, "runs produced different file sets")
    for name in names_a:
        if (first / name).read_bytes() != (second / name).read_bytes():
            failures.append(f"{name} differs between identical runs")

    for name in names_a:
        columns, data = read_table(first / name)
        copy = tmp_path / name
        write_table(copy, columns, [data[:, j] for j in range(data.shape[1])])
        if copy.read_bytes() != (first / name).read_bytes():
            failures.append(f"{name} does not round-trip byte-exactly")
    _report(8, "determinism-format", failures)
