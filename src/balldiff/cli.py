"""Command-line front end: run simulations from config files, write tables.

Subcommands map one-to-one onto runner functions so everything the CLI
can do is callable from Python with the same arguments. Runners return a
process exit status; they write their output files even when an
in-config tolerance check fails, so a failed run can still be inspected.
"""
from __future__ import annotations

# argparse, traceback and the sweep's process pool are imported where they are
# used, so that importing this module does not pay for them.
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from ._kernel import KERNEL_BACKEND
from .analytic import analytic_sigma, gaussian_pdf
from .config import (
    RunConfig,
    build_config,
    double_slit_grid,
    load_config,
    load_raw,
    single_beam_grid,
    sweep_points,
)
from .core import grid_spanning  # noqa: F401  (unused: kept bound for perfbench/spans.py)
from .errors import BalldiffError, ValidationError
from .interference import ENVELOPE_FLOOR, detect_fringe_maxima, fringe_spacing, simulate_double_slit
from .stepper import evolve, march, plan, sample_gaussian_field, second_moment_sigma
from .tables import FormattedColumn, read_table, write_table
from .trajectories import trace_flux_lines

#: Acceptable observed convergence order for the second-order stencil.
ORDER_WINDOW = (1.7, 2.3)

#: Ends each command's summary line: which stencil backend ran.
_BACKEND = f" [{KERNEL_BACKEND} kernel]"


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _complain(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _evolve_packet(cfg: RunConfig):
    """Grid, snapshots and stepper report of the config's single Gaussian packet."""
    grid = single_beam_grid(cfg)
    initial = sample_gaussian_field(cfg.state, grid)
    snaps, report = evolve(initial, grid, cfg.state, cfg.params, cfg.snapshot_times)
    return grid, snaps, report


def _write_snapshots(out_dir: Path, stem: str, grid, times, names: list[str], rows) -> None:
    """One ``stem_NNN.txt`` per snapshot: its t, the shared x axis, then ``rows``' columns."""
    x_col = FormattedColumn(grid.x)
    for i, (t, columns) in enumerate(zip(times, rows)):
        write_table(out_dir / f"{stem}_{i:03d}.txt", ["t", "x", *names],
                    [np.full(grid.nx, t), x_col, *columns])


def run_spread(cfg: RunConfig, out_dir: Path, *, quiet: bool = False) -> int:
    """Evolve a single packet; record densities and the spreading history."""
    out_dir = Path(out_dir)
    grid, snaps, report = _evolve_packet(cfg)

    times = np.array([s.time for s in snaps])
    sigma_sim = np.array([second_moment_sigma(s, grid) for s in snaps])
    sigma_ref = analytic_sigma(times, cfg.state.sigma0, cfg.params.diffusivity)
    rel_error = np.abs(sigma_sim - sigma_ref) / sigma_ref

    write_table(
        out_dir / "sigma_timeseries.txt",
        ["t", "sigma_simulated", "sigma_analytic", "rel_error"],
        [times, sigma_sim, sigma_ref, rel_error],
    )
    _write_snapshots(out_dir, "field", grid, times, ["p"], ([s.values] for s in snaps))
    write_table(
        out_dir / "stepper_report.txt",
        ["macro_steps", "total_substeps", "max_courant", "mass_drift", "boundary_leak"],
        [[report.macro_steps], [report.total_substeps], [report.max_courant],
         [report.mass_drift], [report.boundary_leak]],
    )

    _say(quiet, f"spread: {len(snaps)} snapshots on {grid.nx} nodes, "
                f"{report.total_substeps} substeps, max nu {report.max_courant:.4f}{_BACKEND}")
    _say(quiet, f"spread: max sigma rel error {rel_error.max():.3e}, "
                f"mass drift {report.mass_drift:.3e}")
    if cfg.sigma_rel_tol is not None and rel_error.max() > cfg.sigma_rel_tol:
        _complain(
            f"sigma rel error {rel_error.max():.3e} exceeds tolerance {cfg.sigma_rel_tol:g}"
        )
        return 1
    return 0


def run_doubleslit(cfg: RunConfig, out_dir: Path, *, quiet: bool = False) -> int:
    """Evolve both slit beams, compose intensities, locate fringe maxima."""
    grid = double_slit_grid(cfg)
    out_dir = Path(out_dir)
    imap = simulate_double_slit(cfg.slits, grid, cfg.params, cfg.snapshot_times)

    _write_snapshots(out_dir, "intensity", grid, imap.times, ["p1", "p2", "p_total"],
                     zip(imap.p1, imap.p2, imap.p_total))

    spacing = fringe_spacing(cfg.params, cfg.slits.dvx)
    half = max(-grid.x_min, grid.x_max)
    p1, p2 = imap.p1[-1], imap.p2[-1]
    overlap = 2.0 * np.sqrt(p1 * p2).max() > ENVELOPE_FLOOR * max(p1.max(), p2.max())
    # a crest besides n = 0 lies on the grid (inf never does), where both beams reach
    has_fringes = spacing <= half and overlap
    if has_fringes:
        x_det = detect_fringe_maxima(imap.x_axis, p1, p2, imap.p_total[-1])
        orders = np.rint(x_det / spacing)
        x_ref = orders * spacing
        err_cells = np.abs(x_det - x_ref) / grid.dx
        _say(quiet, f"doubleslit: {x_det.size} maxima, spacing {spacing:.6g}, "
                    f"worst offset {err_cells.max(initial=0.0):.3f} cells{_BACKEND}")
    else:
        orders = x_det = x_ref = err_cells = np.empty(0)
        why = (f"spacing {spacing:.6g} > half-width {half:.6g}" if spacing > half
               else "beams do not overlap")
        _say(quiet, f"doubleslit: no fringes ({why}){_BACKEND}")
    write_table(
        out_dir / "fringes.txt",
        ["n", "x_detected", "x_analytic", "error_cells"],
        [orders, x_det, x_ref, err_cells],
    )

    if cfg.fringe_cell_tol is not None and has_fringes:
        if x_det.size == 0:
            _complain("no interference maxima detected")
            return 1
        if err_cells.max() > cfg.fringe_cell_tol:
            _complain(
                f"fringe offset {err_cells.max():.3f} cells exceeds "
                f"tolerance {cfg.fringe_cell_tol:g}"
            )
            return 1
    return 0


def run_trajectories(cfg: RunConfig, out_dir: Path, *, quiet: bool = False) -> int:
    """Trace flux lines of a single packet and check their homothety."""
    out_dir = Path(out_dir)
    grid, snaps, _ = _evolve_packet(cfg)
    traj = trace_flux_lines(snaps, grid, cfg.quantiles)

    nq, nt = traj.paths.shape
    q_col = np.repeat(traj.quantiles, nt)
    t_col = np.tile(traj.times, nq)
    # display ordinate: distance flown transverse to the spreading axis
    write_table(
        out_dir / "trajectories.txt",
        ["quantile", "t", "y_display", "x"],
        [q_col, t_col, cfg.v_y * t_col, traj.paths.ravel()],
    )

    center = cfg.state.center
    sigma_t = analytic_sigma(traj.times, cfg.state.sigma0, cfg.params.diffusivity)
    offset0 = traj.paths[:, 0] - center
    kept = np.abs(offset0) >= 1e-9 * cfg.state.sigma0  # median: homothety ratio is 0/0
    offset = offset0[kept, None] * (sigma_t / sigma_t[0])
    expected = center + offset
    actual = traj.paths[kept]
    rel_dev = (np.abs(actual - expected) / np.abs(offset)).ravel()
    write_table(
        out_dir / "homothety.txt",
        ["quantile", "t", "x_expected", "x_actual", "rel_dev"],
        [np.repeat(traj.quantiles[kept], nt), np.tile(traj.times, int(kept.sum())),
         expected.ravel(), actual.ravel(), rel_dev],
    )

    worst = rel_dev.max(initial=0.0)
    _say(quiet, f"trajectories: {nq} flux lines over {nt} snapshots, "
                f"worst homothety deviation {worst:.3e}{_BACKEND}")
    if cfg.homothety_tol is not None and worst > cfg.homothety_tol:
        _complain(f"homothety deviation {worst:.3e} exceeds tolerance {cfg.homothety_tol:g}")
        return 1
    return 0


def run_convergence(
    cfg: RunConfig, out_dir: Path, *, refinements: int = 3, quiet: bool = False
) -> int:
    """Grid-refinement study against the closed-form spreading Gaussian.

    Each refinement halves dx, so a second-order scheme should show the
    max-norm error dropping fourfold per level. Every level keeps dt and runs one
    segment to t_final, which ``stepper.plan`` alone snaps to a whole number of dt,
    in as many passes as its dx needs; it is compared with the Gaussian there. Every
    level's grid (sized for that last time) and plan are made once, before level 0
    runs, and ``march`` runs those plans. Exits nonzero when the final order leaves
    :data:`ORDER_WINDOW`.
    """
    refinements = int(refinements)
    if refinements < 2:
        raise ValidationError(f"need at least 2 refinements, got {refinements}")
    out_dir = Path(out_dir)

    # each level is sized and planned before any runs: a refused level costs nothing,
    # and the first one refused ends the loop
    levels, grids, plans = range(refinements + 1), [], []
    for level in levels:
        dx = cfg.dx / 2**level
        try:
            grids.append(single_beam_grid(dataclasses.replace(cfg, dx=dx)))
            plans.append(plan((cfg.t_final,), grids[-1], 0.0, cfg.state.sigma0,
                              cfg.params.diffusivity))
        except BalldiffError as exc:
            if level == 0:
                raise
            # a refined level's dx comes from --refinements, and every study runs levels 0-2
            reason = str(exc).removeprefix(f"{cfg.origin}: [grid] ").rpartition("; ")[0]
            remedy = f"lower --refinements below {level}" if level > 2 else "raise [grid] dx"
            raise type(exc)(f"convergence level {level} with dx = {dx:g} is "
                            f"refused: {reason}; {remedy}") from exc
        if plans[0][0][0] == 0:  # level 0's plan snaps t_final to step 0
            raise ValidationError(f"convergence study needs t_final = {cfg.t_final:g} to round "
                                  f"to at least one step of dt = {cfg.dt:g}")
    passes = [sum(n for _, n, _ in segments) for segments in plans]
    errors = []
    for level, grid, segments in zip(levels, grids, plans):
        [(t, last)], _ = march(sample_gaussian_field(cfg.state, grid).values, 0.0, grid, segments)
        sigma = analytic_sigma(t, cfg.state.sigma0, cfg.params.diffusivity)
        err = float(np.max(np.abs(last - gaussian_pdf(grid.x, cfg.state.center, sigma))))
        errors.append(err)
        _say(quiet, f"convergence: level {level} dx={grid.dx:g} passes={passes[level]} "
                    f"err={err:.3e}")

    # a level whose error is exactly 0 has no observed order: nan, outside the window
    orders = [math.log2(errors[i - 1] / errors[i]) if min(errors[i - 1:i + 1]) > 0.0
              else math.nan for i in levels[1:]]
    write_table(
        out_dir / "convergence.txt",
        ["level", "dx", "passes", "linf_error"],
        [levels, [grid.dx for grid in grids], passes, errors],
    )
    write_table(out_dir / "orders.txt", ["level", "order"], [levels[1:], orders])

    _say(quiet, "convergence: observed orders " + ", ".join(f"{o:.3f}" for o in orders)
         + _BACKEND)
    lo, hi = ORDER_WINDOW
    bad = [o for o in orders if not (lo <= o <= hi)]
    if bad:
        _complain(f"observed order {bad[0]:.3f} outside [{lo}, {hi}]")
        return 1
    return 0


_SWEEP_COMMANDS = {
    "spread": (run_spread, "max_sigma_rel_error"),
    "doubleslit": (run_doubleslit, "fringe_spacing"),
    "trajectories": (run_trajectories, "max_homothety_dev"),
}


def _run_sweep_point(args) -> tuple[int, int, float, str | None]:
    """One sweep point in a worker process.

    A point that raises fails with its reason in ``point_NNN/error.txt``: the
    message of a BalldiffError, or the traceback of any other exception.
    """
    index, raw_point, origin, command, point_dir = args
    runner, _ = _SWEEP_COMMANDS[command]
    point_dir = Path(point_dir)
    try:
        cfg = build_config(raw_point, f"{origin} (point {index})")
        status = runner(cfg, point_dir, quiet=True)
        return index, status, _point_metric(command, cfg, point_dir), None
    except BalldiffError as exc:
        error = str(exc)
        detail = error + "\n"
    except Exception as exc:
        import traceback

        error = f"{type(exc).__name__}: {exc} (traceback in {point_dir / 'error.txt'})"
        detail = traceback.format_exc()
    point_dir.mkdir(parents=True, exist_ok=True)
    (point_dir / "error.txt").write_text(detail)
    return index, 1, float("nan"), error


def _point_metric(command: str, cfg: RunConfig, point_dir: Path) -> float:
    if command == "spread":
        names, data = read_table(point_dir / "sigma_timeseries.txt")
        return float(data[:, names.index("rel_error")].max())
    if command == "doubleslit":
        return fringe_spacing(cfg.params, cfg.slits.dvx)
    names, data = read_table(point_dir / "homothety.txt")
    return float(data[:, names.index("rel_dev")].max(initial=0.0))


def run_sweep(
    raw: dict[str, dict[str, str]],
    origin: str,
    out_dir: Path,
    *,
    workers: int = 1,
    quiet: bool = False,
) -> int:
    """Run a command once per point of a parameter grid.

    Points are laid out in file order of the swept keys with the last
    key varying fastest, exactly ``itertools.product``. Each point gets
    its own ``point_NNN`` directory; a failing point marks the sweep
    failed but never stops the remaining points.
    """
    workers = int(workers)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    command, keys, points = sweep_points(raw, origin, _SWEEP_COMMANDS)
    metric_name = _SWEEP_COMMANDS[command][1]
    out_dir = Path(out_dir)
    jobs = [(index, raw_point, origin, command, str(out_dir / f"point_{index:03d}"))
            for index, (raw_point, _) in enumerate(points)]
    values = np.array([point_values for _, point_values in points], dtype=np.float64)

    workers = min(workers, len(jobs))  # a fork-based pool starts all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sweep_point, jobs))
    else:
        results = [_run_sweep_point(job) for job in jobs]

    statuses = [status for _, status, _, _ in results]
    metrics = [metric for _, _, metric, _ in results]
    for (index, status, metric, error), row in zip(results, values):
        settings = " ".join(f"{dotted}={value:g}" for dotted, value in zip(keys, row))
        _say(quiet, f"sweep: point {index:03d} {settings} status={status} "
                    f"{metric_name}={metric:g}")
        if error is not None:
            _complain(f"point {index:03d}: {error}")

    write_table(out_dir / "manifest.txt", ["point", *keys, "status", metric_name],
                [np.arange(len(points)), *values.T, statuses, metrics])

    failed = sum(1 for s in statuses if s != 0)
    _say(quiet, f"sweep: {len(points)} points, {failed} failed{_BACKEND}")
    if failed:
        _complain(f"{failed} of {len(points)} sweep points failed")
        return 1
    return 0


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="balldiff",
        description="Ballistic diffusion: packet spreading, interference, flux lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("spread", "evolve one packet and compare against the spreading law"),
        ("doubleslit", "evolve two slit beams and compose the interference pattern"),
        ("trajectories", "trace constant-probability flux lines of one packet"),
        ("convergence", "grid-refinement study against the closed-form solution"),
        ("sweep", "repeat a command over a grid of parameter values"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "convergence":
            p.add_argument(
                "--refinements", type=int, default=3,
                help="number of dx halvings after the base level (default 3)",
            )
        if name == "sweep":
            p.add_argument(
                "--workers", type=int, default=1,
                help="worker processes for sweep points (default 1)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "sweep":
            return run_sweep(load_raw(args.config), str(args.config), out,
                             workers=args.workers, quiet=args.quiet)
        cfg = load_config(args.config)
        if args.command == "convergence":
            return run_convergence(cfg, out, refinements=args.refinements, quiet=args.quiet)
        runner, _ = _SWEEP_COMMANDS[args.command]
        return runner(cfg, out, quiet=args.quiet)
    except BalldiffError as exc:
        _complain(str(exc))
        return 1
    except OSError as exc:  # config reads raise ConfigError, so this is an output write
        _complain(f"cannot write output: {exc}")
        return 1
    except MemoryError as exc:
        _complain(f"out of memory: {exc}; coarsen dx")
        return 1


if __name__ == "__main__":
    sys.exit(main())
