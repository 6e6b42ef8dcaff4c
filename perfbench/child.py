"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/child.py SPEC OUT [--trace] [--setup-only] [--parity]

SPEC is the JSON file ``run.py`` wrote next to the workload's config
files; OUT is an empty output directory. The last stdout line is one JSON
object with the repetition's timings, its closed-form checks, the digest
of its output tree and, with ``--trace``, its per-layer metrics.

* ``setup_s`` runs from before ``import balldiff.cli`` (numpy and backend
  selection included) until the configs are loaded and their grids sized.
* ``wall_s`` runs from the end of setup until every output is written.
* The checks run after ``wall_s`` stops, with any tracing removed. They
  re-read the outputs and compare them with closed forms computed here
  from the inputs, not with balldiff's own reference values.
* ``ref_s``, timed just before and just after the run in untraced
  repetitions, is the machine-speed reference that ``wall_ref`` divides by
  (see :func:`reference_s`).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parent.parent

# numpy is imported by main() inside the set-up timer, with balldiff.
np = None


def _sigma_closed_form(t, sigma0, hbar, mass):
    d = hbar / (2.0 * mass)
    return sigma0 * math.sqrt(1.0 + (d * t / sigma0**2) ** 2)


def _moment_sigma(x, v):
    mass = v.sum()
    mean = (v * x).sum() / mass
    return math.sqrt(float((v * (x - mean) ** 2).sum() / mass))


class Checks:
    """Collects check failures per command and the two accuracy metrics."""

    def __init__(self):
        self.failures: dict[str, list[str]] = {}
        self.sigma_rel_err_max = 0.0
        self.fringe_err_cells_max = 0.0
        self.sweep_points = 0
        self.sweep_points_failed = 0

    def expect(self, label: str, ok: bool, message: str) -> None:
        self.failures.setdefault(label, [])
        if not ok:
            self.failures[label].append(message)

    def sigma(self, label: str, rel_errors) -> None:
        worst = float(max(rel_errors))
        self.sigma_rel_err_max = max(self.sigma_rel_err_max, worst)
        self.expect(label, worst <= W.SIGMA_REL_TOL,
                    f"sigma rel error {worst:.3e} > {W.SIGMA_REL_TOL}")

    def fringes(self, label, x_det, spacing, dx, min_count=3) -> None:
        self.expect(label, x_det.size >= min_count, f"only {x_det.size} fringe maxima")
        if x_det.size:
            err = np.abs(x_det - np.rint(x_det / spacing) * spacing) / dx
            worst = float(err.max())
            self.fringe_err_cells_max = max(self.fringe_err_cells_max, worst)
            self.expect(label, worst <= W.FRINGE_CELL_TOL,
                        f"fringe {worst:.3f} cells off 2 pi n hbar / (m dvx)")


def _table(tables, path):
    names, data = tables.read_table(path)
    return {name: data[:, i] for i, name in enumerate(names)}


def _fringe_probe(bd, checks, label, params, x, v, dx):
    """Two-wave rule on a single-packet density and a displaced copy of it."""
    k = max(1, len(v) // 20)
    zeros = np.zeros(k)
    p1 = np.concatenate((v[k:], zeros))
    p2 = np.concatenate((zeros, v[:-k]))
    spacing = W.PROBE_CELLS_PER_FRINGE * dx
    dvx = 2.0 * math.pi * params.hbar / (params.mass * spacing)
    total = bd.compose_intensity(p1, p2, bd.phase(x, dvx, params))
    checks.fringes(label, bd.detect_fringe_maxima(x, p1, p2, total), spacing, dx)


# --- kernel_long: the acceptance-2 problem through the public API ---------

def setup_kernel_long(bd, spec, indir):
    a = spec["api"]
    params = bd.make_physical_params(a["hbar"], a["mass"])
    state = bd.GaussianState(sigma0=a["sigma0"], center=a["center"])
    half = a["safety_span"] * bd.analytic_sigma(a["t_final"], state.sigma0, params.diffusivity)
    grid = bd.grid_spanning(state.center, half, a["dx"], dt=a["dt"], t_final=a["t_final"])
    return {"params": params, "state": state, "grid": grid, "times": a["snapshot_times"],
            "nx": grid.nx}


def run_kernel_long(bd, ctx, out, timed):
    from balldiff import tables

    def command():
        grid, state, params = ctx["grid"], ctx["state"], ctx["params"]
        field = bd.sample_gaussian_field(state, grid)
        snaps, _ = bd.evolve(field, grid, state, params, ctx["times"])
        t = np.array([s.time for s in snaps])
        sigma = np.array([bd.second_moment_sigma(s, grid) for s in snaps])
        ref = bd.analytic_sigma(t, state.sigma0, params.diffusivity)
        tables.write_table(out / "sigma_timeseries.txt",
                           ["t", "sigma_simulated", "sigma_analytic", "rel_error"],
                           [t, sigma, ref, np.abs(sigma - ref) / ref])
        ctx["snaps"] = snaps
        return 0

    timed("evolve", command)


def check_kernel_long(bd, ctx, out, checks, digest):
    from balldiff import tables

    label = "evolve"
    grid, state, params = ctx["grid"], ctx["state"], ctx["params"]
    tab = _table(tables, out / "sigma_timeseries.txt")
    t, sigma = tab["t"], tab["sigma_simulated"]
    checks.expect(label, t.size == len(ctx["times"]), f"{t.size} snapshots")
    ref = np.array([_sigma_closed_form(ti, state.sigma0, params.hbar, params.mass) for ti in t])
    checks.sigma(label, np.abs(sigma - ref) / ref)
    # acceptance 2: the log-log variance slope matches the closed form's
    slope = np.polyfit(np.log(t), np.log(sigma**2), 1)[0]
    slope_ref = np.polyfit(np.log(t), np.log(ref**2), 1)[0]
    checks.expect(label, abs(slope - slope_ref) <= W.SLOPE_TOL,
                  f"variance slope {slope:.4f} vs closed form {slope_ref:.4f}")
    final = ctx["snaps"][-1].values
    _fringe_probe(bd, checks, label, params, grid.x, final, grid.dx)
    for snap in ctx["snaps"]:
        digest.update(np.ascontiguousarray(snap.values).tobytes())
    return 1, int(bool(checks.failures[label]))


# --- CLI workloads ----------------------------------------------------------

def setup_cli(bd, spec, indir):
    from balldiff import config

    ctx = {"commands": [], "nx": 0}
    for command in spec["commands"]:
        name, path = command[0], str(indir / command[1])
        if name == "sweep":
            raw = config.load_raw(path)
            base = config.build_config(
                {k: v for k, v in raw.items() if k != "sweep"}, path)
            loaded = (raw, base)
        else:
            base = config.load_config(path)
            loaded = base
        grid = (config.double_slit_grid(base) if base.slits is not None
                else config.single_beam_grid(base))
        ctx["nx"] = max(ctx["nx"], grid.nx)
        ctx["commands"].append((name, path, loaded, command[2:]))
    return ctx


def run_cli(bd, ctx, out, timed):
    import balldiff.cli as cli

    for i, (name, path, loaded, extra) in enumerate(ctx["commands"]):
        label = f"{i}_{name}"
        where = out / label
        if name == "sweep":
            raw, _ = loaded
            timed(label, lambda: cli.run_sweep(raw, path, where, workers=1, quiet=True))
        elif name == "convergence":
            timed(label, lambda: cli.run_convergence(
                loaded, where, refinements=extra[0], quiet=True))
        else:
            runner = getattr(cli, f"run_{name}")
            timed(label, lambda: runner(loaded, where, quiet=True))


def _check_spread(bd, tables, checks, label, cfg, where, probe):
    tab = _table(tables, where / "sigma_timeseries.txt")
    checks.expect(label, tab["t"].size == len(cfg.snapshot_times),
                  f"{tab['t'].size} snapshots, expected {len(cfg.snapshot_times)}")
    p = cfg.params
    ref = np.array([_sigma_closed_form(t, cfg.state.sigma0, p.hbar, p.mass) for t in tab["t"]])
    checks.expect(label, np.allclose(tab["sigma_analytic"], ref, rtol=1e-12, atol=0.0),
                  "sigma_analytic column disagrees with the spreading law")
    rel = np.abs(tab["sigma_simulated"] - ref) / ref
    checks.sigma(label, rel)
    if probe:
        last = _table(tables, where / f"field_{tab['t'].size - 1:03d}.txt")
        x = last["x"]
        _fringe_probe(bd, checks, label, p, x, last["p"], (x[-1] - x[0]) / (x.size - 1))
    return float(rel.max())


def _check_trajectories(tables, checks, label, cfg, where):
    traj = _table(tables, where / "trajectories.txt")
    hom = _table(tables, where / "homothety.txt")
    p = cfg.params
    c = cfg.state.center
    t0 = traj["t"].min()
    s0 = _sigma_closed_form(t0, cfg.state.sigma0, p.hbar, p.mass)
    start = {q: x for q, t, x in zip(traj["quantile"], traj["t"], traj["x"]) if t == t0}
    checks.expect(label, hom["quantile"].size > 0, "no homothety rows")
    for q, t, actual in zip(hom["quantile"], hom["t"], hom["x_actual"]):
        scale = _sigma_closed_form(t, cfg.state.sigma0, p.hbar, p.mass) / s0
        offset = (start[q] - c) * scale
        dev = abs(actual - c - offset) / abs(offset)
        checks.expect(label, dev <= W.HOMOTHETY_TOL,
                      f"flux line q={q} t={t} off its homothety by {dev:.3e}")


def _check_doubleslit(tables, checks, label, cfg, where, min_count=3):
    p = cfg.params
    dvx = cfg.slits.dvx
    spacing = 2.0 * math.pi * p.hbar / (p.mass * abs(dvx))
    fr = _table(tables, where / "fringes.txt")
    for i in range(len(cfg.snapshot_times)):
        tab = _table(tables, where / f"intensity_{i:03d}.txt")
        x = tab["x"]
        ref = _sigma_closed_form(tab["t"][0], cfg.slits.sigma0, p.hbar, p.mass)
        checks.sigma(label, [abs(_moment_sigma(x, tab[b]) - ref) / ref
                             for b in ("p1", "p2")])
    dx = (x[-1] - x[0]) / (x.size - 1)
    checks.fringes(label, fr["x_detected"], spacing, dx, min_count)
    return spacing


def _check_sweep(tables, checks, sweep_label, base, where, inner):
    man = _table(tables, where / "manifest.txt")
    points = man["point"].size
    failed = 0
    for i in range(points):
        label = f"{sweep_label}/point_{i:03d}"
        checks.expect(label, man["status"][i] == 0, f"status {man['status'][i]:g}")
        overrides = {name: man[name][i] for name in man
                     if name not in ("point", "status", "max_sigma_rel_error",
                                     "fringe_spacing")}
        cfg = _override(base, overrides)
        value = inner(cfg, where / f"point_{i:03d}", label)
        metric = "max_sigma_rel_error" if "max_sigma_rel_error" in man else "fringe_spacing"
        checks.expect(label, math.isclose(man[metric][i], value, rel_tol=1e-12),
                      f"manifest {metric} {man[metric][i]!r} != {value!r}")
        failed += bool(checks.failures[label])
    return points, failed


def _override(base, overrides):
    """The RunConfig of one sweep point, built the way ``run_sweep`` builds it."""
    from balldiff import config

    raw = {section: dict(kv) for section, kv in base.items()}
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        raw.setdefault(section, {})[key] = repr(float(value))
    return config.build_config(raw, "sweep point")


def check_cli(bd, ctx, out, checks, digest):
    from balldiff import tables

    attempted = failed = 0
    for i, (name, path, loaded, extra) in enumerate(ctx["commands"]):
        where = out / f"{i}_{name}"
        label = f"{i}_{name}"
        if name == "spread":
            _check_spread(bd, tables, checks, label, loaded, where, probe=True)
        elif name == "trajectories":
            _check_trajectories(tables, checks, label, loaded, where)
        elif name == "doubleslit":
            _check_doubleslit(tables, checks, label, loaded, where)
        elif name == "convergence":
            tab = _table(tables, where / "convergence.txt")
            levels = extra[0] + 1
            checks.expect(label, tab["level"].size == levels, f"{tab['level'].size} levels")
            checks.expect(label, np.array_equal(tab["dx"], loaded.dx / 2.0 ** tab["level"]),
                          "dx column is not the halving ladder")
            err = tab["linf_error"]
            orders = np.log2(err[:-1] / err[1:])
            lo, hi = W.ORDER_WINDOW
            checks.expect(label, bool(np.all((orders >= lo) & (orders <= hi))),
                          f"observed orders {orders} outside [{lo}, {hi}]")
        else:  # sweep
            raw, _ = loaded
            base = {k: v for k, v in raw.items() if k != "sweep"}
            if raw["sweep"]["command"] == "spread":
                def inner(cfg, point, label):
                    return _check_spread(bd, tables, checks, label, cfg, point, False)
            else:
                def inner(cfg, point, label):
                    # wide fringes at small dvx leave room for one maximum
                    return _check_doubleslit(tables, checks, label, cfg, point, 1)
            points, bad = _check_sweep(tables, checks, label, base, where, inner)
            checks.sweep_points += points
            checks.sweep_points_failed += bad
            attempted += points
            failed += bad
            continue
        attempted += 1
        failed += bool(checks.failures.get(label))
    return attempted, failed


WORKLOADS = {
    "kernel_long": (setup_kernel_long, run_kernel_long, check_kernel_long),
    "tables_io": (setup_cli, run_cli, check_cli),
    "small_grids": (setup_cli, run_cli, check_cli),
}


def reference_s(budget_s: float) -> float:
    """Time of a fixed computation that stands for the machine's current speed.

    On a shared host, load from other machines can change every timing by
    tens of percent over minutes, on all CPUs at once, so ``run.py``
    divides each repetition's wall time by this. One trial is a mix like the workloads': numpy
    stencil passes on 8,000 and 1,000 nodes and 17-digit float formatting,
    none of it balldiff code, about 4 ms. Trials repeat for ``budget_s``
    (at least 5); the median trial is returned.
    """
    big = np.linspace(-1.0, 1.0, 8000)
    small = big[::8].copy()
    trials = []
    start = time.perf_counter()
    while len(trials) < 5 or time.perf_counter() - start < budget_s:
        t = time.perf_counter()
        acc = 0.0
        for i in range(100):
            for x in (big, small):
                y = x[1:-1] + 0.1 * ((x[2:] - 2.0 * x[1:-1]) + x[:-2])
            acc += len(" ".join(f"{v:.17g}" for v in y[:16].tolist())) + math.sqrt(i)
        trials.append(time.perf_counter() - t)
    return sorted(trials)[len(trials) // 2]


def tree_digest(out: Path, digest) -> str:
    """SHA-256 over every output file's relative path and bytes, in sorted order."""
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _parity(bd, setup, run, spec, indir, out) -> dict:
    """Run the workload with every kernel call checked against the other backend."""
    from balldiff import stepper
    from balldiff._kernel import select_kernel

    python_impl, _ = select_kernel("python")
    try:
        compiled_impl, _ = select_kernel("compiled")
    except ImportError:
        return {"parity": "not checked: compiled backend not built"}
    calls = mismatches = 0

    def both(values, nus):
        nonlocal calls, mismatches
        fast = compiled_impl.apply_passes(values, nus)
        calls += 1
        mismatches += not np.array_equal(fast, python_impl.apply_passes(values, nus))
        return fast

    original = stepper.apply_passes
    stepper.apply_passes = both
    try:
        run(bd, setup(bd, spec, indir), out, lambda label, fn: fn())
    finally:
        stepper.apply_passes = original
    return {"parity": "ok" if mismatches == 0 else "mismatch",
            "parity_calls": calls, "parity_mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--parity", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    indir = args.spec.parent
    setup, run, check = WORKLOADS[spec["workload"]]
    sys.path.insert(0, str(ROOT / "src"))

    global np
    start = time.perf_counter()
    import balldiff as bd
    import balldiff.cli  # noqa: F401  (the CLI import is part of set-up)
    import numpy as np

    if args.parity:
        print(json.dumps(_parity(bd, setup, run, spec, indir, args.out)))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    phase = tracer.phase if tracer else lambda name: contextlib.nullcontext()
    with phase("setup"):
        ctx = setup(bd, spec, indir)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "backend": bd.kernel_backend(), "nx": ctx["nx"]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    commands: dict[str, float] = {}
    statuses: dict[str, int] = {}

    def timed(label, fn):
        t = time.perf_counter()
        statuses[label] = fn()
        commands[label] = commands.get(label, 0.0) + time.perf_counter() - t

    # The reference brackets the run, so a long repetition is compared with
    # the machine's speed at both of its ends.
    ref_before = reference_s(spec["reference_s"]) if tracer is None else None
    t_run = time.perf_counter()
    with phase("run"):
        run(bd, ctx, args.out, timed)
    wall_s = time.perf_counter() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.restore()
        from spans import layer_metrics

        roots = [i for i, s in enumerate(tracer.spans) if s[3] == -1]
        result["layers"] = layer_metrics(tracer, roots[1], roots[0])
        result["kernel_passes_by_nx"] = tracer.counts.get("kernel.passes_by_nx", {})
        tracer.dump(args.out.parent / "spans.json", workload=spec["workload"],
                    seed=spec["seed"], wall_s=wall_s, layers=result["layers"])

    checks = Checks()
    for label, status in statuses.items():
        checks.expect(label, status == 0, f"exit status {status}")
    digest = hashlib.sha256()
    attempted, failed = check(bd, ctx, args.out, checks, digest)
    result.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        commands=commands,
        attempted=attempted,
        failed=failed,
        failures=[f"{k}: {m}" for k, ms in checks.failures.items() for m in ms],
        sigma_rel_err_max=checks.sigma_rel_err_max,
        fringe_err_cells_max=checks.fringe_err_cells_max,
        sweep_points=checks.sweep_points,
        sweep_points_failed=checks.sweep_points_failed,
        digest=tree_digest(args.out, digest),
        numpy=np.__version__,
    )
    if tracer is None:
        result["ref_s"] = 0.5 * (ref_before + reference_s(spec["reference_s"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
