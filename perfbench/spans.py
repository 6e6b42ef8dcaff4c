"""Spans around calls into balldiff's modules, recorded from outside the package.

balldiff's modules bind each other's functions at import time (``cli`` and
``interference`` do ``from .stepper import evolve``; ``stepper`` does
``from ._kernel import apply_passes``), so wrapping ``stepper.evolve``
alone would miss most calls. :meth:`Tracer.install` therefore rebinds every
name in each module that imported it, and :meth:`Tracer.restore` puts the
originals back. Spans stay in memory until :meth:`Tracer.dump`.

A span's self time is its duration minus the time its children cover. The
root span of a phase has no layer; its self time is the time no wrapped call
covered, reported as ``attrib.unattributed_s``.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import time
import uuid

# The kernel's computed cost per interior node-update:
# v + nu * ((a - 2 v) + b) is 5 flops, one float64 read and one float64
# write in the ideal streaming case. Neither is measured.
FLOPS_PER_NODE_UPDATE = 5
BYTES_PER_NODE_UPDATE = 16

LAYERS = ("cli", "config", "stepper", "kernel", "analytic",
          "interference", "trajectories", "tables")

_RUNNERS = ("run_spread", "run_doubleslit", "run_trajectories",
            "run_convergence", "run_sweep")


def _count_kernel(counts, args, result):
    nx = len(args[0])
    passes = len(args[1])
    counts["kernel.calls"] += 1
    counts["kernel.passes"] += passes
    counts["kernel.node_updates"] += (nx - 2) * passes
    by_nx = counts.setdefault("kernel.passes_by_nx", {})
    by_nx[nx] = by_nx.get(nx, 0) + passes


def _count_evolve(counts, args, result):
    report = result[1]
    counts["stepper.macro_steps"] += report.macro_steps
    counts["stepper.substeps"] += report.total_substeps


def _count_coeff(counts, args, result):
    counts["analytic.coeff_calls"] += 1


def _count_trace(counts, args, result):
    snapshots, quantiles = args[0], args[2]
    counts["trajectories.inversions"] += len(snapshots) * len(quantiles)


def _count_write(counts, args, result):
    counts["tables.writes"] += 1
    columns = args[2]
    counts["tables.rows_written"] += len(columns[0]) if len(columns) else 0
    counts.setdefault("tables.paths", []).append(os.fspath(args[0]))


def _count_read(counts, args, result):
    counts["tables.reads"] += 1


# (module, attribute, span name, counter). Each module is listed with the
# names it imported or defines that the workloads reach.
TARGETS = [
    ("balldiff.stepper", "apply_passes", "kernel.apply_passes", _count_kernel),
    ("balldiff.stepper", "diffusion_coefficient", "analytic.coeff", _count_coeff),
    ("balldiff.stepper", "gaussian_pdf", "analytic.pdf", None),
    ("balldiff", "evolve", "stepper.evolve", _count_evolve),
    ("balldiff.cli", "evolve", "stepper.evolve", _count_evolve),
    ("balldiff.interference", "evolve", "stepper.evolve", _count_evolve),
    ("balldiff", "sample_gaussian_field", "stepper.sample", None),
    ("balldiff.cli", "sample_gaussian_field", "stepper.sample", None),
    ("balldiff.interference", "sample_gaussian_field", "stepper.sample", None),
    ("balldiff", "second_moment_sigma", "stepper.moments", None),
    ("balldiff.cli", "second_moment_sigma", "stepper.moments", None),
    ("balldiff", "analytic_sigma", "analytic.sigma", None),
    ("balldiff.cli", "analytic_sigma", "analytic.sigma", None),
    ("balldiff.cli", "gaussian_pdf", "analytic.pdf", None),
    ("balldiff.config", "analytic_sigma", "analytic.sigma", None),
    ("balldiff.interference", "analytic_sigma", "analytic.sigma", None),
    ("balldiff.cli", "simulate_double_slit", "interference.simulate", None),
    ("balldiff.cli", "detect_fringe_maxima", "interference.fringes", None),
    ("balldiff.cli", "fringe_spacing", "interference.spacing", None),
    ("balldiff.cli", "trace_flux_lines", "trajectories.trace", _count_trace),
    ("balldiff.tables", "write_table", "tables.write", _count_write),
    ("balldiff.cli", "write_table", "tables.write", _count_write),
    ("balldiff.cli", "read_table", "tables.read", _count_read),
    ("balldiff.config", "load_config", "config.load", None),
    ("balldiff.config", "load_raw", "config.load", None),
    ("balldiff.config", "build_config", "config.load", None),
    ("balldiff.cli", "load_config", "config.load", None),
    ("balldiff.cli", "load_raw", "config.load", None),
    ("balldiff.cli", "build_config", "config.load", None),
    ("balldiff", "grid_spanning", "config.grid", None),
    ("balldiff.config", "grid_spanning", "config.grid", None),
    ("balldiff.config", "single_beam_grid", "config.grid", None),
    ("balldiff.config", "double_slit_grid", "config.grid", None),
    ("balldiff.cli", "grid_spanning", "config.grid", None),
    ("balldiff.cli", "single_beam_grid", "config.grid", None),
    ("balldiff.cli", "double_slit_grid", "config.grid", None),
] + [("balldiff.cli", name, "cli." + name, None) for name in _RUNNERS]


class Tracer:
    """In-memory span recorder. Single-threaded: sweeps run with one worker."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        # each span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: collections.defaultdict = collections.defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._saved_sweep: dict | None = None

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span (``setup`` or ``run``) around the ``with`` body."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target name to a span-recording wrapper."""
        import importlib

        # one wrapper per function and span name, shared by every module
        wrapped: dict[tuple[int, str], object] = {}
        for module_name, attr, span_name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            key = (id(original), span_name)
            if key not in wrapped:
                wrapped[key] = self._wrap(original, span_name, counter)
            setattr(module, attr, wrapped[key])
        # run_sweep dispatches through a dict filled at import time.
        cli = importlib.import_module("balldiff.cli")
        self._saved_sweep = dict(cli._SWEEP_COMMANDS)
        for command, (runner, metric) in self._saved_sweep.items():
            cli._SWEEP_COMMANDS[command] = (
                getattr(cli, runner.__name__), metric)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self._saved_sweep is not None:
            import balldiff.cli as cli

            cli._SWEEP_COMMANDS.clear()
            cli._SWEEP_COMMANDS.update(self._saved_sweep)
            self._saved_sweep = None

    def dump(self, path, **extra) -> None:
        """Write the spans as JSON: name, start, end, parent and run id."""
        record = {
            "run_id": self.run_id,
            **extra,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded on one thread, so children never overlap each other
    and lie inside their parent.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _subtree(spans, root: int) -> list[int]:
    inside = {root}
    members = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            members.append(i)
    return members


def layer_metrics(tracer: Tracer, root: int, setup_root: int) -> dict[str, float]:
    """Per-layer counts and times for the phase rooted at span ``root``.

    The ``config`` metrics also cover the setup phase rooted at
    ``setup_root``, where the workload's configs are loaded and sized.
    """
    spans = tracer.spans
    members = _subtree(spans, root)
    setup_members = _subtree(spans, setup_root)
    selfs = self_times(spans)
    c = tracer.counts

    def layer(i):
        return spans[i][0].partition(".")[0] if i != root else ""

    def outermost(name, among):
        return [i for i in among if spans[i][0] == name
                and not (spans[i][3] >= 0 and spans[spans[i][3]][0] == name)]

    def total(name, among=members):
        return sum(spans[i][2] - spans[i][1] for i in outermost(name, among))

    def self_of(name):
        return sum(selfs[i] for i in members if spans[i][0] == name)

    wall = spans[root][2] - spans[root][1]
    m: dict[str, float] = {"trace.wall_s": wall, "trace.spans": len(members) - 1}
    for name in LAYERS:
        m[f"attrib.{name}_s"] = sum(selfs[i] for i in members if layer(i) == name)
    m["attrib.unattributed_s"] = selfs[root]

    calls = c.get("kernel.calls", 0)
    passes = c.get("kernel.passes", 0)
    updates = c.get("kernel.node_updates", 0)
    busy = total("kernel.apply_passes")
    m.update({
        "kernel.calls": calls,
        "kernel.passes": passes,
        "kernel.node_updates": updates,
        "kernel.busy_s": busy,
        "kernel.node_updates_per_s": updates / busy if busy else 0.0,
        "kernel.passes_per_call": passes / calls if calls else 0.0,
        "kernel.flops_computed": FLOPS_PER_NODE_UPDATE * updates,
        "kernel.bytes_computed": BYTES_PER_NODE_UPDATE * updates,
    })
    macro = c.get("stepper.macro_steps", 0)
    stepper_self = self_of("stepper.evolve")
    m.update({
        "stepper.macro_steps": macro,
        "stepper.substeps": c.get("stepper.substeps", 0),
        "stepper.self_s": stepper_self,
        "stepper.self_us_per_macro_step": 1e6 * stepper_self / macro if macro else 0.0,
        "stepper.sample_s": total("stepper.sample"),
        "stepper.moments_s": total("stepper.moments"),
    })
    m.update({
        "analytic.coeff_calls": c.get("analytic.coeff_calls", 0),
        "analytic.coeff_s": total("analytic.coeff"),
    })
    simulate = {i for i in members if spans[i][0] == "interference.simulate"}
    m.update({
        "interference.beams": sum(
            1 for i in members
            if spans[i][0] == "stepper.evolve" and spans[i][3] in simulate),
        "interference.self_s": self_of("interference.simulate"),
        "interference.fringes_s": total("interference.fringes"),
    })
    m.update({
        "trajectories.inversions": c.get("trajectories.inversions", 0),
        "trajectories.trace_s": total("trajectories.trace"),
    })
    write_s = total("tables.write")
    written = sum(os.path.getsize(p) for p in c.get("tables.paths", []))
    m.update({
        "tables.writes": c.get("tables.writes", 0),
        "tables.rows_written": c.get("tables.rows_written", 0),
        "tables.bytes_written": written,
        "tables.write_s": write_s,
        "tables.write_bytes_per_s": written / write_s if write_s else 0.0,
        "tables.reads": c.get("tables.reads", 0),
        "tables.read_s": total("tables.read"),
    })
    both = setup_members + members
    m.update({
        "config.loads": len(outermost("config.load", both)),
        "config.load_s": total("config.load", both),
        "config.grid_s": total("config.grid", both),
    })
    runners = [i for i in members if layer(i) == "cli"]
    m.update({
        "cli.commands": sum(1 for i in runners if spans[i][3] == root),
        "cli.self_s": sum(selfs[i] for i in runners),
    })
    return m
