"""Seeded workload inputs for the balldiff benchmark.

This module uses only the standard library: the driver imports it to write
each run's config files before any balldiff code is loaded. A seed perturbs
packet centers, widths, slit separations and snapshot times, and keeps grid
sizes and stencil pass counts within a few percent, so every seed measures
the same amount of work and passes the same closed-form checks.

Why each workload exists:

* ``kernel_long`` - the acceptance-2 problem (t_final = 100, dx = 0.125,
  about 8,000 nodes and 2e5 stencil passes) through the public API. The
  stencil kernel does about 98% of the work in a few long calls on a
  cache-resident grid, so a kernel change shows here and a schedule or
  table change does not.
* ``tables_io`` - the ``spread`` and ``trajectories`` commands at their
  shipped shapes plus a ``spread`` sweep whose points are read back for the
  manifest. Table writing is about half the wall time and the kernel runs
  calls of tens of passes, so table-format changes show here.
* ``small_grids`` - the ``convergence`` ladder, ``doubleslit`` and the
  ``doubleslit`` sweep over dvx. Thousands of one-pass kernel calls on
  grids under 1k nodes, so substep scheduling, coefficient calls, beam
  composition and CLI orchestration outweigh the kernel; schedule
  vectorization and beam batching show here.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("kernel_long", "tables_io", "small_grids")

# Relative seed perturbation of sigma0. Stencil passes scale as sigma0**-2
# and nodes as sigma0**-1, so 0.5% keeps the work within about 1.5%.
SIGMA0_JITTER = 0.005

# Tolerances of the checks, taken from the shipped configs and the
# acceptance gate: spread.cfg's sigma_rel_tol, doubleslit.cfg's
# fringe_cell_tol, trajectories.cfg's homothety_tol, acceptance 2's slope
# window and the CLI's convergence-order window.
SIGMA_REL_TOL = 0.005
FRINGE_CELL_TOL = 1.0
HOMOTHETY_TOL = 0.01
SLOPE_TOL = 0.02
ORDER_WINDOW = (1.7, 2.3)

# Single-packet workloads have no second beam. Their fringe check composes
# the final evolved density with a displaced copy of itself (the two-wave
# rule of acceptance 5) at a fringe spacing of this many cells, so that
# about a hundred maxima are checked. The spacing is irrational in cells,
# so the maxima sample every offset from the grid rather than a few.
PROBE_CELLS_PER_FRINGE = 5.0 * math.pi


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        for key, value in items.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _jitter_times(rng: random.Random, first: float, last: float, count: int,
                  frac: float = 0.3) -> list[float]:
    """``count`` sorted times from ``first`` to ``last``; interior ones move.

    Each interior time moves by at most ``frac`` of the spacing, so the
    order never changes and the endpoints (which fix the run length and the
    homothety reference) stay put.
    """
    step = (last - first) / (count - 1)
    times = [first + i * step for i in range(count)]
    for i in range(1, count - 1):
        times[i] += rng.uniform(-frac, frac) * step
    return [round(t, 6) for t in times]


def _packet(rng: random.Random) -> dict[str, float]:
    return {
        "sigma0": round(1.0 + rng.uniform(-SIGMA0_JITTER, SIGMA0_JITTER), 6),
        "center": round(rng.uniform(-0.5, 0.5), 6),
    }


def _kernel_long(rng: random.Random, tiny: bool) -> dict:
    t_final = 10.0 if tiny else 100.0
    packet = _packet(rng)
    return {
        "api": {
            "hbar": 1.0,
            "mass": 1.0,
            **packet,
            "dx": 0.125,
            "dt": 0.1,
            "t_final": t_final,
            "safety_span": 10.0,
            "snapshot_times": _jitter_times(rng, 0.1 * t_final, t_final, 25),
        },
        "configs": {},
        "commands": [],
    }


def _tables_io(rng: random.Random, tiny: bool) -> dict:
    t_final = 1.0 if tiny else 4.0
    physical = {"hbar": 1.0, "mass": 1.0}
    spread = _ini({
        "physical": physical,
        "packet": _packet(rng),
        "grid": {"dx": 0.02, "dt": 0.01, "t_final": t_final, "safety_span": 10.0},
        "output": {
            "snapshot_times": _jitter_times(rng, 0.0, t_final, 17),
            "sigma_rel_tol": SIGMA_REL_TOL,
        },
    })
    trajectories = _ini({
        "physical": physical,
        "packet": _packet(rng),
        "grid": {"dx": 0.05, "dt": 0.01, "t_final": t_final, "safety_span": 10.0},
        "trajectories": {"quantiles": [i / 10 for i in range(1, 10)], "v_y": 1.0},
        "output": {
            "snapshot_times": _jitter_times(rng, 0.0, t_final, 9),
            "homothety_tol": HOMOTHETY_TOL,
        },
    })
    packet = _packet(rng)
    sweep_t = 0.5 * t_final
    sweep = _ini({
        "physical": physical,
        "packet": packet,
        "grid": {"dx": 0.02, "dt": 0.01, "t_final": sweep_t, "safety_span": 10.0},
        "output": {
            "snapshot_times": _jitter_times(rng, 0.0, sweep_t, 9),
            "sigma_rel_tol": SIGMA_REL_TOL,
        },
        "sweep": {
            "command": "spread",
            "packet.sigma0": [round(packet["sigma0"] * f, 6) for f in (0.95, 1.0, 1.05)],
        },
    })
    return {
        "api": None,
        "configs": {
            "spread.cfg": spread,
            "trajectories.cfg": trajectories,
            "sweep_spread.cfg": sweep,
        },
        "commands": [
            ["spread", "spread.cfg"],
            ["trajectories", "trajectories.cfg"],
            ["sweep", "sweep_spread.cfg"],
        ],
    }


def _small_grids(rng: random.Random, tiny: bool) -> dict:
    physical = {"hbar": 1.0, "mass": 1.0}
    convergence = _ini({
        "physical": physical,
        "packet": _packet(rng),
        "grid": {"dx": 0.2, "dt": 0.05, "t_final": 1.0, "safety_span": 10.0},
    })
    t_final = 1.0 if tiny else 2.0

    def slit_config(times: list[float], sweep: dict | None) -> str:
        sections = {
            "physical": physical,
            "packet": {"sigma0": _packet(rng)["sigma0"]},
            "grid": {"dx": 0.0625, "dt": 0.01, "t_final": t_final, "safety_span": 10.0},
            # dvx stays fixed: fringe positions depend only on dvx and dx.
            "slits": {"separation": round(6.0 + rng.uniform(-0.2, 0.2), 6), "dvx": 2.0},
            "output": {"snapshot_times": times, "fringe_cell_tol": FRINGE_CELL_TOL},
        }
        if sweep is not None:
            sections["sweep"] = sweep
        return _ini(sections)

    doubleslit = slit_config(_jitter_times(rng, 0.0, t_final, 5), None)
    sweep = slit_config(
        _jitter_times(rng, 0.0, t_final, 3),
        {"command": "doubleslit", "slits.dvx": [0.5, 1.0, 2.0]},
    )
    return {
        "api": None,
        "configs": {
            "convergence.cfg": convergence,
            "doubleslit.cfg": doubleslit,
            "sweep_dvx.cfg": sweep,
        },
        "commands": [
            ["convergence", "convergence.cfg", 2 if tiny else 3],
            ["doubleslit", "doubleslit.cfg"],
            ["sweep", "sweep_dvx.cfg"],
        ],
    }


# How long the machine-speed reference (child.reference_s) runs on each
# side of a repetition: about a tenth of the repetition's wall time. A long
# repetition needs a long reference to see the same stretch of host load.
REFERENCE_S = {"kernel_long": 0.5, "tables_io": 0.06, "small_grids": 0.03}

_BUILDERS = {
    "kernel_long": _kernel_long,
    "tables_io": _tables_io,
    "small_grids": _small_grids,
}


def make_spec(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one workload for one seed: config texts and the command list.

    ``tiny`` shortens every run for the benchmark's self-test; the checks
    and their tolerances are the same.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    spec = _BUILDERS[workload](random.Random(seed), tiny)
    spec.update(workload=workload, seed=seed, tiny=tiny,
                reference_s=0.0 if tiny else REFERENCE_S[workload])
    return spec
