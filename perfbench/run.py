#!/usr/bin/env python3
"""Layered benchmark of balldiff: end-to-end metrics, or per-layer ones when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh interpreter
(``child.py``), started one at a time; repetitions continue until
``--seconds`` have passed and at least three have run. With ``--trace 0``
every repetition is untraced and the end-to-end metrics are medians over
them; ``wall_ref`` is the median of each repetition's wall time divided by
a reference computation timed in the same process, which cancels the host's
slow swings in speed. With ``--trace 1`` untraced and traced repetitions
alternate and the per-layer metrics are medians over the traced ones.

The run fails (exit 1) when any closed-form check fails, when two
repetitions of the seed write different output bytes, or when the numpy and
compiled kernels disagree. The last stdout line is the JSON result; the line
before it holds the run metadata. Both are also kept, with the spans of the
last traced repetition, under ``.perfbench_work/<workload>/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_REPS = 3
MIN_SETUP_SAMPLES = 9
WARMUP_S = 1.0
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "sigma_rel_err_max": "ratio",
    "fringe_err_cells_max": "cells",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_frac"):
        return "ratio"
    if name == "kernel.passes_per_call":
        return "passes/call"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us_per_macro_step"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if "flops" in name:
        return "flop"
    return "count"


class BenchError(Exception):
    """A repetition could not run; the benchmark prints no result."""


def _child(spec_path: Path, out: Path, *flags: str) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(out), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _cache_sizes() -> list[dict]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({f: (index / f).read_text().strip()
                           for f in ("level", "type", "size")})
        except OSError:
            continue
    return caches


def _size_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and p.suffix in (".py", ".pyx", ".c")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(args) -> tuple[dict, dict]:
    spec = workloads.make_spec(args.workload, args.seed, args.tiny)
    work = WORK / (("tiny-" if args.tiny else "") + args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for name, text in spec["configs"].items():
        (inputs / name).write_text(text)
    spec_path = inputs / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    reps = 0

    def rep(*flags):
        nonlocal reps
        reps += 1
        result = _child(spec_path, work / f"rep{reps}" / "out", *flags)
        if "--trace" in flags:
            shutil.move(work / f"rep{reps}" / "spans.json", work / "spans.json")
        shutil.rmtree(work / f"rep{reps}")
        failures.extend(result.get("failures", ()))
        return result

    # Warm-up, not measured: the first interpreter in a fresh checkout
    # compiles balldiff's bytecode, a cost users pay once, not per run.
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_S:
        rep("--setup-only")

    start = time.perf_counter()
    while True:
        plain.append(rep())
        if args.trace:
            traced.append(rep("--trace"))
        done = len(plain) >= (2 if args.trace else MIN_REPS)
        if done and time.perf_counter() - start >= args.seconds:
            break

    setup_samples = [r["setup_s"] for r in plain]
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        setup_samples.append(rep("--setup-only")["setup_s"])

    parity = _child(spec_path, work / "parity" / "out", "--parity")
    shutil.rmtree(work / "parity")
    if parity["parity"] == "mismatch":
        failures.append(f"kernel parity: {parity['parity_mismatches']} of "
                        f"{parity['parity_calls']} calls differ between backends")

    digests = {r["digest"] for r in plain + traced}
    if len(digests) != 1:
        failures.append(f"output hash differs between repetitions of seed {args.seed}: "
                        f"{sorted(digests)}")
    for key in ("sigma_rel_err_max", "fringe_err_cells_max"):
        if len({r[key] for r in plain + traced}) != 1:
            failures.append(f"{key} differs between repetitions of seed {args.seed}")

    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    first = plain[0]
    wall = statistics.median([r["wall_s"] for r in plain])
    if args.trace:
        layers = {name: statistics.median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        layers["cli.sweep_points"] = first["sweep_points"]
        layers["cli.sweep_points_failed"] = first["sweep_points_failed"]
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / wall - 1.0
        layers["untraced.wall_s"] = wall
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_ref": statistics.median([r["wall_s"] / r["ref_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
            "passed_frac": (attempted - failed) / attempted,
            "sigma_rel_err_max": first["sigma_rel_err_max"],
            "fringe_err_cells_max": first["fringe_err_cells_max"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    caches = _cache_sizes()
    llc = max((c for c in caches if c["type"] in ("Unified", "Data")),
              key=lambda c: int(c["level"]), default=None)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "backend": first["backend"],
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "repetitions": {"untraced": len(plain), "traced": len(traced),
                        "setup_samples": len(setup_samples)},
        "wall_s": wall,
        "wall_s_samples": [r["wall_s"] for r in plain],
        "ref_s_samples": [r["ref_s"] for r in plain],
        "setup_s_samples": setup_samples,
        "commands_s": {label: statistics.median([r["commands"][label] for r in plain])
                       for label in first["commands"]},
        "output_sha256": digests.pop() if len(digests) == 1 else None,
        "failures": failures,
        **parity,
    }
    # The kernel's ping-pong buffers: two float64 rows of the largest grid
    # sized at set-up (exact for kernel_long; convergence refines further).
    working_set = 2 * 8 * first["nx"]
    meta["kernel_working_set_bytes"] = working_set
    if llc is not None:
        meta["last_level_cache_bytes"] = _size_bytes(llc["size"])
    if args.trace:
        by_nx = traced[0]["kernel_passes_by_nx"]
        meta["layers"] = layers
        meta["kernel"] = {
            "nx": int(max(by_nx, key=lambda nx: (int(nx) - 2) * by_nx[nx])) if by_nx else 0,
            "passes": layers["kernel.passes"],
            "node_updates_per_s": layers["kernel.node_updates_per_s"],
            "flops_and_bytes": "computed at 5 flop and 16 B per node-update, not measured",
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shortened runs for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "balldiff" / "__init__.py").is_file():
        print(f"error: no balldiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, meta = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in meta["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:12s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:12s} {'(wall_s, not normalized)':34s} {meta['wall_s']:.6g} s")
    work = WORK / (("tiny-" if args.tiny else "") + args.workload)
    (work / "result.json").write_text(json.dumps({"result": result, "meta": meta}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
