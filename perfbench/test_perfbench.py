"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench

Each workload, including ``kernel_long``, which BENCHMARK.json leaves out,
runs once untraced and once traced. The test checks that every
metric named in BENCHMARK.json is emitted with its unit and that the span
self times of the traced run add up to its wall time.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _expect_metrics(result: dict, declared: list[dict]) -> None:
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in declared}
    for m in declared:
        assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(emitted[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    _expect_metrics(result, BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] != 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_wall_time(workload):
    result = _run(workload, 1)
    _expect_metrics(result, BENCHMARK["per_layer"])

    record = json.loads((ROOT / ".perfbench_work" / f"tiny-{workload}" / "spans.json").read_text())
    spans = record["spans"]
    run_root = [i for i, s in enumerate(spans) if s["parent"] == -1 and s["name"] == "run"]
    assert len(run_root) == 1
    root = run_root[0]
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += s["end"] - s["start"]
    inside = {root}
    self_sum = 0.0
    for i in range(root, len(spans)):
        s = spans[i]
        if i != root and s["parent"] not in inside:
            continue
        inside.add(i)
        assert s["start"] <= s["end"] and children[i] <= s["end"] - s["start"] + 1e-9
        self_sum += (s["end"] - s["start"]) - children[i]
    wall = spans[root]["end"] - spans[root]["start"]
    assert self_sum == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert wall == pytest.approx(record["wall_s"], rel=0.05)
    layers = record["layers"]
    attributed = sum(v for k, v in layers.items() if k.startswith("attrib."))
    assert attributed == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.wall_s"] == wall
