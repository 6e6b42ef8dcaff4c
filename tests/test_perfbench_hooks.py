"""The benchmark's traced run rebinds balldiff names; each one must still exist."""
import importlib
import importlib.util
from pathlib import Path

import balldiff.cli as cli
from balldiff.config import load_config, load_raw

REPO = Path(__file__).resolve().parent.parent
SPANS = REPO / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_trace_targets_resolve():
    spans = _load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def test_traced_table_counts_cover_every_file_written(tmp_path):
    """Every table of spread, doubleslit, convergence and a one-worker sweep goes through
    the traced write_table."""
    configs = REPO / "configs"
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert cli.run_spread(load_config(configs / "spread.cfg"), tmp_path / "spread",
                              quiet=True) == 0
        assert cli.run_doubleslit(load_config(configs / "doubleslit.cfg"),
                                  tmp_path / "doubleslit", quiet=True) == 0
        assert cli.run_convergence(load_config(configs / "convergence.cfg"),
                                   tmp_path / "convergence", quiet=True) == 0
        sweep = configs / "sweep_dvx.cfg"
        assert cli.run_sweep(load_raw(sweep), str(sweep), tmp_path / "sweep", workers=1,
                             quiet=True) == 0
    finally:
        tracer.restore()
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert files
    assert tracer.counts["tables.writes"] == len(files)
    assert sorted(Path(p) for p in tracer.counts["tables.paths"]) == files
    data_rows = sum(len(p.read_text().splitlines()) - 1 for p in files)
    assert tracer.counts["tables.rows_written"] == data_rows
