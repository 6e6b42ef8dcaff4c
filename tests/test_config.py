"""Config parsing: defaults, strict key checking, derived settings, grid sizing."""
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balldiff.core
from balldiff import ConfigError, ResourceLimitError, analytic_sigma
from balldiff.config import (
    SCHEMA,
    build_config,
    double_slit_grid,
    load_config,
    load_raw,
    single_beam_grid,
)

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """\
[grid]
dt = 0.01
t_final = 2.0
"""


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.params.hbar == 1.0
    assert cfg.params.diffusivity == 0.5
    assert cfg.state.sigma0 == 1.0
    assert cfg.dx == pytest.approx(1.0 / 16)
    assert cfg.safety_span == 10.0
    assert cfg.slits is None
    assert cfg.quantiles == tuple((i + 1) / 10 for i in range(9))
    assert cfg.snapshot_times == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert cfg.sigma_rel_tol is None


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[plotting]\ncolor = red\n")
    with pytest.raises(ConfigError, match="plotting"):
        load_raw(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[packet]\nwidth = 1.0\n")
    with pytest.raises(ConfigError, match="width"):
        load_raw(path)


def test_missing_time_settings_rejected(tmp_path):
    with pytest.raises(ConfigError, match="dt"):
        load_config(_write(tmp_path, "[grid]\nt_final = 1.0\n"))
    with pytest.raises(ConfigError, match="dt"):
        load_config(_write(tmp_path, "[grid]\ndt = 0.1\n"))


def test_default_dx_is_sigma0_over_16(tmp_path):
    text = "[packet]\nsigma0 = 2.0\n\n[grid]\ndt = 0.1\nt_final = 1.0\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.dx == 0.125


def test_symmetric_dvx_split(tmp_path):
    text = MINIMAL + "\n[slits]\nseparation = 6.0\ndvx = 2.0\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.slits.v1 == 1.0
    assert cfg.slits.v2 == -1.0
    assert cfg.slits.dvx == 2.0


def test_dvx_and_explicit_velocities_exclusive(tmp_path):
    text = MINIMAL + "\n[slits]\nseparation = 6.0\ndvx = 2.0\nv1 = 1.0\n"
    with pytest.raises(ConfigError, match="not both"):
        load_config(_write(tmp_path, text))


def test_slits_need_separation(tmp_path):
    text = MINIMAL + "\n[slits]\ndvx = 2.0\n"
    with pytest.raises(ConfigError, match="separation"):
        load_config(_write(tmp_path, text))


def test_quantiles_validated(tmp_path):
    bad_order = MINIMAL + "\n[trajectories]\nquantiles = 0.5, 0.3\n"
    with pytest.raises(ConfigError, match="increasing"):
        load_config(_write(tmp_path, bad_order))
    out_of_range = MINIMAL + "\n[trajectories]\nquantiles = 0.0, 0.5\n"
    with pytest.raises(ConfigError, match="quantiles"):
        load_config(_write(tmp_path, out_of_range))


def test_snapshot_times_validated(tmp_path):
    beyond = MINIMAL + "\n[output]\nsnapshot_times = 0.0, 3.0\n"
    with pytest.raises(ConfigError, match="t_final"):
        load_config(_write(tmp_path, beyond))
    negative = MINIMAL + "\n[output]\nsnapshot_times = -1.0, 0.0\n"
    with pytest.raises(ConfigError, match="snapshot_times"):
        load_config(_write(tmp_path, negative))


def test_empty_snapshot_times_refused(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[output]\nsnapshot_times =\n")
    with pytest.raises(ConfigError) as refused:
        load_config(path)
    assert str(refused.value) == f"{path}: [output] snapshot_times: empty list"


def test_non_finite_floats_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[grid]\ndt = inf\nt_final = 1.0\n"))


def test_safety_span_floor(tmp_path):
    text = "[grid]\ndt = 0.1\nt_final = 1.0\nsafety_span = 3.0\n"
    with pytest.raises(ConfigError, match="safety_span"):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize("section, line, message", [
    ("physical", "hbar = -1", "[physical] hbar must be > 0, got -1.0"),
    ("packet", "sigma0 = 1e-200",
     "[packet] sigma0 must lie in [1.49e-154, 1.34e+154], got 1e-200"),
    ("trajectories", "quantiles = 0.5, 1.5",
     "[trajectories] quantiles must lie in (0, 1), got 1.5"),
    ("output", "snapshot_times = -1, 0", "[output] snapshot_times must be >= 0, got -1.0"),
])
def test_out_of_domain_value_states_its_domain(tmp_path, section, line, message):
    text = MINIMAL + (f"{line}\n" if section == "grid" else f"\n[{section}]\n{line}\n")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError) as refused:
        load_config(path)
    assert str(refused.value) == f"{path}: {message}"


def test_sigma0_domain_is_exactly_the_normal_square_range():
    _, _, lo, hi = SCHEMA["packet"]["sigma0"]
    assert (lo, hi) == (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))
    grid = {"dt": 0.1, "t_final": 1.0}
    assert _built(packet={"sigma0": repr(lo)}, grid=grid).state.sigma0 == lo
    with pytest.raises(ConfigError, match="sigma0 must lie in"):
        _built(packet={"sigma0": repr(math.nextafter(lo, 0.0))}, grid=grid)


def _readme_config_rows():
    """(section, key) -> Domain cell of the README's configuration table."""
    text = README.read_text()
    table = text[text.index("## Configuration"):text.index("Sweep example:")]
    rows, section = {}, None
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or cells[0] in ("Section", "---"):
            continue
        section = cells[0].strip("`[]") or section
        for key in cells[1].split(", "):
            rows[section, key.strip("`")] = cells[3]
    return rows


def _domain_cell(spec):
    kind, *domain = spec
    if not domain:
        return ""
    op, *bounds = domain
    if op in (">", ">="):
        return f"`{op} {bounds[0]:.3g}`"
    return f"`{op[0]}{bounds[0]:.3g}, {bounds[1]:.3g}{op[1]}`"


def test_readme_config_table_states_each_schema_domain():
    rows = _readme_config_rows()
    for section, specs in SCHEMA.items():
        for key, spec in specs.items():
            assert rows.get((section, key)) == _domain_cell(spec), (section, key)


def test_readme_config_table_lists_exactly_the_schema_keys():
    keys = {(section, key) for section, specs in SCHEMA.items() for key in specs}
    assert set(_readme_config_rows()) == keys | {("sweep", "command"), ("sweep", "section.key")}


def test_missing_file_reported(tmp_path):
    with pytest.raises(ConfigError):
        load_raw(tmp_path / "absent.cfg")


def _built(**sections):
    """build_config over {section: {key: value}}, values written as config text."""
    raw = {name: {k: str(v) for k, v in kv.items()} for name, kv in sections.items()}
    return build_config(raw, "test")


def _half_width(grid):
    return (grid.nx - 1) // 2 * grid.dx


def test_single_beam_grid_spacing_and_width():
    g = single_beam_grid(_built(grid={"dx": 1.0 / 10, "dt": 0.1, "t_final": 0.0}))
    assert g.dx == 0.1
    assert g.nx % 2 == 1
    assert _half_width(g) >= 10.0 - 1e-12


def test_single_beam_grid_covers_final_spread():
    # D = 1 here, so sigma(1) = sqrt(2)
    cfg = _built(physical={"hbar": 2.0},
                 grid={"dx": 1.0 / 10, "dt": 0.1, "t_final": 1.0})
    assert _half_width(single_beam_grid(cfg)) >= 10.0 * math.sqrt(2.0) - 1e-12


def test_single_beam_grid_center_is_a_node():
    cfg = _built(packet={"sigma0": 0.7, "center": 3.2},
                 grid={"dx": 0.7 / 16, "dt": 0.1, "t_final": 2.0})
    g = single_beam_grid(cfg)
    assert g.x[(g.nx - 1) // 2] == pytest.approx(3.2, abs=1e-12)


def test_single_beam_grid_resource_cap(monkeypatch):
    long_run = _built(physical={"hbar": 2.0},
                      grid={"dx": 1.0 / 10, "dt": 0.1, "t_final": 1e6})
    with pytest.raises(ResourceLimitError):
        single_beam_grid(long_run)
    # 10 sigma0 each side at 10 points per sigma0 needs 201 nodes
    capped = _built(grid={"dx": 1.0 / 10, "dt": 0.1, "t_final": 0.0})
    monkeypatch.setattr(balldiff.core, "NX_CAP", 201)
    assert single_beam_grid(capped).nx == 201
    monkeypatch.setattr(balldiff.core, "NX_CAP", 200)
    with pytest.raises(ResourceLimitError, match="cap 200"):
        single_beam_grid(capped)


@settings(max_examples=60, deadline=None)
@given(sigma0=st.floats(0.1, 10.0), t_final=st.floats(0.0, 100.0))
def test_single_beam_grid_postconditions_hold(sigma0, t_final):
    cfg = _built(packet={"sigma0": sigma0},
                 grid={"dx": sigma0 / 10, "safety_span": 10.0, "dt": 0.1,
                       "t_final": t_final})
    g = single_beam_grid(cfg)
    assert g.dx == sigma0 / 10
    assert g.nx % 2 == 1
    need = 10.0 * analytic_sigma(t_final, sigma0, cfg.params.diffusivity)
    assert _half_width(g) >= need - 1e-9 * need


@pytest.mark.parametrize("velocities", [{"dvx": 2.0}, {"v1": 1.5, "v2": 0.5}],
                         ids=["symmetric", "asymmetric"])
def test_double_slit_grid_covers_drifted_beams(velocities):
    cfg = _built(grid={"dx": 1.0 / 16, "safety_span": 10.0, "dt": 0.01,
                       "t_final": 2.0},
                 slits={"separation": 6.0, **velocities})
    grid = double_slit_grid(cfg)
    assert grid.nx % 2 == 1
    assert grid.x[(grid.nx - 1) // 2] == 0.0
    # each beam starts at -/+3, drifts at its velocity, and spreads to 10 sigma(t)
    for x0, v in ((-3.0, cfg.slits.v1), (3.0, cfg.slits.v2)):
        for t in (0.0, 2.0):
            reach = 10.0 * analytic_sigma(t, 1.0, 0.5)
            assert grid.x_min <= x0 + v * t - reach + 1e-9
            assert grid.x_max >= x0 + v * t + reach - 1e-9


@settings(max_examples=200, deadline=None)
@given(t_final=st.floats(0.0, 1e300))
def test_default_snapshot_times_are_quarters_of_t_final(t_final):
    cfg = _built(grid={"dt": 0.1, "t_final": t_final})
    assert cfg.snapshot_times == tuple(sorted({t_final * i / 4 for i in range(5)}))
