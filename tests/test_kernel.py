"""Stencil kernel backends: selection rules, the build on import, and bit-exact agreement."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balldiff
from balldiff import kernel_backend
from balldiff._kernel import select_kernel

_py_impl, _ = select_kernel("python")

REPO = Path(__file__).resolve().parent.parent


def _allocating_passes(values, nus):
    """Reference numpy kernel: fresh temporaries and edge writes on every pass."""
    a = np.array(values, dtype=np.float64)
    b = np.empty_like(a)
    for nu in nus:
        b[0] = a[0]
        b[-1] = a[-1]
        lap = (a[2:] - 2.0 * a[1:-1]) + a[:-2]
        b[1:-1] = a[1:-1] + nu * lap
        a, b = b, a
    return a


def test_backend_reports_known_name():
    assert kernel_backend() in ("python", "compiled")


def test_select_python_always_available():
    impl, name = select_kernel("python")
    assert name == "python"
    out = impl.apply_passes(np.array([0.0, 1.0, 0.0]), np.array([0.25]))
    assert np.array_equal(out, [0.0, 0.5, 0.0])


def test_select_auto_returns_some_backend():
    impl, name = select_kernel("auto")
    assert name in ("python", "compiled")
    assert hasattr(impl, "apply_passes")


def test_select_compiled_without_the_extension_refused(monkeypatch):
    monkeypatch.delattr(balldiff, "_stencil", raising=False)
    monkeypatch.setitem(sys.modules, "balldiff._stencil", None)  # as if never built
    with pytest.raises(ImportError) as refused:
        select_kernel("compiled")
    assert str(refused.value) == "the compiled kernel is not built; build it with a C toolchain"
    assert select_kernel("auto")[1] == "python"


def _copy_of(package, root, ignore=()):
    """A copy of ``package``'s checkout under ``root``, file times kept, less ``ignore``."""
    shutil.copy2(package.parents[1] / "setup.py", root)
    return shutil.copytree(package, root / "src" / "balldiff",
                           ignore=shutil.ignore_patterns(*ignore))


def _checkout(root):
    """A copy of this checkout under ``root`` that holds no built library or log."""
    return _copy_of(REPO / "src" / "balldiff", root,
                    ("_stencil*.so", "_stencil.build.log", "__pycache__"))


def _backend(package, prelude="", **env):
    """``kernel_backend()`` in a fresh interpreter that runs ``prelude``, then imports balldiff."""
    proc = subprocess.run(
        [sys.executable, "-c", prelude + "import balldiff; print(balldiff.kernel_backend())"],
        env={**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1",
             **env},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr  # the build prints nothing
    return proc.stdout.strip()


def _files(package):
    return {p.name: p.stat().st_mtime_ns for p in package.iterdir()}


@pytest.fixture(scope="module")
def built_checkout(tmp_path_factory, c_compiler):
    """A checkout after its first import: its files before it, its package, its backend."""
    package = _checkout(tmp_path_factory.mktemp("checkout"))
    before = _files(package)
    return before, package, _backend(package)


def test_first_import_of_a_checkout_builds_the_compiled_kernel(built_checkout):
    before, package, backend = built_checkout
    assert backend == "compiled"
    after = _files(package)
    library = [name for name in after if name not in before]  # no log, no scratch directory
    assert len(library) == 1 and library[0].startswith("_stencil.") and library[0].endswith(".so")
    assert {name: after[name] for name in before} == before


def test_second_import_does_not_rebuild(built_checkout, tmp_path):
    package = _copy_of(built_checkout[1], tmp_path)
    before = _files(package)
    assert _backend(package) == "compiled"
    assert _files(package) == before


def test_touching_the_source_rebuilds_and_clears_an_old_log(built_checkout, tmp_path):
    package = _copy_of(built_checkout[1], tmp_path)
    (package / "_stencil.build.log").write_text("an earlier failure\n")
    before = _files(package)
    os.utime(package / "_stencil.c")
    assert _backend(package) == "compiled"
    after = _files(package)
    changed = {name for name, mtime in after.items() if before.get(name) != mtime}
    assert len(changed) == 2 and "_stencil.c" in changed  # and the library, rebuilt
    assert "_stencil.build.log" not in after


def test_broken_source_drops_a_stale_library(built_checkout, tmp_path):
    package = _copy_of(built_checkout[1], tmp_path)
    with open(package / "_stencil.c", "a") as source:
        source.write("\nthis is not C;\n")
    assert _backend(package) == "python"  # not the library older source produced
    assert not any(p.suffix == ".so" for p in package.iterdir())
    assert "_stencil.c" in (package / "_stencil.build.log").read_text()


def test_without_a_compiler_the_build_is_logged_once(tmp_path):
    package = _checkout(tmp_path)
    assert _backend(package, CC="no-such-cc") == "python"
    log = package / "_stencil.build.log"
    assert "no-such-cc" in log.read_text()
    before = _files(package)
    assert not any(name.endswith(".so") for name in before)
    assert _backend(package, CC="no-such-cc") == "python"
    assert _files(package) == before  # no retry rewrote the log


@pytest.mark.parametrize("layout", ["foreign_setup_py", "not_under_src"])
def test_only_balldiffs_own_checkout_builds(tmp_path, layout):
    package = _checkout(tmp_path)
    if layout == "foreign_setup_py":  # balldiff vendored beside another project's setup.py
        (tmp_path / "setup.py").write_text("open('ran', 'w')\n")
    else:  # lib/balldiff: the setup.py two directories up is not the one that builds it
        package = (tmp_path / "src").rename(tmp_path / "lib") / "balldiff"
    before = _files(package)
    assert _backend(package) == "python"
    assert _files(package) == before and not (tmp_path / "ran").exists()


def test_read_only_package_is_left_untouched(tmp_path):
    package = _checkout(tmp_path)
    before = _files(package)
    package.chmod(0o555)
    # root may write whatever the mode bits say, so stand in for the refusal it never gets
    prelude = "import os; os.access = lambda *a, **k: False; " if os.geteuid() == 0 else ""
    try:
        assert _backend(package, prelude) == "python"
    finally:
        package.chmod(0o755)
    assert _files(package) == before


def test_select_unknown_name_rejected():
    with pytest.raises(ValueError):
        select_kernel("fortran")


def test_apply_passes_leaves_input_untouched(kernel):
    a = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    before = a.copy()
    for n_passes in (0, 1, 2):  # the fresh copy, then either ping-pong buffer
        out = kernel.apply_passes(a, np.full(n_passes, 0.3))
        assert np.array_equal(a, before)
        assert not np.shares_memory(out, a)


def test_apply_passes_rejects_tiny_arrays(kernel):
    with pytest.raises(ValueError, match="stencil needs at least 3 nodes"):
        kernel.apply_passes(np.array([1.0, 2.0]), np.array([0.1]))


@pytest.mark.parametrize("values, nu, expected", [
    pytest.param([0.0, 0.0, 1.0, 0.0, 0.0], 0.5, [0.0, 0.5, 0.0, 0.5, 0.0],
                 id="spike_at_half_limit"),
    pytest.param([0.7, 0.7, 0.7, 0.7], 0.37, [0.7, 0.7, 0.7, 0.7], id="uniform_is_identity"),
])
def test_apply_passes_exact_values(kernel, values, nu, expected):
    out = kernel.apply_passes(np.array(values), np.array([nu]))
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("nx", [3, 4, 17, 1000, 4097])
@pytest.mark.parametrize("n_passes", [0, 1, 7, 64])
@pytest.mark.parametrize("layout", ["contiguous", "values_strided", "nus_strided", "values_float32"])
def test_backends_bitwise_identical(compiled_stencil, nx, n_passes, layout):
    rng = np.random.default_rng(nx * 1000 + n_passes)
    values = rng.random(2 * nx)
    nus = rng.random(2 * n_passes) * 0.5
    values = values[::2] if layout == "values_strided" else values[:nx]
    nus = nus[::2] if layout == "nus_strided" else nus[:n_passes]
    if layout == "values_float32":
        values = values.astype(np.float32)
    out_py = _py_impl.apply_passes(values, nus)
    out_c = compiled_stencil.apply_passes(values, nus)
    assert out_c.dtype == np.float64
    assert np.array_equal(out_py, out_c)


@pytest.mark.parametrize("nx", [3, 4, 17, 1000])
@pytest.mark.parametrize("n_passes", [0, 1, 2, 7, 64])
@pytest.mark.parametrize("layout", ["contiguous", "values_strided", "values_float32"])
def test_python_kernel_matches_allocating_reference(nx, n_passes, layout):
    rng = np.random.default_rng(nx * 1000 + n_passes)
    values = rng.random(2 * nx)
    values = values[::2] if layout == "values_strided" else values[:nx]
    if layout == "values_float32":
        values = values.astype(np.float32)
    nus = (rng.random(n_passes) * 0.5).tolist()
    out = _py_impl.apply_passes(values, nus)
    assert out.dtype == np.float64
    assert np.array_equal(out, _allocating_passes(values, nus))


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1e6), min_size=3, max_size=40),
    nus=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=8),
)
def test_backends_bitwise_identical_property(compiled_stencil, values, nus):
    a = np.array(values)
    n = np.array(nus)
    assert np.array_equal(_py_impl.apply_passes(a, n), compiled_stencil.apply_passes(a, n))


def test_edges_held_through_passes(kernel):
    a = np.array([3.0, 1.0, 0.0, 1.0, 7.0])
    out = kernel.apply_passes(a, np.array([0.4, 0.4, 0.4]))
    assert out[0] == 3.0
    assert out[-1] == 7.0


def _rows_input(rows, nx, layout):
    """A (rows, nx) array in the given memory layout."""
    base = np.random.default_rng(rows * 10_000 + nx).random((rows, 2 * nx))
    values = np.ascontiguousarray(base[:, :nx])
    if layout == "strided":
        return base[:, ::2]
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "float32":
        return values.astype(np.float32)
    return values


@pytest.mark.parametrize("rows", [0, 1, 2, 3])
@pytest.mark.parametrize("nx", [3, 4, 17, 1000])
@pytest.mark.parametrize("n_passes", [0, 1, 2, 7])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran", "float32"])
def test_rows_march_as_independent_lines(kernel, rows, nx, n_passes, layout):
    values = _rows_input(rows, nx, layout)
    before = values.copy()
    nus = np.random.default_rng(n_passes).random(n_passes) * 0.5
    out = kernel.apply_passes(values, nus)
    assert out.shape == (rows, nx) and out.dtype == np.float64
    assert np.array_equal(values, before)
    for row, got in zip(values, out):
        assert np.array_equal(got, kernel.apply_passes(row, nus))
    assert np.array_equal(out[:, [0, -1]], before[:, [0, -1]])


@pytest.mark.parametrize("rows", [0, 1, 2, 3])
@pytest.mark.parametrize("nx", [3, 4, 17, 1000])
@pytest.mark.parametrize("n_passes", [0, 1, 2, 7])
@pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran", "float32"])
def test_backends_bitwise_identical_on_rows(compiled_stencil, rows, nx, n_passes, layout):
    values = _rows_input(rows, nx, layout)
    nus = np.random.default_rng(n_passes).random(n_passes) * 0.5
    out_py = _py_impl.apply_passes(values, nus)
    assert np.array_equal(out_py, compiled_stencil.apply_passes(values, nus))


def test_apply_passes_rejects_short_rows(kernel):
    with pytest.raises(ValueError, match="stencil needs at least 3 nodes"):
        kernel.apply_passes(np.ones((2, 2)), np.array([0.1]))


def test_apply_passes_refuses_three_dimensions(kernel):
    with pytest.raises(ValueError):
        kernel.apply_passes(np.ones((2, 2, 5)), np.array([0.1]))
