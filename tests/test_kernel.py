"""Stencil kernel backends: selection rules and bit-exact agreement."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balldiff import kernel_backend
from balldiff._kernel import select_kernel

_py_impl, _ = select_kernel("python")


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
