"""Stencil backend selection.

The compiled extension is used when built; otherwise the numpy
implementation takes over transparently.
"""
from . import _stencil_py


def select_kernel(name: str = "auto"):
    """Return (module, backend_name); "auto" falls back to numpy, "compiled" raises."""
    if name not in ("auto", "python", "compiled"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "python":
        return _stencil_py, "python"
    try:
        from . import _stencil
    except ImportError:
        if name == "compiled":
            raise ImportError(
                "the compiled kernel is not built; build it with a C toolchain"
            ) from None
        return _stencil_py, "python"
    return _stencil, "compiled"


_impl, KERNEL_BACKEND = select_kernel()
apply_passes = _impl.apply_passes
