"""Backend selection for the stencil and the table formatter: the compiled extension
where it is built (a source checkout builds it on its first import), else the numpy
stencil and ``format_rows = None``, which sends tables to the numpy writer in ``tables``."""
import contextlib
import importlib.machinery
import os
import sys

from . import _stencil_py

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))  # holds setup.py in a source checkout
_LIBRARY = "_stencil" + importlib.machinery.EXTENSION_SUFFIXES[0]
_LOG = "_stencil.build.log"


def _mtime(name: str) -> float:
    try:
        return os.stat(os.path.join(_HERE, name)).st_mtime
    except OSError:
        return float("-inf")


def build(dest: str = _HERE) -> str | None:
    """Build the extension into dest; None, or the failed build's log, kept there instead."""
    import subprocess
    import tempfile
    with tempfile.TemporaryDirectory(prefix=".stencil-build-", dir=dest) as tmp:
        proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--build-lib", tmp,
                               "--build-temp", tmp], cwd=_ROOT, capture_output=True, text=True)
        built = os.path.join(tmp, "balldiff", _LIBRARY)
        ok = os.path.exists(built)  # the extension is optional: a failed compile exits 0 too
        if ok:
            os.replace(built, os.path.join(dest, _LIBRARY))  # atomic: racing imports end compiled
            importlib.invalidate_caches()
    with contextlib.suppress(FileNotFoundError):  # keep nothing older than this build
        os.remove(os.path.join(dest, _LOG if ok else _LIBRARY))
    if not ok:
        with open(os.path.join(dest, _LOG), "w") as log:
            log.write(proc.stdout + proc.stderr)
    return None if ok else proc.stdout + proc.stderr


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
            raise ImportError("the compiled kernel is not built; "
                              "build it with a C toolchain") from None
        return _stencil_py, "python"
    return _stencil, "compiled"


if (_mtime(_LIBRARY) < _mtime("_stencil.c") >= _mtime(_LOG)  # stale, no failure since
        and _HERE == os.path.join(_ROOT, "src", "balldiff") and os.access(_HERE, os.W_OK)):
    with contextlib.suppress(OSError), open(os.path.join(_ROOT, "setup.py")) as setup_py:
        if "balldiff._stencil" in setup_py.read():  # balldiff's own setup.py, not a neighbour's
            build()  # a build that cannot start, like a failed one, leaves the numpy kernel
_impl, KERNEL_BACKEND = select_kernel()
apply_passes = _impl.apply_passes
format_rows = _impl.format_rows if KERNEL_BACKEND == "compiled" else None
