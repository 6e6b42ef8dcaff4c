import importlib.util
import os
import shlex
import shutil
import sysconfig

import pytest

from balldiff import GaussianState, _kernel, make_physical_params
from balldiff._kernel import select_kernel


@pytest.fixture
def params():
    """Natural units: hbar = 1, mass = 1, so diffusivity = 0.5."""
    return make_physical_params(1.0, 1.0)


@pytest.fixture
def unit_state():
    return GaussianState(sigma0=1.0, center=0.0)


def _c_compiler() -> tuple[str, bool]:
    """``CC``, else the compiler Python was built with, and whether it is found."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return cc, shutil.which(shlex.split(cc)[0]) is not None


@pytest.fixture(scope="session")
def c_compiler():
    """Skip where no C compiler is found: ``CC``, else the one Python was built with."""
    cc, found = _c_compiler()
    if not found:
        pytest.skip(f"no C compiler ({cc}) to build the stencil kernel")


@pytest.fixture(scope="session")
def compiled_stencil(c_compiler, tmp_path_factory):
    """The compiled stencil kernel, built from the current source by ``_kernel.build``.

    It builds into a temp directory, so nothing is written into ``src/`` and a
    library there that older source produced is never the one tested. Skips
    only where no C compiler is found; a failed build with a compiler present
    fails the tests and shows the build's log.
    """
    out = tmp_path_factory.mktemp("stencil_build")
    log = _kernel.build(str(out))
    if log is not None:
        pytest.fail(f"stencil kernel failed to build:\n{log}")
    spec = importlib.util.spec_from_file_location("balldiff._stencil", out / _kernel._LIBRARY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def table_writers(request):
    """Each table writer's ``tables.format_rows``: None (the numpy writer), then the
    compiled formatter wherever a C compiler is found."""
    if not _c_compiler()[1]:
        return [None]
    return [None, request.getfixturevalue("compiled_stencil").format_rows]


@pytest.fixture(params=["python", "compiled"])
def kernel(request):
    """Each stencil backend in turn: the numpy fallback, then the compiled build."""
    if request.param == "python":
        return select_kernel("python")[0]
    return request.getfixturevalue("compiled_stencil")
