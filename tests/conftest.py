import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from balldiff import GaussianState, make_physical_params
from balldiff._kernel import select_kernel

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def params():
    """Natural units: hbar = 1, mass = 1, so diffusivity = 0.5."""
    return make_physical_params(1.0, 1.0)


@pytest.fixture
def unit_state():
    return GaussianState(sigma0=1.0, center=0.0)


@pytest.fixture(scope="session")
def compiled_stencil(tmp_path_factory):
    """The compiled stencil kernel, built by ``setup.py`` into a temp directory.

    Nothing is written into ``src/`` or ``build/``. Skips only where no C
    compiler is found; a failed build with a compiler present fails the tests.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the stencil kernel")
    out = tmp_path_factory.mktemp("stencil_build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=REPO, capture_output=True, text=True,
    )
    # the extension is optional, so a failed compile still exits 0: look for the library
    built = sorted((out / "balldiff").glob("_stencil*"))
    if proc.returncode != 0 or not built:
        pytest.fail(f"stencil kernel failed to build:\n{proc.stdout}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("balldiff._stencil", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["python", "compiled"])
def kernel(request):
    """Each stencil backend in turn: the numpy fallback, then the compiled build."""
    if request.param == "python":
        return select_kernel("python")[0]
    return request.getfixturevalue("compiled_stencil")
