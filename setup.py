import numpy
from setuptools import Extension, setup

# The stencil kernel is optional: where it fails to compile the package still
# installs and falls back to the numpy implementation selected at import time.
setup(
    ext_modules=[
        Extension(
            "balldiff._stencil",
            ["src/balldiff/_stencil.c"],
            include_dirs=[numpy.get_include()],
            # -ffp-contract=off: no FMA contraction, so the compiled kernel
            # stays bit-identical to the numpy fallback.
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
