"""Build script for the optional compiled kernel extension.

    python setup.py build_ext --inplace

The package works without it (pure NumPy fallback); the extension speeds up
the covering sweeps and Bessel arrays several-fold.
"""

from setuptools import setup

ext_modules = []
try:
    import numpy
    from Cython.Build import cythonize
    from setuptools import Extension

    ext_modules = cythonize(
        [
            Extension(
                "fracsmooth._ckernels",
                ["src/fracsmooth/_ckernels.pyx"],
                include_dirs=[numpy.get_include()],
                extra_compile_args=["-O3"],
                define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            )
        ],
        language_level=3,
    )
except ImportError:
    pass

setup(ext_modules=ext_modules)
