"""Build script: compiles the optional Cython KNN voting extension.

If Cython or a C compiler is unavailable the package installs without the
extension and falls back to the numpy kernel at import time. The extension
serves only the ``knn`` evaluation classifier; split search and GA fitness
are numpy on every install.
"""
from setuptools import Extension, setup

ext_modules = []
try:
    import numpy
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "genefunnel._kernels._core",
                ["src/genefunnel/_kernels/_core.pyx"],
                include_dirs=[numpy.get_include()],
                define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            )
        ],
        language_level=3,
    )
except ImportError:
    pass

setup(ext_modules=ext_modules)
