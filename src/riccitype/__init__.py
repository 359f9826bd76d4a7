"""Reduced symplectic symmetric spaces of Ricci type.

Construction of the three normal-form models, numerical verification of
the reduced geometry (form, curvature, symmetries), transvection
algebra certificates, and construction plus certification of simply
transitive subgroups where they exist.

BLAS runs on one thread unless the caller chose a count.  OpenBLAS reads
its thread count once, when numpy loads it; at this package's matrix sizes
a second thread spin-waits without saving time, and a reduction split over
threads rounds differently, so report bodies would depend on the core
count.  When no thread variable is set and numpy is not yet loaded,
``OPENBLAS_NUM_THREADS=1`` is set around numpy's import and removed after
it, so child processes of a host program do not inherit it.  In every case
numpy loads with the package, so OpenBLAS reads its thread count at
``import riccitype``.
"""

import os
import sys

if "numpy" not in sys.modules and not any(
        name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                        "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:  # a caller's thread setting is read at the same point
    __import__("numpy")

__version__ = "0.1.0"
