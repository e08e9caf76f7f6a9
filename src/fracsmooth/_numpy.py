"""The one place fracsmooth imports NumPy: ``from ._numpy import np``.

OpenBLAS reads its thread count from the environment once, when NumPy
loads it.  No fracsmooth kernel makes a BLAS call large enough to use a
second thread, and at load the second thread spins for about 0.07 s of CPU
time, which is wall time too whenever it shares a core with the first
(measured on 2 cores).  So unless the caller has chosen a count (one of
``_THREAD_VARS`` set) or imported NumPy first, NumPy is imported with
``OPENBLAS_NUM_THREADS=1``, set only for the import: ``os.environ`` is
then restored exactly, so the host program and its child processes see no
change.
"""

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" in sys.modules or any(name in os.environ for name in _THREAD_VARS):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
