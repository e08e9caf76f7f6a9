"""Kernel backend selection.

The hot kernels (Bessel arrays, batched greedy covering counts) exist twice:
a Cython extension ``_ckernels`` built via ``setup.py build_ext --inplace``
and a pure NumPy fallback ``_pykernels``.  Both also carry the direct
oscillatory phase sum, which the tests use as the independent oracle for the
FFT-built wave profile table.
The compiled extension is preferred when importable; set
``FRACSMOOTH_BACKEND=python`` to force the fallback.
"""

import os

_forced = os.environ.get("FRACSMOOTH_BACKEND", "").strip().lower()

if _forced == "python":
    from . import _pykernels as _impl

    BACKEND = "python"
elif _forced in ("", "compiled", "c"):
    try:
        from . import _ckernels as _impl

        BACKEND = "compiled"
    except ImportError:
        if _forced:
            raise
        from . import _pykernels as _impl

        BACKEND = "python"
else:
    raise ValueError(f"unknown FRACSMOOTH_BACKEND={_forced!r}")

j0_array = _impl.j0_array
j1_array = _impl.j1_array
oscillatory_sum = _impl.oscillatory_sum
cover_counts = _impl.cover_counts
