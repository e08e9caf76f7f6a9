"""Bessel functions of the first kind for the orders nu = (d - 2)/2 of the
radial dimensions d = 2..5: nu in {0, 1/2, 1, 3/2}.

Every value comes from the one evaluator ``backend.j_array``: the power
series below a switch point and the Hankel asymptotic expansion beyond (u = 12
for integer orders; u = 2 for half-integer orders, where the expansion
terminates and is exact).  ``radial_kernel`` evaluates J_nu(u) / u^nu, the
radial Fourier kernel, stably down to u = 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import backend
from .errors import OutOfRangeError, UnsupportedOrderError


def _check_order(order: float) -> float:
    if order < 0 or (2.0 * order) != int(2.0 * order):
        raise UnsupportedOrderError(f"order must be a nonnegative half-integer, got {order}")
    return float(order)


def bessel_j(order: float, u):
    """J_order(u) for order in {0, 1/2, 1, 3/2}; u >= 0 scalar or array.

    Against a high-precision series the error relative to
    max(|J|, sqrt(2/(pi u))) is below 1e-14 for the half-integer orders on
    u <= 100 (beyond, the rounding of the phase u - (nu/2 + 1/4) pi grows it
    like 6e-17 u), and below 1e-11 for orders 0 and 1 (largest just past
    the switch at u = 12).
    """
    order = _check_order(order)
    scalar = np.isscalar(u)
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if np.any(arr < 0):
        raise OutOfRangeError("u must be nonnegative")
    if order == 0.0:
        out = backend.j0_array(arr)
    elif order == 1.0:
        out = backend.j1_array(arr)
    elif order in (0.5, 1.5):
        out = backend.j_array(order, arr)
    else:
        raise UnsupportedOrderError(f"orders above 3/2 are not supported, got {order}")
    return float(out[0]) if scalar else out


def leading_asymptotic(order: float, u):
    """Two-exponential principal term: sqrt(2/(pi u)) cos(u - order pi/2 - pi/4)."""
    order = _check_order(order)
    u = np.asarray(u, dtype=np.float64)
    phase = u - (0.5 * order + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * u)) * np.cos(phase)


def bessel_remainder(order: float, u):
    """R(u) = J_order(u) - leading asymptotic term, for u >= 1.

    Satisfies |R(u)| = O(u^(-3/2)).  For order 1/2 the principal term equals
    J_{1/2} identically, so R vanishes.
    """
    order = _check_order(order)
    scalar = np.isscalar(u)
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if np.any(arr < 1.0):
        raise OutOfRangeError("remainder defined for u >= 1")
    if order == 0.5:
        out = np.zeros_like(arr)
    else:
        out = bessel_j(order, arr) - leading_asymptotic(order, arr)
    return float(out[0]) if scalar else out


def radial_kernel(d: int, u):
    """G(u) = J_{(d-2)/2}(u) / u^((d-2)/2), stable at u = 0.

    This is the kernel of the radial Fourier inversion formula in dimension d.
    Supported for d in {2, 3, 4, 5}.
    """
    if d not in (2, 3, 4, 5):
        raise UnsupportedOrderError(f"radial kernel implemented for d in 2..5, got {d}")
    return backend.j_array(0.5 * (d - 2), u, scaled=True)
