"""Bessel functions of the first kind for the orders nu = (d - 2)/2 of the
radial dimensions d = 2..5: nu in {0, 1/2, 1, 3/2}.

``j_array`` is the one evaluator: J_nu(u), or J_nu(u) / u^nu, from the power
series below a switch point and the Hankel asymptotic expansion beyond (u = 12
for integer orders; u = 2 for half-integer orders, where the expansion
terminates and is exact).  ``radial_kernel`` evaluates J_nu(u) / u^nu, the
radial Fourier kernel, stably down to u = 0.
"""

from __future__ import annotations

import math

from ._numpy import np
from .errors import OutOfRangeError, UnsupportedOrderError

# Integer orders switch from the power series to the asymptotic Hankel
# expansion at u = 12.  For half-integer orders the expansion terminates
# after nu + 1/2 terms and is exact, so it takes over early, before the
# series loses digits to cancellation.
SERIES_CUTOFF = 12.0
_HALF_ORDER_CUTOFF = 2.0
NTERMS_SERIES = 48
_NTERMS_ASYMPT = 21  # a_0 .. a_20, optimal truncation near the cutoff


def hankel_coeffs(nu: float):
    """a_0 .. a_20 of the Hankel expansion of J_nu (DLMF 10.17.1).

    For half-integer nu every a_k with k > nu is exactly zero.
    """
    a = [1.0]
    for k in range(1, _NTERMS_ASYMPT):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return np.asarray(a)


def _j_series(u, nu: float, scaled: bool):
    # J_nu(u) / u^nu = sum_k (-u^2/4)^k / (2^nu k! Gamma(k + nu + 1))
    q = 0.25 * u * u
    term = np.ones_like(u)
    total = np.ones_like(u)
    for k in range(1, NTERMS_SERIES):
        term = term * (-q) / (k * (k + nu))
        total = total + term
    if nu:
        total = total * (1.0 / (2.0**nu * math.gamma(nu + 1.0)))
        if not scaled:
            total = total * u**nu
    return total


def _j_hankel(u, nu: float, scaled: bool):
    # J_nu(u) = sqrt(2/(pi u)) (P cos w - Q sin w), w = u - (nu/2 + 1/4) pi, with
    # P = sum_k a_2k x^k and Q = sum_k a_2k+1 x^k / u in x = -1/u^2, by Horner's rule
    a = np.trim_zeros(hankel_coeffs(nu), "b")
    inv = 1.0 / u
    x = -inv * inv
    p = np.polyval(a[0::2][::-1], x)
    q = np.polyval(a[1::2][::-1], x) * inv
    omega = u - (0.25 + 0.5 * nu) * math.pi
    out = np.sqrt(2.0 / (math.pi * u)) * (p * np.cos(omega) - q * np.sin(omega))
    return out / u**nu if scaled and nu else out


def j_array(nu: float, u, scaled: bool = False):
    """J_nu(u), or J_nu(u) / u^nu when ``scaled``, on a float array u >= 0.

    For nu in {0, 1/2, 1, 3/2}: the power series up to SERIES_CUTOFF (integer
    nu) or _HALF_ORDER_CUTOFF (half-integer nu), the Hankel expansion beyond.
    The scaled form is the series itself near u = 0, so it is stable there.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    small = u <= (SERIES_CUTOFF if nu == int(nu) else _HALF_ORDER_CUTOFF)
    if np.any(small):
        out[small] = _j_series(u[small], nu, scaled)
    if np.any(~small):
        out[~small] = _j_hankel(u[~small], nu, scaled)
    return out


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
    if order in (0.0, 0.5, 1.0, 1.5):
        out = j_array(order, arr)
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
    return j_array(0.5 * (d - 2), u, scaled=True)
