"""The array kernels: Bessel functions of the first kind, batched greedy
covering counts, and the direct oscillatory phase sum.

``j_array`` is the one Bessel evaluator: J_nu(u), or J_nu(u) / u^nu, for
nu in {0, 1/2, 1, 3/2}, from the power series below a switch point and the
Hankel expansion above it; ``j0_array`` and ``j1_array`` are its order-0
and order-1 entry points.  All are NumPy or plain Python.  The package no
longer calls the phase sum; the tests use it as the independent oracle for
the FFT-built wave profile table.
"""

from __future__ import annotations

import math

import numpy as np

from .sets import first_point_geq

# the benchmark records this name in each run's environment
BACKEND = "python"

# spacing of the doubles in [1, 2)
_ULP = 2.0**-52

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


def j0_array(u):
    """Bessel J0 on a float array; series for u <= 12, Hankel expansion beyond."""
    return j_array(0.0, u)


def j1_array(u):
    """Bessel J1 on a float array."""
    return j_array(1.0, u)


def oscillatory_sum(omegas, nodes, amp):
    """sum_k amp[k] * exp(i * omega * nodes[k]) for each omega.

    ``amp`` already contains quadrature weights and all smooth factors.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.float64)
    amp = np.asarray(amp, dtype=np.float64)
    out = np.empty(len(omegas), dtype=np.complex128)
    block = max(1, int(4_000_000 // max(1, len(nodes))))
    for start in range(0, len(omegas), block):
        ph = np.multiply.outer(omegas[start:start + block], nodes)
        out[start:start + block] = np.cos(ph) @ amp + 1j * (np.sin(ph) @ amp)
    return out


def cover_counts(types, params, pool, w_lo, w_hi, delta):
    """Greedy covering count of set /\\ window for a batch of windows.

    Every count is the one ``sets._greedy_count`` returns: anchor at the
    first set point p >= w_lo, then at first_point_geq(nextafter(p + delta))
    while p <= w_hi.  Windows may come in any order and lengths; the call is
    fastest when they come in runs sorted by start (one run per window
    length, as the spectra tables pass them).  Two invariants make it so:

    * Exact steps in [1, 2].  Every double there is a multiple of 2^-52, so
      when delta is too, p + delta is exact below 2 and nextafter adds
      2^-52 (from 2 on the sweep is past every set point).  On a single
      interval the sweep therefore visits p0 + i (delta + 2^-52), which is
      counted in integers instead of stepped through.
    * Sweeps merge.  The step p -> next anchor depends on p and delta only,
      not on the window, and sweeps from different window starts land on the
      same anchor after every gap wider than delta.  One dict of steps serves
      every window of the call, and one of first points every window start
      (the dyadic starts of one level recur at the next); both are dropped
      when the call returns.

    Within a run whose starts and ends are both non-decreasing, a window
    that holds no set point skips, by bisection on the ends, to the first
    window ending at or after the next set point, so only windows that meet
    the set run a sweep.
    """
    w_lo = np.asarray(w_lo, dtype=np.float64)
    w_hi = np.asarray(w_hi, dtype=np.float64)
    delta = float(delta)
    if len(types) == 1 and types[0] == 0 and 0.0 < delta <= 1.0 and (delta / _ULP).is_integer():
        return _interval_counts(params[0][0], params[0][1], w_lo, w_hi, delta)
    return _swept_counts((types, params, pool), w_lo, w_hi, delta)


def _interval_counts(lo, hi, w_lo, w_hi, delta):
    """Closed form of the greedy count on [lo, hi] inside [1, 2].

    A window meets the interval in [p0, top]; both ends lie in [1, 2] when
    p0 <= top, so top - p0 is an exact multiple of 2^-52.
    """
    p0 = np.maximum(w_lo, lo)
    top = np.minimum(w_hi, hi)
    meets = p0 <= top
    units = np.where(meets, top - p0, 0.0) * 2.0**52
    step = int(delta * 2.0**52) + 1
    return np.where(meets, units.astype(np.int64) // step + 1, 0)


def _swept_counts(flat, w_lo, w_hi, delta):
    out = np.zeros(len(w_lo), dtype=np.int64)
    # ends of the runs in which starts and ends are both non-decreasing
    ends = np.flatnonzero((w_lo[1:] < w_lo[:-1]) | (w_hi[1:] < w_hi[:-1])) + 1
    step, first = {}, {}
    i = 0
    for stop in [*ends.tolist(), len(w_lo)]:
        while i < stop:
            x, hi = w_lo[i].item(), w_hi[i].item()
            p = first.get(x)
            if p is None:
                p = first[x] = first_point_geq(flat, x)
            if p > hi:
                # windows of this run that end before p hold no set point
                i += 1 + int(np.searchsorted(w_hi[i + 1:stop], p))
                continue
            count = 0
            while p <= hi:
                count += 1
                nxt = step.get(p)
                if nxt is None:
                    nxt = step[p] = first_point_geq(flat, math.nextafter(p + delta, math.inf))
                p = nxt
            out[i] = count
            i += 1
    return out
