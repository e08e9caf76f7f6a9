"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's own evaluation paths:
high-precision Decimal series for Bessel values, explicit point-list covers,
dense-grid Legendre transforms, and a chord-construction convex envelope.
"""

import math
from decimal import Decimal, getcontext

import numpy as np


def _pi_decimal() -> Decimal:
    """pi to the current Decimal precision, by Machin's formula."""
    getcontext().prec += 5

    def arctan_inv(x: int) -> Decimal:
        # arctan(1/x) = sum_k (-1)^k / ((2k + 1) x^(2k + 1))
        power = total = Decimal(1) / x
        k, eps = 0, Decimal(10) ** -(getcontext().prec + 2)
        while power > eps:
            k += 1
            power /= x * x
            total += (-1) ** k * power / (2 * k + 1)
        return total

    pi = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    getcontext().prec -= 5
    return +pi


def j_series_decimal(nu: float, u: float, digits: int | None = None) -> float:
    """J_nu(u) for nu in {0, 1/2, 1, 3/2} from its power series in Decimal.

    J_nu(u) = (u/2)^nu sum_k (-u^2/4)^k / (k! Gamma(k + nu + 1)), with
    Gamma(3/2) = sqrt(pi)/2.  The largest term is ~10^(0.87 u), so precision
    scales with u.
    """
    if nu not in (0, 0.5, 1, 1.5):
        raise ValueError(f"order {nu} not covered")
    if digits is None:
        digits = 60 + int(0.9 * abs(u))
    getcontext().prec = digits
    half = Decimal(repr(u)) / 2
    # (u/2)^nu / Gamma(nu + 1)
    lead = half ** int(nu)
    gamma = Decimal(1)
    if nu != int(nu):
        lead *= half.sqrt()
        gamma = _pi_decimal().sqrt() / 2 * (Decimal(3) / 2 if nu == 1.5 else 1)
    q = half**2
    nu_dec = Decimal(repr(nu))
    term = Decimal(1)
    total = Decimal(1)
    k = 0
    while True:
        k += 1
        term = -term * q / (k * (k + nu_dec))
        total += term
        if abs(term) < Decimal(10) ** (-(digits - 5)) and k > abs(u):
            break
    return float(lead / gamma * total)


def j0_zero_bisect(lo: float, hi: float, tol: float = 1e-13) -> float:
    """Root of J0 in [lo, hi] by bisection on the Decimal series."""
    flo = j_series_decimal(0, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = j_series_decimal(0, mid)
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def poly_points(a: float, n_max: int):
    """Explicit sorted point list {1} u {1 + n^-a : n <= n_max}."""
    return sorted(set([1.0] + [1.0 + float(n) ** (-a) for n in range(1, n_max + 1)]))


def greedy_cover_points(pts, lo: float, hi: float, delta: float) -> int:
    """Greedy minimal cover of a finite point list clipped to [lo, hi]."""
    count, i, n = 0, 0, len(pts)
    x = lo
    while True:
        while i < n and pts[i] < x:
            i += 1
        if i >= n or pts[i] > hi:
            return count
        count += 1
        x = math.nextafter(pts[i] + delta, math.inf)


def legendre_fine(fn, theta_lo: float, theta_hi: float, alpha, n: int = 20001):
    """Brute-force Legendre transform of a callable on a dense theta grid."""
    theta = np.linspace(theta_lo, theta_hi, n)
    vals = np.asarray([fn(t) for t in theta])
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    return (np.multiply.outer(alpha, theta) - vals[None, :]).max(axis=1)


def lower_convex_envelope(xs, ys):
    """Lower convex hull of the sampled graph, evaluated back on xs.

    Andrew's monotone-chain construction on the point set; independent of any
    double-transform identity.
    """
    pts = sorted(zip(xs, ys))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    hx = [p[0] for p in hull]
    hy = [p[1] for p in hull]
    return np.interp(xs, hx, hy)


def trapezoid_norm(r, vals, p: float, d: int) -> float:
    """(integral |vals|^p r^(d-1) dr)^(1/p) on an explicit grid."""
    return float(np.trapezoid(np.abs(vals) ** p * np.asarray(r) ** (d - 1), r) ** (1.0 / p))
