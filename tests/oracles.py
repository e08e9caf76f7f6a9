"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's own evaluation paths:
high-precision Decimal series for Bessel values, explicit point-list covers,
dense-grid Legendre transforms, a chord-construction convex envelope, and
composite Gauss-Legendre quadrature for the sigma-integrals that ``wave``
sums by the trapezoid rule.
Two helpers use package paths on purpose: ``family_count_maxima`` takes
window maxima from scalar ``sets.covering_number`` calls, not from the
window tables, and ``window_q_per_time``, a per-time loop, pins the blocked
shell lookups of the sharpness slopes to one-row calls.  ``profile_rule``
and ``profile_errors`` keep the profile tables' former check, a second FFT
by the midpoint rule, beside the a-priori bound that replaced it.
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


def cantor_first_geq(lo, hi, m, c, x):
    """Smallest point >= x of the Cantor set on [lo, hi] with m branches of
    contraction c, by a descent from [lo, hi]: the reference for the
    resumable queries of ``sets.cursor``."""
    if x <= lo:
        return lo
    if x > hi:
        return math.inf
    while True:
        width = hi - lo
        if width <= 1e-14:
            return x if x >= lo else lo
        gap_step = width * (1.0 - c) / (m - 1)
        child_len = width * c
        descended = False
        for k in range(m):
            u = lo + k * gap_step
            v = u + child_len if k < m - 1 else hi
            if x <= u:
                return u
            if x <= v:
                lo, hi = u, v
                descended = True
                break
        if not descended:
            return math.inf


def cantor_last_leq(lo, hi, m, c, x):
    """Largest point <= x of the same Cantor set, by a descent from [lo, hi]."""
    if x >= hi:
        return hi
    if x < lo:
        return -math.inf
    while True:
        width = hi - lo
        if width <= 1e-14:
            return x if x <= hi else hi
        gap_step = width * (1.0 - c) / (m - 1)
        child_len = width * c
        descended = False
        for k in range(m - 1, -1, -1):
            u = lo + k * gap_step
            v = u + child_len if k < m - 1 else hi
            if x >= v:
                return v
            if x >= u:
                lo, hi = u, v
                descended = True
                break
        if not descended:
            return -math.inf


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


def family_count_maxima(descriptor, j: int, shifts: int) -> list:
    """max of N(E /\\ I, 2^-j) over explicit windows I = [x, x + 2^-m],
    x = i 2^-m / shifts + k 2^-m (i < shifts), m = 0..j, one
    ``sets.covering_number`` call per window that meets the set's hull."""
    from fracsmooth import sets

    smin, smax = sets.bounds(descriptor)
    maxima = []
    for m in range(j + 1):
        length = 2.0 ** (-m)
        best = 0
        for i in range(shifts):
            off = i * length / shifts
            for k in range(math.floor((smin - off) / length) - 1, math.ceil((smax - off) / length) + 1):
                lo, hi = off + k * length, off + k * length + length
                if hi >= smin and lo <= smax:
                    window = (max(lo, smin), min(hi, smax))
                    best = max(best, sets.covering_number(descriptor, window, 2.0 ** (-j)))
        maxima.append(best)
    return maxima


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
    """(integral |vals|^p r^(d-1) dr)^(1/p) on an explicit grid; max |vals| for p = inf."""
    if math.isinf(p):
        return float(np.abs(vals).max())
    return float(np.trapezoid(np.abs(vals) ** p * np.asarray(r) ** (d - 1), r) ** (1.0 / p))


def norm_lp_one_pass(params, t: float, ps) -> list:
    """``wave.norm_lp`` for each p of ``ps``, as one pass over each whole
    piece of its grid.

    A reference for the blocked walk, not for the field values: each piece
    is one ``np.linspace`` grid and one ``wave.propagate`` or
    ``wave.field_row_fast`` call over all of it, shared by every p, and one
    ``np.trapezoid`` per p.
    """
    from fracsmooth import wave

    d, j = params.d, params.j
    rho = abs(t - params.t_ref)
    r_max = params.t_ref + 4.0
    h = 2.0**-j
    r_switch = params.min_asymptotic_r
    band_lo = min(r_max, max(r_switch, rho - wave._BAND_HALFWIDTH_UNITS * h))
    band_hi = min(r_max, rho + wave._BAND_HALFWIDTH_UNITS * h)

    inner_grid = np.linspace(0.0, r_switch, 49)
    pieces = [(inner_grid, np.abs(wave.propagate(params, t, inner_grid).values))]
    for lo, hi, step in ((r_switch, band_lo, h), (band_lo, band_hi, h / wave._FINE_STEP_DIVISOR),
                         (band_hi, r_max, h)):
        if hi > lo:
            g = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / step)) + 1))
            pieces.append((g, np.abs(wave.field_row_fast(params, t, g).values)))

    norms = []
    for p in ps:
        if math.isinf(p):
            norms.append(max(float(v.max()) for _, v in pieces))
            continue
        total = 0.0
        for g, v in pieces:
            total += float(np.trapezoid(v**p * g ** (d - 1), g))
        norms.append(total ** (1.0 / p))
    return norms


def window_q_per_time(descriptor, params, p, window, points):
    """``harness._window_q`` as one field row and one shell norm per time.

    A reference for the blocked (times x radii) lookups, not for the field
    values: each row still goes through ``wave.field_row_fast``, one time
    and a 1-D grid per call, and the norms are added one at a time.
    """
    from fracsmooth import harness, sets, wave
    from fracsmooth.records import replace

    j = params.j
    delta = 2.0**-j
    lo, hi = window
    mid = 0.5 * (lo + hi)
    n_left = sets.covering_number(descriptor, (lo, mid), delta)
    n_right = sets.covering_number(descriptor, (mid, hi), delta)
    if n_right >= n_left:
        half, t_ref = (mid, hi), lo
    else:
        half, t_ref = (lo, mid), hi
    points = np.asarray(points)
    pts = points[(points >= half[0]) & (points <= half[1])]
    pts = pts[np.abs(pts - t_ref) >= 0.25 * (hi - lo) - 1e-12]
    params = replace(params, t_ref=t_ref)
    gp = wave.data_norm(params, p) ** p
    total = 0.0
    half_w = 2.0 ** (-j - 5)
    for t in pts:
        rho = abs(t - t_ref)
        grid = np.linspace(rho - half_w, rho + half_w, harness.SHELL_POINTS)
        row = wave.field_row_fast(params, t, grid)
        total += wave.shell_lp_norm(row, p, (rho - half_w, rho + half_w)) ** p
    return total / gp


def gauss_legendre(lo: float, hi: float, n: int):
    """(nodes, weights) of the composite 16-point Gauss-Legendre rule on [lo, hi].

    A power of two of panels with at least n >= 16 nodes in all, so that the
    panel edges are exact.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(16)
    panels = 1 << math.ceil(math.log2(n / 16))
    half = 0.5 * (hi - lo) / panels
    nodes = (np.linspace(lo, hi, panels + 1)[:-1, None] + half * (x + 1.0)).ravel()
    return nodes, np.tile(half * w, panels)


def exact_phase(y: float, nodes):
    """e^(i y nodes), with y nodes split exactly into its rounded value and
    the rounding error (Dekker's two-product), so that the phase does not
    lose digits to the rounding of a large y nodes."""

    def halves(a):
        c = 134217729.0 * a  # 2^27 + 1
        top = c - (c - a)
        return top, a - top

    prod = y * nodes
    (yh, yl), (sh, sl) = halves(y), halves(nodes)
    err = ((yh * sh - prod) + yh * sl + yl * sh) + yl * sl
    return np.exp(1j * prod) * np.exp(1j * err)


def field_gauss_legendre(params, t: float, radii, n: int):
    """The field u(r, t) of ``wave.propagate`` by dense Gauss-Legendre quadrature.

    ``gauss_legendre`` with at least n nodes, the radial kernel evaluated at
    every radius and node, and the phase 2^j (t - t0) sigma by
    ``exact_phase``.  Returns (values, bound), the bound being the sum of
    |weights| times the prefactor, the triangle bound on |u|.
    """
    from fracsmooth import bessel, wave

    d, j = params.d, params.j
    nodes, w = gauss_legendre(*wave.BUMP_SUPPORT, n)
    weights = w * wave.bump(nodes) * nodes ** (d - 1)
    phase = exact_phase(2.0**j * (t - params.t_ref), nodes) * weights
    pref = (2.0 * math.pi) ** (-0.5 * d) * 2.0 ** (j * d)
    vals = np.array([pref * (bessel.radial_kernel(d, 2.0**j * r * nodes) @ phase) for r in radii])
    return vals, pref * float(np.abs(weights).sum())


# the span of y at the end of a profile table over which the former rule
# required |F| below its tail budget
PROFILE_TAIL_SPAN = 4.0


def profile_rule(power: float, n: int, shift: float):
    """F(m dy), m = 0 .. n/4, dy = ``wave._PROFILE_STEP``, of
    g = bump(sigma) sigma^power by the rule on the nodes (k + shift) h,
    h = 2 pi / (n dy), from one real FFT: shift = 0 is the trapezoid rule of
    the tables, shift = 1/2 the midpoint rule.

    The phase e^(i m dy sigma_k) is e^(2 pi i m shift / n) times the inverse
    DFT kernel e^(2 pi i m k / n), so the values are the conjugate of the
    forward real FFT of the samples, which the FFT pads with zeros to length
    n, times that twist.  Together with ``profile_errors`` this is the
    profile tables' former two-transform check.
    """
    from fracsmooth import wave

    h = 2.0 * math.pi / (n * wave._PROFILE_STEP)
    lo, hi = wave.BUMP_SUPPORT
    k = np.arange(math.ceil(lo / h - shift), math.floor(hi / h - shift) + 1)
    sigma = (k + shift) * h
    samples = np.zeros(k[-1] + 1)
    samples[k] = h * wave.bump(sigma) * sigma**power
    vals = np.conj(np.fft.rfft(samples, n)[: n // 4 + 1])
    if shift:
        vals *= np.exp(2.0 * math.pi * 1j * shift / n * np.arange(len(vals)))
    return vals


def profile_errors(d: int, m: int, n: int):
    """(values, tail error, half-step error) of F_m at FFT length n, each
    error relative to the peak: |F| over the last PROFILE_TAIL_SPAN units of
    y, and half the distance of the trapezoid rule from the midpoint rule,
    the distance of the table from the rule of half the step."""
    from fracsmooth import wave

    power = 0.5 * (d - 1) - m
    vals, mid = (profile_rule(power, n, shift) for shift in (0.0, 0.5))
    peak = np.abs(vals).max()
    tail = np.abs(vals[-round(PROFILE_TAIL_SPAN / wave._PROFILE_STEP):]).max() / peak
    step = 0.5 * np.abs(mid - vals).max() / peak
    return vals, tail, step


def derivative_norms_cumprod(power: float):
    """``wave._derivative_norms`` as whole tables: the powers of the three
    ratios from ``np.cumprod`` over a (N x nodes) broadcast, and k a_k as one
    array expression over all N rows."""
    from fracsmooth import wave

    order, nodes = wave._BOUND_ORDER, wave._BOUND_NODES
    lo, hi = wave.BUMP_SUPPORT
    h = (hi - lo) / nodes
    sigma = lo + h * (np.arange(nodes) + 0.5)
    x = (sigma - wave.BUMP_CENTER) / wave.BUMP_HALF_WIDTH
    p1, p2, p3 = (np.cumprod(np.broadcast_to(r, (order, nodes)), axis=0) for r in
                  (1.0 / ((1.0 - x) * wave.BUMP_HALF_WIDTH), -1.0 / ((1.0 + x) * wave.BUMP_HALF_WIDTH),
                   -1.0 / sigma))
    ka = -0.5 * np.arange(1, order + 1)[:, None] * (p1 / (1.0 - x) + p2 / (1.0 + x)) - power * p3
    b = [wave.bump(sigma) * sigma**power]
    for n in range(1, order + 1):
        b.append(np.einsum("kn,kn->n", ka[:n], b[::-1]) / n)
    return h * np.abs(b).sum(axis=1) * [math.factorial(n) for n in range(order + 1)]


def off_table_zeros(params, t: float, radii):
    """Mask of the radii at which ``wave.field_row_fast`` at time t returns
    exactly 0, one radius per call."""
    from fracsmooth import wave

    return np.array([wave.field_row_fast(params, t, [r]).values[0] == 0.0 for r in radii])


def j_series_out_of_place(u, nu: float, scaled: bool):
    """``bessel._j_series`` as a recurrence of fresh arrays: each term is
    term * (-q) / (k (k + nu)), q = u^2 / 4, and each partial sum a new
    array; the in-place updates must give the same bits."""
    q = 0.25 * u * u
    term = np.ones_like(u)
    total = np.ones_like(u)
    for k in range(1, 48):
        term = term * (-q) / (k * (k + nu))
        total = total + term
    if nu:
        total = total * (1.0 / (2.0**nu * math.gamma(nu + 1.0)))
        if not scaled:
            total = total * u**nu
    return total
