"""Radial half-wave fields via 1-D oscillatory Bessel integrals.

The field with frequency-localized radial data is

    u(r, t) = (2 pi)^(-d/2) * Integral_0^inf  e^(i (t - t0) s) bump(2^-j s)
              * J_nu(s r) (s r)^(-nu) s^(d-1) ds,         nu = (d - 2) / 2,

where t0 is the reference time carried by the data.  ``propagate`` evaluates
this directly with composite Gauss-Legendre panels sized to the fastest
phase.  At near radii, where 2^j r sigma <= 12 over the whole bump, the
kernel is its power series sum_k c_k (s r)^(2k), so the sum over nodes
factors into K ~ 30 sigma-moments shared by all near radii and one Horner
evaluation in (2^j r)^2; farther radii evaluate the kernel on blocks of
radii.
``main_terms`` splits the Bessel kernel into its two principal
exponentials plus remainder, which turns the field into lookups of the fixed
profiles  F_m(y) = Integral e^(i y sigma) bump(sigma) sigma^((d-1)/2 - m) dsigma
and makes large parameter sweeps cheap: F_0 carries the two exponentials,
and F_1 .. F_K the terms of the Hankel expansion of the remainder (DLMF
10.17) wherever 2^j r sigma >= 12 over the whole bump, so that the remainder
too is a sum of lookups; nearer radii integrate it directly.  Each profile
is tabulated on a uniform y grid by the trapezoid rule in sigma, which for
this smooth, compactly supported integrand converges faster than any power
of the step; on that grid the rule is a single FFT, checked by doubling the
FFT length.  Both paths are validated against each other, ``propagate`` by
node doubling.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import backend, bessel
from .errors import OutOfRangeError, RefineFailureError, UnsupportedOrderError

TWO_PI = 2.0 * math.pi

# nodes per unit of phase frequency; doubling this must not move any output
# by more than the relative tolerance below
NODES_PER_UNIT = 8
QUAD_RTOL = 1e-6

_PANEL = 16
_PANEL_X, _PANEL_W = leggauss(_PANEL)

_PROFILE_STEP = 1.0 / 64.0
_PROFILE_RTOL = 1e-9
_PROFILE_TAIL = 1e-9
_PROFILE_TAIL_SPAN = 4.0
# FFT lengths of the profile table; length n tabulates y in [0, n * step / 4],
# so the first length gives y_max = 512
_PROFILE_FFT_MIN = 2**17
_PROFILE_FFT_MAX = 2**21

# Hankel expansion of the Bessel remainder: above this u the series replaces
# direct quadrature (the same cutoff at which J0/J1 switch to it), and it
# keeps terms until the first omitted ones fall below a tenth of the
# quadrature tolerance, relative to the leading term there
_HANKEL_CUTOFF = backend.SERIES_CUTOFF
_HANKEL_RTOL = 0.1 * QUAD_RTOL
# radius x node elements per block of the direct kernel quadratures
_KERNEL_BLOCK = 2**14


def smooth_bump(x):
    """The standard compactly supported profile exp(1 - 1/(1-x^2)) on (-1, 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
    return out


@dataclass(frozen=True)
class BumpSpec:
    """Smooth bump phi(r) = psi((r - center)/half_width), support (c-w, c+w)."""

    center: float = 1.25
    half_width: float = 0.75

    def __post_init__(self):
        if not self.half_width > 0:
            raise OutOfRangeError("half_width must be positive")
        if not self.center - self.half_width > 0:
            raise OutOfRangeError("bump support must lie in sigma > 0")

    @property
    def support(self):
        return (self.center - self.half_width, self.center + self.half_width)

    def __call__(self, r):
        return smooth_bump((np.asarray(r, dtype=np.float64) - self.center) / self.half_width)


@dataclass(frozen=True)
class WaveParams:
    d: int = 3
    j: int = 8
    t_ref: float = 1.0
    bump: BumpSpec = field(default_factory=BumpSpec)
    nodes_per_unit: int = NODES_PER_UNIT

    def __post_init__(self):
        # the dimensions bessel.radial_kernel, and so propagate, can check
        if not 2 <= self.d <= 5:
            raise OutOfRangeError("need 2 <= d <= 5")
        if self.j < 2:
            raise OutOfRangeError("need j >= 2")
        if not 1.0 <= self.t_ref <= 2.0:
            raise OutOfRangeError("t_ref must lie in [1, 2]")

    @property
    def min_asymptotic_r(self) -> float:
        return 2.0 ** (-self.j + 2)


@dataclass(frozen=True)
class RegionSpec:
    """Shell J_t = [rho - 2^-j-5, rho + 2^-j-5] around the cone radius rho."""

    t: float
    r_lo: float
    r_hi: float

    @property
    def width(self) -> float:
        return self.r_hi - self.r_lo


def region(params: WaveParams, t: float) -> RegionSpec:
    rho = t - params.t_ref
    half = 2.0 ** (-params.j - 5)
    return RegionSpec(t, rho - half, rho + half)


@dataclass
class WaveFieldRow:
    t: float
    r_grid: np.ndarray
    values: np.ndarray
    err_rel: float
    params: WaveParams


@dataclass
class WaveField:
    params: WaveParams
    rows: list

    def to_csv(self) -> str:
        lines = ["t,r,re_u,im_u"]
        for row in self.rows:
            for r, v in zip(row.r_grid, row.values):
                lines.append(f"{float(row.t)!r},{float(r)!r},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"

    def header_json(self) -> str:
        p = self.params
        payload = {
            "d": p.d,
            "j": p.j,
            "t_ref": p.t_ref,
            "bump_center": p.bump.center,
            "bump_half_width": p.bump.half_width,
            "nodes_per_unit": p.nodes_per_unit,
            "times": [row.t for row in self.rows],
            "grid_sizes": [len(row.r_grid) for row in self.rows],
            "err_rel": [row.err_rel for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Quadrature machinery
# ---------------------------------------------------------------------------

def composite_rule(a: float, b: float, n_min: int):
    """Composite 16-point Gauss-Legendre rule on [a, b] with >= n_min nodes."""
    panels = max(1, math.ceil(n_min / _PANEL))
    edges = np.linspace(a, b, panels + 1)
    width = (b - a) / panels
    nodes = (edges[:-1, None] + 0.5 * width * (_PANEL_X[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * _PANEL_W, panels)
    return nodes, weights


_MIN_NODES = 64  # resolves the bump profile itself at zero frequency

# power series of the radial kernel: at or below this u_max the direct
# quadrature sums it as sigma-moments (the cutoff at which J0/J1 switch to
# their series), keeping terms until the first omitted one at the cutoff is
# below _KERNEL_SERIES_ATOL
_KERNEL_SERIES_CUTOFF = backend.SERIES_CUTOFF
_KERNEL_SERIES_ATOL = 1e-17


def _node_budget(params: WaveParams, freq: float) -> int:
    return max(_MIN_NODES, math.ceil(params.nodes_per_unit * (1.0 + freq)))


@functools.lru_cache(maxsize=None)
def _kernel_series(d: int):
    """Coefficients c_0 .. c_(K-1) of G(u) = J_nu(u) / u^nu = sum_k c_k u^(2k).

    c_k = (-1)^k / (2^(2k+nu) k! Gamma(k+nu+1)), nu = (d-2)/2: one formula
    for every supported d.  K is the least count whose first omitted term
    at u = _KERNEL_SERIES_CUTOFF is below _KERNEL_SERIES_ATOL (K = 28..30).
    Cached per d; callers must not modify the returned array.
    """
    nu = 0.5 * (d - 2)
    u2 = _KERNEL_SERIES_CUTOFF**2
    c = [1.0 / (2.0**nu * math.gamma(nu + 1.0))]
    for k in range(1, backend.NTERMS_SERIES):
        c.append(-c[-1] / (4.0 * k * (k + nu)))
        if abs(c[-1]) * u2**k < _KERNEL_SERIES_ATOL:
            return np.asarray(c[:-1])
    raise UnsupportedOrderError(f"no kernel series truncation reaches the tolerance for d = {d}")


def _kernel_sums(kernel, x, nodes, phase):
    """sum_n kernel(x_i sigma_n) phase_n for every x_i, on blocks of about
    _KERNEL_BLOCK (x_i, sigma_n) elements (at least one x_i per block)."""
    out = np.empty(len(x), dtype=np.complex128)
    rows = max(1, _KERNEL_BLOCK // len(nodes))
    for s in range(0, len(x), rows):
        u = np.multiply.outer(x[s:s + rows], nodes)
        out[s:s + rows] = kernel(u.ravel()).reshape(u.shape) @ phase
    return out


def _field_quadrature(params: WaveParams, t: float, r_grid, n_min: int):
    """Direct evaluation of the field integral at every radius in r_grid.

    The sum over nodes sigma_n with weights phase_n (quadrature weight,
    bump, sigma^(d-1) and the time phase) runs two ways.  Near radii, with
    u_max = 2^j r sigma_hi <= _KERNEL_SERIES_CUTOFF, expand the kernel as
    ``_kernel_series``: the sum factors into the moments
    M_k = sum_n phase_n sigma_n^(2k), and u(r) = pref sum_k c_k M_k x^k with
    x = (2^j r)^2, one Horner evaluation for all near radii.  The moments
    come from one running product, so memory stays O(nodes).  Far radii
    evaluate ``bessel.radial_kernel`` on the nodes, in blocks of radii
    (``_kernel_sums``).

    Returns the values and the triangle-inequality bound on |u|, which sets
    the scale below which differences are quadrature noise.
    """
    d, j = params.d, params.j
    lo, hi = params.bump.support
    nodes, weights = composite_rule(lo, hi, n_min)
    omega = t - params.t_ref
    scale = 2.0**j
    base = weights * params.bump(nodes) * nodes ** (d - 1)
    phase = np.exp(1j * scale * omega * nodes) * base
    pref = TWO_PI ** (-0.5 * d) * 2.0 ** (j * d)
    out = np.empty(len(r_grid), dtype=np.complex128)
    near = scale * r_grid * hi <= _KERNEL_SERIES_CUTOFF
    if np.any(near):
        coeffs = _kernel_series(d)
        moments = np.empty(len(coeffs), dtype=np.complex128)
        sq = nodes * nodes
        power = phase.copy()
        for k in range(len(coeffs)):
            moments[k] = power.sum()
            power *= sq
        x = (scale * r_grid[near]) ** 2
        acc = np.zeros(len(x), dtype=np.complex128)
        for a in (coeffs * moments)[::-1]:
            acc = acc * x + a
        out[near] = pref * acc
    if not np.all(near):
        kernel = functools.partial(bessel.radial_kernel, d)
        out[~near] = pref * _kernel_sums(kernel, scale * r_grid[~near], nodes, phase)
    # |radial_kernel| <= 1 in every supported dimension
    return out, pref * float(np.abs(base).sum())


def propagate(params: WaveParams, t: float, r_grid) -> WaveFieldRow:
    """Field values u(r, t) on a radius grid, with a node-doubling check.

    Node count resolves the fastest phase: >= K (1 + 2^j (|t - t0| + r)).
    Each node count runs ``_field_quadrature``: near radii (2^j r sigma_hi
    <= 12) as sigma-moments of the kernel's power series, far radii with the
    kernel evaluated on blocks of radii.
    Raises RefineFailureError when doubling twice still moves the result by
    more than QUAD_RTOL relative to the row magnitude.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=np.float64))
    if np.any(r_grid < 0):
        raise OutOfRangeError("radii must be nonnegative")
    freq = 2.0**params.j * (abs(t - params.t_ref) + float(r_grid.max(initial=0.0)))
    n = _node_budget(params, freq)
    coarse, _ = _field_quadrature(params, t, r_grid, n)
    for _ in range(3):
        fine, bound = _field_quadrature(params, t, r_grid, 2 * n)
        # where the field is negligible against its a-priori bound, accuracy
        # relative to that bound is what matters
        scale = max(float(np.abs(fine).max()), 1e-4 * bound, 1e-300)
        err = float(np.abs(fine - coarse).max()) / scale
        if err <= QUAD_RTOL:
            return WaveFieldRow(t, r_grid, fine, err, params)
        n, coarse = 2 * n, fine
    raise RefineFailureError("field quadrature did not converge", err)


# ---------------------------------------------------------------------------
# Profiles F_m(y) and the decomposition into exponentials and remainder
# ---------------------------------------------------------------------------

_profile_cache: dict = {}


def _profile_fft(power: float, bump: BumpSpec, n: int, shift: float = 0.0):
    """Trapezoid-rule values of F(m dy), m = 0 .. n/4, from one real FFT.

    F(y) = Integral e^(i y sigma) bump(sigma) sigma^power dsigma.  With
    sigma_k = (k + shift) h and h = 2 pi / (n dy) the phase e^(i m dy sigma_k)
    is e^(2 pi i m shift / n) times the inverse DFT kernel e^(2 pi i m k / n);
    the samples h g(sigma_k), placed at index k mod n, are real, so that
    transform is the conjugate of their forward real FFT.  By Poisson
    summation the error at y is the sum of the aliases F(y + l n dy), l != 0;
    on the kept range y <= n dy / 4 the nearest lies at least 3 n dy / 4
    away.  shift = 1/2 gives the midpoint rule.
    """
    lo, hi = bump.support
    h = TWO_PI / (n * _PROFILE_STEP)
    k = np.arange(math.ceil(lo / h - shift), math.floor(hi / h - shift) + 1)
    sigma = (k + shift) * h
    buf = np.zeros(n)
    buf[k % n] = h * bump(sigma) * sigma**power
    # numpy.fft loads lazily; reaching it here keeps it out of the import.
    # Conjugating the kept slice copies it, so the full transform is freed.
    vals = np.conj(np.fft.rfft(buf)[: n // 4 + 1])
    if shift:
        vals *= np.exp(TWO_PI * 1j * shift / n * np.arange(len(vals)))
    return vals


def _profile_table(d: int, bump: BumpSpec, m: int = 0):
    """Table (step, values) of F_m(y) on y = 0, step, ..., y_max.

    F_m is the profile of bump(sigma) sigma^((d-1)/2 - m): m = 0 carries the
    two principal exponentials, m >= 1 the Hankel terms of the remainder.
    Tables are cached per (sigma power, bump), so dimensions share them.
    Starting from length _PROFILE_FFT_MIN, the FFT length n doubles until
    |F| over the last _PROFILE_TAIL_SPAN units of y is below _PROFILE_TAIL of
    the peak, so lookups beyond y_max may read zero, and the table agrees
    within _PROFILE_RTOL of the peak with the rule of half the step (the mean
    of the table and the midpoint rule, so no transform of length 2n is
    needed).  Raises RefineFailureError, with the relative error of the
    failing test, when no length up to _PROFILE_FFT_MAX passes both.
    """
    power = 0.5 * (d - 1) - m
    key = (power, bump)
    cached = _profile_cache.get(key)
    if cached is not None:
        return cached
    n_tail = round(_PROFILE_TAIL_SPAN / _PROFILE_STEP)
    n = _PROFILE_FFT_MIN
    err = math.inf
    while n <= _PROFILE_FFT_MAX:
        vals = _profile_fft(power, bump, n)
        peak = float(np.abs(vals).max())
        err = float(np.abs(vals[-n_tail:]).max()) / peak
        if err <= _PROFILE_TAIL:
            err = 0.5 * float(np.abs(_profile_fft(power, bump, n, 0.5) - vals).max()) / peak
            if err <= _PROFILE_RTOL:
                _profile_cache[key] = (_PROFILE_STEP, vals)
                return _profile_cache[key]
        n *= 2
    raise RefineFailureError("profile table did not converge", err)


def _profile_eval(table, y):
    """Cubic 4-point interpolation of the profile; conjugate symmetry in y."""
    h, vals = table
    y = np.asarray(y, dtype=np.float64)
    ay = np.abs(y)
    inside = ay < (len(vals) - 2) * h
    out = np.zeros(y.shape, dtype=np.complex128)
    if np.any(inside):
        t = ay[inside] / h
        i = np.clip(t.astype(np.int64), 1, len(vals) - 3)
        xi = t - i
        wm1 = -xi * (xi - 1.0) * (xi - 2.0) / 6.0
        w0 = (xi + 1.0) * (xi - 1.0) * (xi - 2.0) / 2.0
        w1 = -(xi + 1.0) * xi * (xi - 2.0) / 2.0
        w2 = (xi + 1.0) * xi * (xi - 1.0) / 6.0
        vv = wm1 * vals[i - 1] + w0 * vals[i] + w1 * vals[i + 1] + w2 * vals[i + 2]
        out[inside] = vv
    neg = inside & (y < 0)
    out[neg] = np.conj(out[neg])
    return out


def main_terms_grid(params: WaveParams, t: float, r_grid):
    """(T_minus, T_plus, T_rem) arrays over a radius grid, r >= 2^(-j+2).

    T_pm(r) = (2 pi)^(-(d+1)/2) e^(-+ i pi (d-1)/4) r^(-(d-1)/2) 2^(j(d+1)/2)
              * F(2^j (t - t0 +- r)),
    the exact two-exponential split of the Bessel kernel; T_rem integrates
    the remainder of the kernel asymptotics (see ``_remainder_term``) and
    vanishes identically in d = 3.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=np.float64))
    if np.any(r_grid < params.min_asymptotic_r):
        raise OutOfRangeError("main terms need r >= 2^(-j+2); use propagate below that")
    d, j = params.d, params.j
    omega = t - params.t_ref
    scale = 2.0**j
    table = _profile_table(d, params.bump)
    pref = (
        TWO_PI ** (-0.5 * (d + 1))
        * r_grid ** (-0.5 * (d - 1))
        * 2.0 ** (j * 0.5 * (d + 1))
    )
    rot = np.exp(1j * math.pi * (d - 1) / 4.0)
    t_minus = pref * rot * _profile_eval(table, scale * (omega - r_grid))
    t_plus = pref * np.conj(rot) * _profile_eval(table, scale * (omega + r_grid))
    t_rem = _remainder_term(params, t, r_grid)
    return t_minus, t_plus, t_rem


def main_terms(params: WaveParams, t: float, r: float):
    """Scalar (T_minus, T_plus, T_rem) at a single radius."""
    tm, tp, tr = main_terms_grid(params, t, np.asarray([r]))
    return complex(tm[0]), complex(tp[0]), complex(tr[0])


@functools.lru_cache(maxsize=None)
def _hankel_series(order: float):
    """(a_1 .. a_K, (|a_K+1|, |a_K+2|), u_cut) for the Bessel remainder.

    R(u) = J_order(u) - leading term has the Hankel expansion (DLMF 10.17.3)
        R(u) ~ sqrt(2/pi)/2 sum_{m>=1} a_m u^(-m-1/2) [i^m e^(i(u-chi)) + (-i)^m e^(-i(u-chi))],
    chi = (order/2 + 1/4) pi.  Cut after K terms, the parts omitted from the
    even and the odd sums are each at most their first term for real u and
    order <= 1 (DLMF 10.17(iii)), so the error is at most
    sqrt(2/(pi u)) (|a_K+1| u^-(K+1) + |a_K+2| u^-(K+2)).  K is the least
    count that puts this below _HANKEL_RTOL sqrt(2/(pi u)) at u_cut =
    _HANKEL_CUTOFF.  For half-integer orders the series terminates and is
    exact at every u, so u_cut is 0.  Cached per order; callers must not
    modify the returned arrays.
    """
    a = backend.hankel_coeffs(order)
    u = _HANKEL_CUTOFF
    for k in range(len(a) - 2):
        tail = np.abs(a[k + 1:k + 3])
        if not tail.any():
            return a[1:k + 1], tail, 0.0
        if tail[0] * u ** -(k + 1) + tail[1] * u ** -(k + 2) <= _HANKEL_RTOL:
            return a[1:k + 1], tail, u
    raise UnsupportedOrderError(f"no Hankel truncation reaches the tolerance for order {order}")


def _remainder_pref(params: WaveParams, r_grid):
    d, j = params.d, params.j
    return TWO_PI ** (-0.5 * d) * 2.0 ** (j * 0.5 * (d + 2)) * r_grid ** (-0.5 * (d - 2))


def _remainder_term(params: WaveParams, t: float, r_grid):
    """T_rem(r) = pref(r) Integral e^(i 2^j omega sigma) bump(sigma) sigma^(d/2) R(2^j r sigma) dsigma.

    Here omega = t - t0, pref(r) = (2 pi)^(-d/2) 2^(j(d+2)/2) r^(-(d-2)/2)
    and R is the Bessel remainder of order nu = (d-2)/2.  Where 2^j r sigma
    >= u_cut over the whole bump support, the K-term Hankel expansion of R
    (``_hankel_series``) turns T_rem into profile lookups:
        T_rem(r) = pref(r) sqrt(2/pi)/2 sum_{m=1..K} a_m (2^j r)^(-m-1/2)
                   * [i^m e^(-i chi) F_m(2^j (omega + r)) + (-i)^m e^(i chi) F_m(2^j (omega - r))].
    Nearer radii integrate R directly on composite Gauss-Legendre nodes
    sized to the fastest phase among them, in blocks of radii.  T_rem is 0
    in d = 3 (K = 0), and exact lookups at every radius in d = 5 (K = 1).
    """
    d, j = params.d, params.j
    order = 0.5 * (d - 2)
    coeffs, _, u_cut = _hankel_series(order)
    out = np.zeros(len(r_grid), dtype=np.complex128)
    if len(coeffs) == 0:
        return out
    omega = t - params.t_ref
    scale = 2.0**j
    lo, hi = params.bump.support
    pref = _remainder_pref(params, r_grid)
    far = scale * r_grid * lo >= u_cut
    if np.any(far):
        r = r_grid[far]
        y_plus, y_minus = scale * (omega + r), scale * (omega - r)
        rot = np.exp(-1j * (0.5 * order + 0.25) * math.pi)
        acc = np.zeros(len(r), dtype=np.complex128)
        for m, a in enumerate(coeffs, start=1):
            table = _profile_table(d, params.bump, m)
            i_m = (1, 1j, -1, -1j)[m % 4]
            acc += a * (scale * r) ** (-m - 0.5) * (
                i_m * rot * _profile_eval(table, y_plus)
                + np.conj(i_m * rot) * _profile_eval(table, y_minus)
            )
        out[far] = math.sqrt(0.5 / math.pi) * pref[far] * acc
    if not np.all(far):
        r = r_grid[~far]
        freq = scale * (abs(omega) + float(r.max()))
        nodes, weights = composite_rule(lo, hi, _node_budget(params, freq))
        base = weights * params.bump(nodes) * nodes ** (0.5 * d)
        phase = np.exp(1j * scale * omega * nodes) * base
        kernel = functools.partial(bessel.bessel_remainder, order)
        out[~far] = pref[~far] * _kernel_sums(kernel, scale * r, nodes, phase)
    return out


def _truncation_bound(params: WaveParams, r_grid):
    """Per-radius bound on the Hankel truncation error of T_rem; 0 off the lookup path."""
    d, j = params.d, params.j
    coeffs, tail, u_cut = _hankel_series(0.5 * (d - 2))
    if not tail.any():
        return np.zeros(len(r_grid))
    scale = 2.0**j
    lo, hi = params.bump.support
    nodes, weights = composite_rule(lo, hi, _MIN_NODES)
    mass = weights * params.bump(nodes)
    bound = np.zeros(len(r_grid))
    for m, a in enumerate(tail, start=len(coeffs) + 1):
        moment = float(np.dot(mass, nodes ** (0.5 * (d - 1) - m)))
        bound += a * (scale * r_grid) ** (-m - 0.5) * moment
    far = scale * r_grid * lo >= u_cut
    return np.where(far, math.sqrt(2.0 / math.pi) * _remainder_pref(params, r_grid) * bound, 0.0)


def field_row_fast(params: WaveParams, t: float, r_grid) -> WaveFieldRow:
    """Field row through the decomposition path (table lookups for T_pm and far T_rem).

    ``err_rel`` is the Hankel truncation bound of T_rem relative to the row
    maximum: 0 in d = 3 and d = 5, where the expansion is exact.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=np.float64))
    tm, tp, tr = main_terms_grid(params, t, r_grid)
    values = tm + tp + tr
    bound = float(_truncation_bound(params, r_grid).max(initial=0.0))
    err = bound / max(float(np.abs(values).max(initial=0.0)), 1e-300)
    return WaveFieldRow(t, r_grid, values, err, params)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

# norm_lp grid: fine within this many units 2^-j of the light cone, with
# this many steps per unit there
_BAND_HALFWIDTH_UNITS = 128.0
_FINE_STEP_DIVISOR = 64.0


def shell_lp_norm(row: WaveFieldRow, p: float, r_range) -> float:
    """(Integral over r_range of |u|^p r^(d-1) dr)^(1/p) by the trapezoid rule.

    The angular measure is omitted throughout the package; it cancels in all
    reported ratios.  Requires grid step <= 2^-j / 32 inside r_range.
    """
    lo, hi = float(r_range[0]), float(r_range[1])
    mask = (row.r_grid >= lo - 1e-15) & (row.r_grid <= hi + 1e-15)
    r = row.r_grid[mask]
    if len(r) < 3:
        raise RefineFailureError("grid under-resolves the shell", math.inf)
    step = float(np.diff(r).max())
    if step > 2.0 ** (-row.params.j) / 32.0 * (1.0 + 1e-9):
        raise RefineFailureError("grid step too coarse for the shell", step)
    vals = np.abs(row.values[mask])
    if math.isinf(p):
        return float(vals.max())
    d = row.params.d
    return float(np.trapezoid(vals**p * r ** (d - 1), r) ** (1.0 / p))


def norm_lp(params: WaveParams, t: float, p: float, r_max: float | None = None) -> float:
    """Lp norm (radial convention) of the field at time t over [0, r_max].

    The grid is fine (step 2^-j / _FINE_STEP_DIVISOR) within
    _BAND_HALFWIDTH_UNITS * 2^-j of the light cone r = |t - t0| and has step
    2^-j elsewhere; radii below 2^(-j+2) go through the direct quadrature path.
    """
    d, j = params.d, params.j
    rho = abs(t - params.t_ref)
    if r_max is None:
        r_max = params.t_ref + 4.0
    h = 2.0**-j
    r_switch = params.min_asymptotic_r
    band_lo = max(r_switch, rho - _BAND_HALFWIDTH_UNITS * h)
    band_hi = min(r_max, rho + _BAND_HALFWIDTH_UNITS * h)

    inner_grid = np.linspace(0.0, r_switch, 49)
    pieces = [(inner_grid, np.abs(propagate(params, t, inner_grid).values))]
    for lo, hi, step in ((r_switch, band_lo, h), (band_lo, band_hi, h / _FINE_STEP_DIVISOR),
                         (band_hi, r_max, h)):
        if hi > lo:
            g = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / step)) + 1))
            pieces.append((g, np.abs(field_row_fast(params, t, g).values)))

    if math.isinf(p):
        return max(float(v.max()) for _, v in pieces)
    total = 0.0
    for g, v in pieces:
        total += float(np.trapezoid(v**p * g ** (d - 1), g))
    return total ** (1.0 / p)


def data_norm(params: WaveParams, p: float) -> float:
    """Lp norm of the initial data itself (the field at time t = 0)."""
    if not (2.0 <= p or math.isinf(p)):
        raise OutOfRangeError("p must be in [2, inf]")
    return norm_lp(params, 0.0, p)


def data_norm_plancherel(params: WaveParams) -> float:
    """Exact L2 norm from the frequency side: the independent p = 2 oracle.

    ||u(., t)||_2^2 (radial convention) = (2 pi)^-d Integral bump(2^-j s)^2 s^(d-1) ds.
    """
    d, j = params.d, params.j
    lo, hi = params.bump.support
    nodes, weights = composite_rule(lo, hi, 400)
    integral = float(np.sum(weights * params.bump(nodes) ** 2 * nodes ** (d - 1)))
    return math.sqrt(TWO_PI ** (-d) * 2.0 ** (j * d) * integral)
