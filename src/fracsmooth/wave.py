"""Radial half-wave fields via 1-D oscillatory Bessel integrals.

The field with frequency-localized radial data is

    u(r, t) = (2 pi)^(-d/2) * Integral_0^inf  e^(i (t - t0) s) bump(2^-j s)
              * J_nu(s r) (s r)^(-nu) s^(d-1) ds,         nu = (d - 2) / 2,

where t0 is the reference time carried by the data.  ``propagate`` evaluates
this directly with composite Gauss-Legendre panels sized to the fastest
phase.  ``main_terms`` splits the Bessel kernel into its two principal
exponentials plus remainder, which turns the field into lookups of the fixed
profile  F(y) = Integral e^(i y sigma) bump(sigma) sigma^((d-1)/2) dsigma
and makes large parameter sweeps cheap.  The profile is tabulated on a
uniform y grid by the trapezoid rule in sigma, which for this smooth,
compactly supported integrand converges faster than any power of the step;
on that grid the rule is a single inverse FFT, checked by doubling the FFT
length.  Both paths are validated against each other, ``propagate`` by node
doubling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import bessel
from .errors import OutOfRangeError, RefineFailureError

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
        if self.d < 2:
            raise OutOfRangeError("need d >= 2")
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


def _node_budget(params: WaveParams, freq: float) -> int:
    return max(_MIN_NODES, math.ceil(params.nodes_per_unit * (1.0 + freq)))


def _field_quadrature(params: WaveParams, t: float, r_grid, n_min: int):
    """Direct evaluation of the field integral at every radius in r_grid.

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
    for i, r in enumerate(r_grid):
        out[i] = pref * np.dot(bessel.radial_kernel(d, scale * r * nodes), phase)
    # |radial_kernel| <= 1 in every supported dimension
    return out, pref * float(np.abs(base).sum())


def propagate(params: WaveParams, t: float, r_grid) -> WaveFieldRow:
    """Field values u(r, t) on a radius grid, with a node-doubling check.

    Node count resolves the fastest phase: >= K (1 + 2^j (|t - t0| + r)).
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
# Principal-term profile F(y) and the two-exponential decomposition
# ---------------------------------------------------------------------------

_profile_cache: dict = {}


def _profile_fft(d: int, bump: BumpSpec, n: int):
    """Trapezoid-rule values of F(m dy), m = 0 .. n/4, from one inverse FFT.

    With sigma_k = k h and h = 2 pi / (n dy) the phase e^(i m dy sigma_k) is
    the DFT kernel e^(2 pi i m k / n), so placing h g(sigma_k) at index
    k mod n, ifft(buf) * n gives every m at once.  By Poisson summation the
    error at y is the sum of the aliases F(y + l n dy), l != 0; on the kept
    range y <= n dy / 4 the nearest lies at least 3 n dy / 4 away.
    """
    lo, hi = bump.support
    h = TWO_PI / (n * _PROFILE_STEP)
    k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    sigma = k * h
    buf = np.zeros(n, dtype=np.complex128)
    buf[k % n] = h * bump(sigma) * sigma ** (0.5 * (d - 1))
    # numpy.fft loads lazily; reaching it here keeps it out of the import.
    # Scaling the kept slice copies it, so the full transform is freed.
    return np.fft.ifft(buf)[: n // 4 + 1] * n


def _profile_table(d: int, bump: BumpSpec):
    """Table (step, values) of F(y) on y = 0, step, ..., y_max; cached per (d, bump).

    Starting from length _PROFILE_FFT_MIN, the FFT length doubles until the
    table at length n agrees with the one at 2n on their shared y grid within
    _PROFILE_RTOL of the peak, and |F| over the last _PROFILE_TAIL_SPAN units
    of y is below _PROFILE_TAIL of the peak, so lookups beyond y_max may read
    zero.  Raises RefineFailureError, with the worse of the two relative
    errors, when the length _PROFILE_FFT_MAX is reached first.
    """
    key = (d, bump)
    cached = _profile_cache.get(key)
    if cached is not None:
        return cached
    n_tail = round(_PROFILE_TAIL_SPAN / _PROFILE_STEP)
    n = _PROFILE_FFT_MIN
    vals = _profile_fft(d, bump, n)
    err = math.inf
    while n < _PROFILE_FFT_MAX:
        fine = _profile_fft(d, bump, 2 * n)
        peak = float(np.abs(vals).max())
        diff = float(np.abs(fine[: len(vals)] - vals).max()) / peak
        tail = float(np.abs(vals[-n_tail:]).max()) / peak
        if diff <= _PROFILE_RTOL and tail <= _PROFILE_TAIL:
            _profile_cache[key] = (_PROFILE_STEP, vals)
            return _profile_cache[key]
        err = max(diff, tail)
        n, vals = 2 * n, fine
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
    the remainder of the kernel asymptotics and vanishes identically in d = 3.
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


def _remainder_term(params: WaveParams, t: float, r_grid):
    d, j = params.d, params.j
    order = 0.5 * (d - 2)
    if order == 0.5:
        return np.zeros(len(r_grid), dtype=np.complex128)
    omega = t - params.t_ref
    scale = 2.0**j
    lo, hi = params.bump.support
    freq = scale * (abs(omega) + float(r_grid.max()))
    nodes, weights = composite_rule(lo, hi, _node_budget(params, freq))
    base = weights * params.bump(nodes) * nodes ** (0.5 * d)
    phase = np.exp(1j * scale * omega * nodes) * base
    pref = TWO_PI ** (-0.5 * d) * 2.0 ** (j * 0.5 * (d + 2)) * r_grid ** (-0.5 * (d - 2))
    out = np.empty(len(r_grid), dtype=np.complex128)
    for i, r in enumerate(r_grid):
        out[i] = pref[i] * np.dot(bessel.bessel_remainder(order, scale * r * nodes), phase)
    return out


def field_row_fast(params: WaveParams, t: float, r_grid) -> WaveFieldRow:
    """Field row through the decomposition path (table lookups for T_pm)."""
    tm, tp, tr = main_terms_grid(params, t, r_grid)
    return WaveFieldRow(t, np.atleast_1d(np.asarray(r_grid, float)), tm + tp + tr, QUAD_RTOL, params)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

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


def norm_lp(params: WaveParams, t: float, p: float, r_max: float | None = None,
            band_halfwidth_units: float = 128.0, fine_step_divisor: float = 64.0) -> float:
    """Lp norm (radial convention) of the field at time t over [0, r_max].

    The grid is fine near the light cone |r - |t - t0|| <~ 2^-j and coarse
    elsewhere; radii below 2^(-j+2) go through the direct quadrature path.
    """
    d, j = params.d, params.j
    rho = abs(t - params.t_ref)
    if r_max is None:
        r_max = params.t_ref + 4.0
    h = 2.0**-j
    r_switch = params.min_asymptotic_r
    band_lo = max(r_switch, rho - band_halfwidth_units * h)
    band_hi = min(r_max, rho + band_halfwidth_units * h)

    pieces = []
    inner_grid = np.linspace(0.0, r_switch, 49)
    inner = propagate(params, t, inner_grid)
    pieces.append((inner_grid, np.abs(inner.values)))

    if band_lo > r_switch:
        n = max(2, int(math.ceil((band_lo - r_switch) / h)) + 1)
        g = np.linspace(r_switch, band_lo, n)
        pieces.append((g, np.abs(field_row_fast(params, t, g).values)))
    if band_hi > band_lo:
        n = max(2, int(math.ceil((band_hi - band_lo) / (h / fine_step_divisor))) + 1)
        g = np.linspace(band_lo, band_hi, n)
        pieces.append((g, np.abs(field_row_fast(params, t, g).values)))
    if r_max > band_hi:
        n = max(2, int(math.ceil((r_max - band_hi) / h)) + 1)
        g = np.linspace(band_hi, r_max, n)
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
