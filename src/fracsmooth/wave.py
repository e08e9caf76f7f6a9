"""Radial half-wave fields via 1-D oscillatory Bessel integrals.

The field with frequency-localized radial data is

    u(r, t) = (2 pi)^(-d/2) * Integral_0^inf  e^(i (t - t0) s) bump(2^-j s)
              * J_nu(s r) (s r)^(-nu) s^(d-1) ds,         nu = (d - 2) / 2,

where t0 is the reference time carried by the data.  Every sigma-integral
here (s = 2^j sigma) is a trapezoid rule in sigma over the bump support:
for this smooth, compactly supported integrand the rule converges faster
than any power of the step, and its error is the sum of the aliases at
2 pi / step (Poisson summation), so each step is set by the integrand's
fastest frequency plus a fixed alias margin.  ``propagate`` evaluates the
field directly.  At near radii, where 2^j r sigma <= 12 over the whole
bump, the kernel is its power series sum_k c_k (s r)^(2k), so the integral
factors into K ~ 30 sigma-moments
M_k(y) = Integral e^(i y sigma) bump(sigma) sigma^(d-1+2k) dsigma at
y = 2^j (t - t0), shared by all near radii, and one power series in
(2^j r)^2.  Farther radii evaluate the kernel at every node, in blocks of
radii.  ``main_terms`` splits the Bessel kernel into its two principal
exponentials plus remainder, which turns the field into lookups of the fixed
profiles  F_m(y) = Integral e^(i y sigma) bump(sigma) sigma^((d-1)/2 - m) dsigma
and makes large parameter sweeps cheap (a whole (times x radii) grid is one
set of array lookups): F_0 carries the two exponentials,
and F_1 .. F_K the terms of the Hankel expansion of the remainder (DLMF
10.17) wherever 2^j r sigma >= 12 over the whole bump, so that the remainder
too is a sum of lookups; nearer radii integrate it directly, on a step set
by the time alone, so no value depends on the radii beside it.  Each profile
is tabulated on a uniform y grid, where the trapezoid rule is a single FFT
of one fixed length, built once an a-priori bound on its error meets a
budget set by the weight with which the profile enters the field; the
same bound caps the aliasing error of ``propagate``'s one rule.
``norm_lp`` evaluates only the radii that can change a bit of its sum: it
walks the closed-form spans of radii where a lookup can reach a table,
on-node lookups read the node values, and the same bound shows where the
inner disc lies below half an ulp of the rest.
"""

from __future__ import annotations

import functools
import json
import math

from . import bessel
from ._numpy import np
from .errors import OutOfRangeError, RefineFailureError, UnsupportedOrderError
from .records import record

TWO_PI = 2.0 * math.pi

# the a-priori error bound of the direct quadrature must not exceed this,
# relative to the row magnitude
QUAD_RTOL = 1e-6

_PROFILE_STEP = 1.0 / 64.0
_PROFILE_RTOL = 1e-9
_PROFILE_TAIL = 1e-9
# FFT length of the profile tables; length n tabulates y in [0, n * step / 4],
# so y_max = 512
_PROFILE_FFT = 2**17
# orders N and midpoint nodes of ``_derivative_norms``
_BOUND_ORDER = 12
_BOUND_NODES = 2**11
# alias distance of the profile tables: their nearest alias lies 3/4 of the
# FFT's y range from every kept y; every direct trapezoid rule keeps its
# first alias this far beyond its fastest frequency
_ALIAS_MARGIN = 0.75 * _PROFILE_FFT * _PROFILE_STEP

# Hankel expansion of the Bessel remainder: above this u the series replaces
# direct quadrature (the same cutoff at which J0/J1 switch to it), and it
# keeps terms until the first omitted ones fall below a tenth of the
# quadrature tolerance, relative to the leading term there
_HANKEL_CUTOFF = bessel.SERIES_CUTOFF
_HANKEL_RTOL = 0.1 * QUAD_RTOL
# radius x node elements per block of the direct kernel quadratures (small
# enough to stay in cache).  Every sum here is elementwise or ``np.einsum``,
# never a BLAS product.  NumPy loads with one BLAS thread (``_numpy``), but a
# caller may choose more, and then OpenBLAS hands even a matrix-vector
# product of one such block to a second thread, which spins beside this
# one: the 31 blocks of one d = 2, j = 6 data norm took 0.001 s on one
# thread, and in some runs 0.18 s on two.  The one BLAS call left,
# ``_bump_moment``'s dot product of a few hundred terms, runs on the
# calling thread.
_KERNEL_BLOCK = 2**14
# nodes of one trapezoid rule in sigma (``_trapezoid_indices``): its step
# follows 2^j (|t - t0| + r), so a far time at a large j would otherwise ask
# for gigabytes (1.2e8 nodes at j = 8, t = 1e6).  The tier-1 suite runs at
# most 16 384 nodes, the CLI's wave commands and sharpness slopes at
# j <= 22 at most 1 229; a data norm at j = 22 whose inner disc were not
# skipped would need 4.0e6 at t_ref = 2
_MAX_NODES = 2**23


# the data bump chi(sigma) = psi((sigma - center) / half_width), psi the
# standard profile exp(1 - 1/(1 - x^2)) on (-1, 1)
BUMP_CENTER = 1.25
BUMP_HALF_WIDTH = 0.75
BUMP_SUPPORT = (BUMP_CENTER - BUMP_HALF_WIDTH, BUMP_CENTER + BUMP_HALF_WIDTH)


def bump(sigma):
    """The data bump chi(sigma), supported on BUMP_SUPPORT = (0.5, 2)."""
    x = (np.asarray(sigma, dtype=np.float64) - BUMP_CENTER) / BUMP_HALF_WIDTH
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
    return out


# 2^-j below the spacing 2^-52 of the doubles in [1, 2] resolves nothing
_J_MAX = 52


@record(frozen=True)
class WaveParams:
    d: int = 3
    j: int = 8
    t_ref: float = 1.0

    def __post_init__(self):
        # the dimensions bessel.radial_kernel, and so propagate, can check
        if not 2 <= self.d <= 5:
            raise OutOfRangeError("need 2 <= d <= 5")
        if not 2 <= self.j <= _J_MAX:
            raise OutOfRangeError(f"need 2 <= j <= {_J_MAX}, got {self.j}")
        if not 1.0 <= self.t_ref <= 2.0:
            raise OutOfRangeError("t_ref must lie in [1, 2]")

    @property
    def min_asymptotic_r(self) -> float:
        return 2.0 ** (-self.j + 2)


@record(frozen=True)
class RegionSpec:
    """Shell J_t = [rho - 2^-j-5, rho + 2^-j-5] around the cone radius rho."""

    t: float
    r_lo: float
    r_hi: float

    @property
    def width(self) -> float:
        return self.r_hi - self.r_lo


def region(params: WaveParams, t) -> RegionSpec:
    """Shell around the cone radius |t - t0|, before and after t0; t may be an array of times."""
    rho = abs(t - params.t_ref)
    half = 2.0 ** (-params.j - 5)
    return RegionSpec(t, rho - half, rho + half)


@record
class WaveFieldRow:
    t: float
    r_grid: np.ndarray
    values: np.ndarray
    err_rel: float
    params: WaveParams


@record
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
            "bump_center": BUMP_CENTER,
            "bump_half_width": BUMP_HALF_WIDTH,
            "times": [row.t for row in self.rows],
            "grid_sizes": [len(row.r_grid) for row in self.rows],
            "err_rel": [row.err_rel for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Quadrature machinery
# ---------------------------------------------------------------------------

# power series of the radial kernel: at or below this u_max the direct
# quadrature sums it as sigma-moments (the cutoff at which J0/J1 switch to
# their series), keeping terms until the first omitted one at the cutoff is
# below _KERNEL_SERIES_ATOL
_KERNEL_SERIES_CUTOFF = bessel.SERIES_CUTOFF
_KERNEL_SERIES_ATOL = 1e-17


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
    for k in range(1, bessel.NTERMS_SERIES):
        c.append(-c[-1] / (4.0 * k * (k + nu)))
        if abs(c[-1]) * u2**k < _KERNEL_SERIES_ATOL:
            return np.asarray(c[:-1])
    raise UnsupportedOrderError(f"no kernel series truncation reaches the tolerance for d = {d}")


def _kernel_sums(kernel, x, nodes, phase):
    """sum_n kernel(x_i sigma_n) phase_n for every x_i, on blocks of about
    _KERNEL_BLOCK (x_i, sigma_n) elements (at least one x_i per block).

    The real kernel block is contracted against the real and the imaginary
    parts of the weights by ``np.einsum``, which makes no BLAS call.
    """
    parts = np.stack((phase.real, phase.imag))
    sums = np.empty((len(x), 2))
    rows = max(1, _KERNEL_BLOCK // len(nodes))
    for s in range(0, len(x), rows):
        u = np.multiply.outer(x[s:s + rows], nodes)
        np.einsum("in,cn->ic", kernel(u.ravel()).reshape(u.shape), parts, out=sums[s:s + rows])
    return sums[:, 0] + 1j * sums[:, 1]


def _trapezoid_indices(h: float):
    """The k with node k h inside the closed bump support; raises
    OutOfRangeError, before allocating them, above _MAX_NODES of them, and
    at a zero or non-finite step (a time so far that 2^j |t - t_ref|
    overflows)."""
    lo, hi = BUMP_SUPPORT
    first, last = (math.ceil(lo / h), math.floor(hi / h)) if 0.0 < h < math.inf else (0, math.inf)
    if last - first + 1 > _MAX_NODES:
        raise OutOfRangeError(f"a trapezoid rule at step {h:.3e} needs {last - first + 1:.3e} nodes, "
                              f"above the cap {_MAX_NODES}; |t - t_ref| or r is too large for 2^j")
    return np.arange(first, last + 1)


def _moment_step(y: float, level: int) -> float:
    """Trapezoid step h in sigma for an integrand of frequency at most |y|.

    h puts the first alias 2 pi / h at least _ALIAS_MARGIN beyond |y| and
    halves with each level; rounded down to 8 significant bits it keeps
    every node m h exact (for m < 2^21).
    """
    mant, expo = math.frexp(TWO_PI / ((abs(y) + _ALIAS_MARGIN) * 2**level))
    return math.ldexp(math.floor(math.ldexp(mant, 8)), expo - 8)


def _exact_sums(terms, top):
    """Sums along the last axis, rounding only parts below 2^-30 of ``top``.

    ``top`` bounds |terms| row by row (it broadcasts against terms[..., :1]).
    Adding and subtracting big = 1.5 2^(e + 23), where top < 2^e, splits each
    term into a head on the grid 2^(e - 29) and an exact tail below
    2^(e - 30).  Fewer than 2^24 heads add without rounding, in any order, so
    only the small tails round.  The moments of an oscillatory sum cancel to
    far below their largest term, which a plain sum would blur by its
    rounding.
    """
    big = np.ldexp(1.5, np.frexp(top)[1] + 23)
    head = terms + big
    head -= big
    return head.sum(axis=-1) + (terms - head).sum(axis=-1)


def _field_quadrature(params: WaveParams, t: float, r_grid):
    """The field at every radius in r_grid by one trapezoid rule in sigma.

    Its nodes m h cover the bump support, h = ``_moment_step(f, 1)``, f
    bounding the integrand's frequency: 2^j |t - t0| when every radius is
    near, 2^j (|t - t0| + r_max) otherwise.  Near radii (u_max = 2^j r
    sigma_hi <= _KERNEL_SERIES_CUTOFF) expand the kernel as ``_kernel_series``:
    u(r) = pref sum_k c_k M_k x^k, x = (2^j r)^2, with the moments M_k of
    bump(sigma) sigma^(d-1+2k) e^(i y sigma), y = 2^j (t - t0); the series
    amplifies their rounding by up to a few hundred, hence ``_exact_sums``.
    Far radii evaluate ``bessel.radial_kernel`` once at every node, in blocks
    of radii.  The error is the sum of the aliases l != 0 of the integrand
    bump sigma^(d-1) G(2^j r sigma) e^(i y sigma) (Poisson summation).  By
    Poisson's integral (DLMF 10.9.4) G(u) = J_nu(u) / u^nu averages
    e^(i u tau), |tau| <= 1, with a positive weight of mass c_0 = G(0), so
    alias l lies |l| (2 pi / h - |y| - 2^j r_max) or more from the band.
    Returns (values, alias, bound): the field, c_0 ``_alias_bound`` at that
    distance, and the triangle bound on |u|, both times the prefactor.
    """
    d, j = params.d, params.j
    hi = BUMP_SUPPORT[1]
    omega = t - params.t_ref
    scale = 2.0**j
    y = scale * omega
    pref = TWO_PI ** (-0.5 * d) * 2.0 ** (j * d)
    values = np.empty(len(r_grid), dtype=np.complex128)
    near = scale * r_grid * hi <= _KERNEL_SERIES_CUTOFF
    r_max = float(r_grid.max())
    h = _moment_step(y if np.all(near) else scale * (abs(omega) + r_max), 1)
    sigma = _trapezoid_indices(h) * h
    base = h * bump(sigma) * sigma ** (d - 1)
    # y_hi = y rounded to single precision makes every y_hi sigma exact,
    # so the phase is correct to its own rounding, not to that of
    # |y sigma|, which would swamp the small fields at t = 0
    y_hi = float(np.float32(y))
    phase = np.exp(1j * y_hi * sigma) * np.exp(1j * (y - y_hi) * sigma) * base
    if np.any(near):
        x = (scale * r_grid[near]) ** 2
        # the series terms that reach _KERNEL_SERIES_ATOL at the largest u
        coeffs = _kernel_series(d)
        big_terms = np.abs(coeffs) * (x.max() * hi * hi) ** np.arange(len(coeffs))
        coeffs = coeffs[:np.flatnonzero(big_terms >= _KERNEL_SERIES_ATOL)[-1] + 1]
        # the terms phase sigma^(2k) of the moments, real and imaginary
        # parts, from one running product
        sq = sigma * sigma
        # |phase| sigma_hi^(2k) bounds row k, within a factor 100 in d <= 5
        top = float(np.abs(phase).max()) * sq[-1] ** np.arange(len(coeffs))
        sums = np.empty((len(coeffs), 2))
        row = np.stack((phase.real, phase.imag))
        for k in range(len(coeffs)):
            if k:
                row *= sq
            sums[k] = _exact_sums(row, top[k])
        # the moments, summed against the powers of x
        terms = coeffs * (sums[:, 0] + 1j * sums[:, 1])
        values[near] = pref * (np.vander(x, len(coeffs), increasing=True) * terms).sum(axis=-1)
    if not np.all(near):
        kernel = functools.partial(bessel.radial_kernel, d)
        values[~near] = pref * _kernel_sums(kernel, scale * r_grid[~near], sigma, phase)
    alias = pref * _kernel_series(d)[0] * _alias_bound(d - 1, TWO_PI / h - abs(y) - scale * r_max)
    # |radial_kernel| <= 1 in every supported dimension
    return values, alias, pref * float(np.abs(base).sum())


def propagate(params: WaveParams, t: float, r_grid) -> WaveFieldRow:
    """Field values u(r, t) on a radius grid by one trapezoid rule in sigma
    (``_field_quadrature``); ``err_rel`` is its alias bound plus, when a
    radius is near, the kernel series' cut (at most 2 _KERNEL_SERIES_ATOL
    times the triangle bound), relative to the row magnitude.

    Raises OutOfRangeError unless t and the radii are finite and the radii
    nonnegative, and RefineFailureError, with err_rel, above QUAD_RTOL.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=np.float64))
    if not math.isfinite(t) or r_grid.size == 0 or not np.all(np.isfinite(r_grid) & (r_grid >= 0)):
        raise OutOfRangeError("need a finite time and one or more radii, all finite and nonnegative")
    values, alias, bound = _field_quadrature(params, t, r_grid)
    near = 2.0**params.j * float(r_grid.min()) * BUMP_SUPPORT[1] <= _KERNEL_SERIES_CUTOFF
    # where the field is negligible against its a-priori bound, accuracy
    # relative to that bound is what matters
    scale = max(float(np.abs(values).max()), 1e-4 * bound, 1e-300)
    err = (alias + (2.0 * _KERNEL_SERIES_ATOL * bound if near else 0.0)) / scale
    if err > QUAD_RTOL:
        raise RefineFailureError("field quadrature misses its tolerance", err)
    return WaveFieldRow(t, r_grid, values, err, params)


# ---------------------------------------------------------------------------
# Profiles F_m(y) and the decomposition into exponentials and remainder
# ---------------------------------------------------------------------------

def _profile_fft(power: float, n: int):
    """Trapezoid-rule values of F(m dy), m = 0 .. n/4, from one real FFT.

    F(y) = Integral e^(i y sigma) bump(sigma) sigma^power dsigma.  With
    sigma_k = k h and h = 2 pi / (n dy) the phase e^(i m dy sigma_k) is the
    inverse DFT kernel e^(2 pi i m k / n); the samples h g(sigma_k), placed
    at index k mod n, are real, so that transform is the conjugate of their
    forward real FFT.  By Poisson summation the error at y is the sum of the
    aliases F(y + l n dy), l != 0; on the kept range y <= n dy / 4 the
    nearest lies at least 3 n dy / 4 away.

    Every node lies below index n (sigma_k <= 2 < n h = 128 pi), so only
    the samples up to the last node are stored; the FFT pads them with
    zeros to length n itself.
    """
    h = TWO_PI / (n * _PROFILE_STEP)
    k = _trapezoid_indices(h)
    sigma = k * h
    samples = np.zeros(k[-1] + 1)
    samples[k] = h * bump(sigma) * sigma**power
    # numpy.fft loads lazily; reaching it here keeps it out of the import
    return np.conjugate(np.fft.rfft(samples, n)[: n // 4 + 1])


@functools.lru_cache(maxsize=None)
def _bump_moment(power: float) -> float:
    """Integral bump(sigma) sigma^power dsigma by the trapezoid rule at
    h = ``_moment_step(0, 0)``.

    The integrand is nonnegative, so this is F(0) = max_y |F(y)| for the
    profile F of bump(sigma) sigma^power.  Cached per power.
    """
    h = _moment_step(0.0, 0)
    sigma = _trapezoid_indices(h) * h
    return float(np.dot(h * bump(sigma), sigma**power))


@functools.lru_cache(maxsize=None)
def _derivative_norms(power: float):
    """||g^(N)||_1, N = 0 .. _BOUND_ORDER, for g = bump(sigma) sigma^power, by
    the midpoint rule (within 0.5 %).  At each node the Taylor coefficients a_k
    of log g = 1 - (1/(1 - x) + 1/(1 + x)) / 2 + power log sigma are geometric
    series, and exp's recurrence b_n = sum_k k a_k b_(n-k) / n gives
    g^(N) = N! b_N.  Row k - 1 of ``ka`` holds k a_k, built from running
    powers of the three ratios, one row at a time, and row N of ``b`` holds
    b_N.  Cached per power; callers must not modify the result."""
    lo, hi = BUMP_SUPPORT
    h = (hi - lo) / _BOUND_NODES
    sigma = lo + h * (np.arange(_BOUND_NODES) + 0.5)
    x = (sigma - BUMP_CENTER) / BUMP_HALF_WIDTH
    ratios = 1.0 / ((1.0 - x) * BUMP_HALF_WIDTH), -1.0 / ((1.0 + x) * BUMP_HALF_WIDTH), -1.0 / sigma
    q1, q2, q3 = ratios
    ka = np.empty((_BOUND_ORDER, _BOUND_NODES))
    for k in range(_BOUND_ORDER):
        if k:
            q1, q2, q3 = (q * r for q, r in zip((q1, q2, q3), ratios))
        ka[k] = -0.5 * (k + 1) * (q1 / (1.0 - x) + q2 / (1.0 + x)) - power * q3
    b = np.empty((_BOUND_ORDER + 1, _BOUND_NODES))
    b[0] = bump(sigma) * sigma**power
    for n in range(1, _BOUND_ORDER + 1):
        b[n] = np.einsum("kn,kn->n", ka[:n], b[n - 1::-1]) / n
    return h * np.abs(b, out=b).sum(axis=1) * [math.factorial(n) for n in range(_BOUND_ORDER + 1)]


def _tail_bound(power: float, y: float) -> float:
    """B(y) = min over N = 2 .. _BOUND_ORDER of ||g^(N)||_1 / |y|^N >= |F(y)| for
    the profile F of g = bump(sigma) sigma^power (N integrations by parts;
    Stein, Harmonic Analysis, ch. VIII); B(l y) <= B(y) / l^2 for l >= 1, and
    B(0) = ||g||_1 = F(0)."""
    norms = _derivative_norms(power)
    y = abs(y)
    return float((norms[2:] / y ** np.arange(2, len(norms))).min()) if y else float(norms[0])


def _alias_bound(power: float, distance: float) -> float:
    """pi^2/3 = sum_(l != 0) 1/l^2 times ``_tail_bound`` at distance > 0 (else inf):
    the summed aliases of a trapezoid rule whose alias l lies |l| distance away."""
    return math.pi**2 / 3.0 * _tail_bound(power, distance) if distance > 0 else math.inf


@functools.lru_cache(maxsize=None)
def _profile_budget(d: int, m: int) -> float:
    """Factor on _PROFILE_TAIL and _PROFILE_RTOL that bounds the errors of F_m.

    F_m enters the field of dimension d relative to F_0 with weight
        w_m = |a_m| x_min^(-m) max|F_m| / max|F_0|,   w_0 = 1,
    since T_rem's term m, pref(r) sqrt(1/(2 pi)) a_m (2^j r)^(-m-1/2) F_m,
    is (2^j r)^(-m) a_m F_m / F_0 times T_pm's prefactor; x_min is the least
    2^j r on the lookup path, max(4, u_cut / sigma_lo) (r >= 2^(-j+2), and
    2^j r sigma_lo >= u_cut): 24 in d = 2 and 4, 4 in d = 5.  The K Hankel
    tables share the errors allowed to F_0 evenly, so F_m, whose errors are
    measured against its own peak, gets 1 / (K w_m) of them; F_0 gets 1.
    Cached per (d, m).
    """
    if m == 0:
        return 1.0
    coeffs, _, u_cut = _hankel_series(0.5 * (d - 2))
    x_min = max(4.0, u_cut / BUMP_SUPPORT[0])
    power = 0.5 * (d - 1)
    peaks = _bump_moment(power - m) / _bump_moment(power)
    weight = abs(coeffs[m - 1]) * x_min**-m * peaks
    return 1.0 / (len(coeffs) * weight)


@functools.lru_cache(maxsize=None)
def _profile_table(d: int, m: int = 0):
    """Table (step, values) of F_m(y) on y = 0, step, ..., y_max.

    F_m is the profile of bump(sigma) sigma^((d-1)/2 - m): m = 0 carries the
    two principal exponentials, m >= 1 the Hankel terms of the remainder.
    One FFT of length _PROFILE_FFT builds it once ``_tail_bound`` shows that
    it meets the error it can put in the field: with b =
    ``_profile_budget(d, m)`` and the peak F(0) = ``_bump_moment``, |F| from
    y_max - step on, which ``_profile_eval`` reads as zero, must be below
    b _PROFILE_TAIL of the peak, and the aliases that the FFT adds
    (``_profile_fft``) below b _PROFILE_RTOL of it.  Cached per (d, m);
    raises RefineFailureError, with the relative error of the failing
    check, when either misses.
    """
    power = 0.5 * (d - 1) - m
    budget = _profile_budget(d, m)
    n = _PROFILE_FFT
    y_max = 0.25 * n * _PROFILE_STEP
    peak = _bump_moment(power)
    err = _tail_bound(power, y_max - _PROFILE_STEP) / peak
    if err <= budget * _PROFILE_TAIL:
        # the aliases of every kept y lie at |y + l n dy| >= 3 y_max |l|
        err = _alias_bound(power, 3.0 * y_max) / peak
        if err <= budget * _PROFILE_RTOL:
            return _PROFILE_STEP, _profile_fft(power, n)
    raise RefineFailureError("profile table did not converge", err)


def _table_reach(table) -> float:
    """|y| from which ``_profile_eval`` reads the table as zero."""
    h, vals = table
    return (len(vals) - 2) * h


def _profile_eval(table, y):
    """Cubic 4-point interpolation of the profile; conjugate symmetry in y;
    zero from ``_table_reach`` on.

    When every lookup inside the reach lands on a node (xi == 0), as on the
    data norms' grids (steps 2^-j and 2^-j / 64, the table's 1 / 64), the
    weights are (-0, 1, 0, -0), whose sum has the bits of vals[i]; the call
    reads vals[i] instead.
    """
    h, vals = table
    y = np.asarray(y, dtype=np.float64)
    ay = np.abs(y)
    inside = ay < _table_reach(table)
    out = np.zeros(y.shape, dtype=np.complex128)
    if np.any(inside):
        t = ay[inside] / h
        i = np.clip(t.astype(np.int64), 1, len(vals) - 3)
        xi = t - i
        if xi.any():
            wm1 = -xi * (xi - 1.0) * (xi - 2.0) / 6.0
            w0 = (xi + 1.0) * (xi - 1.0) * (xi - 2.0) / 2.0
            w1 = -(xi + 1.0) * xi * (xi - 2.0) / 2.0
            w2 = (xi + 1.0) * xi * (xi - 1.0) / 6.0
            out[inside] = wm1 * vals[i - 1] + w0 * vals[i] + w1 * vals[i + 1] + w2 * vals[i + 2]
        else:
            out[inside] = vals[i]
    neg = inside & (y < 0)
    out[neg] = np.conj(out[neg])
    return out


def _times_grid(params: WaveParams, t, r_grid):
    """(omega, r_grid) for a time t with a 1-D radius grid, or for a vector
    of n times with an (n x m) grid whose row i is taken at time t[i].

    omega = t - t0 gets a trailing axis of length 1, so it broadcasts along
    each row of radii.  Raises OutOfRangeError on other shapes and on
    non-finite times or radii.
    """
    t = np.asarray(t, dtype=np.float64)
    r_grid = np.asarray(r_grid, dtype=np.float64)
    if t.ndim == 0:
        r_grid = np.atleast_1d(r_grid)
    if t.ndim > 1 or r_grid.shape[:-1] != t.shape:
        raise OutOfRangeError("need one time with a 1-D radius grid, or n times with an (n x m) grid")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(r_grid))):
        raise OutOfRangeError("need finite times and radii")
    return (t - params.t_ref)[..., None], r_grid


def main_terms_grid(params: WaveParams, t, r_grid):
    """(T_minus, T_plus, T_rem) arrays over a radius grid, r >= 2^(-j+2).

    T_pm(r) = (2 pi)^(-(d+1)/2) e^(-+ i pi (d-1)/4) r^(-(d-1)/2) 2^(j(d+1)/2)
              * F(2^j (t - t0 +- r)),
    the exact two-exponential split of the Bessel kernel; T_rem integrates
    the remainder of the kernel asymptotics (see ``_remainder``) and
    vanishes identically in d = 3.  ``t`` is one time with a 1-D grid, or n
    times with an (n x m) grid whose row i is taken at time t[i]; all rows
    go through the same array lookups.  Every value is elementwise: each
    element gets the same bits whatever times and radii share its call.
    """
    omega, r_grid = _times_grid(params, t, r_grid)
    if np.any(r_grid < params.min_asymptotic_r):
        raise OutOfRangeError("main terms need r >= 2^(-j+2); use propagate below that")
    d, j = params.d, params.j
    scale = 2.0**j
    table = _profile_table(d)
    pref = (
        TWO_PI ** (-0.5 * (d + 1))
        * r_grid ** (-0.5 * (d - 1))
        * 2.0 ** (j * 0.5 * (d + 1))
    )
    rot = np.exp(1j * math.pi * (d - 1) / 4.0)
    t_minus = pref * rot * _profile_eval(table, scale * (omega - r_grid))
    t_plus = pref * np.conj(rot) * _profile_eval(table, scale * (omega + r_grid))
    t_rem = _remainder(params, omega, r_grid)
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
    a = bessel.hankel_coeffs(order)
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


def _remainder(params: WaveParams, omega, r_grid):
    """T_rem(r) = pref(r) Integral e^(i 2^j omega sigma) bump(sigma) sigma^(d/2) R(2^j r sigma) dsigma
    on the (omega, r_grid) that ``_times_grid`` returns.

    Here omega = t - t0, pref(r) = (2 pi)^(-d/2) 2^(j(d+2)/2) r^(-(d-2)/2)
    and R is the Bessel remainder of order nu = (d-2)/2.  Where 2^j r sigma
    >= u_cut over the whole bump support, the K-term Hankel expansion of R
    (``_hankel_series``) turns T_rem into profile lookups:
        T_rem(r) = pref(r) sqrt(2/pi)/2 sum_{m=1..K} a_m (2^j r)^(-m-1/2)
                   * [i^m e^(-i chi) F_m(2^j (omega + r)) + (-i)^m e^(i chi) F_m(2^j (omega - r))].
    Nearer radii, 2^j r < u_cut / sigma_lo, integrate R directly, one time
    at a time, by the trapezoid rule in sigma at h = ``_moment_step(2^j
    |omega| + u_cut / sigma_lo, 0)``, which puts the first alias at least as
    far beyond the fastest phase of any near radius as the profile tables'
    is, in blocks of radii.  The step depends on the time alone, so every
    radius gets the same bits whatever radii share its call.  T_rem is 0 in
    d = 3 (K = 0), and exact lookups at every radius in d = 5 (K = 1).
    """
    d, j = params.d, params.j
    order = 0.5 * (d - 2)
    coeffs, _, u_cut = _hankel_series(order)
    out = np.zeros(r_grid.shape, dtype=np.complex128)
    if len(coeffs) == 0:
        return out
    scale = 2.0**j
    pref = _remainder_pref(params, r_grid)
    far = scale * r_grid * BUMP_SUPPORT[0] >= u_cut
    if np.any(far):
        r = r_grid[far]
        w = np.broadcast_to(omega, r_grid.shape)[far]
        y_plus, y_minus = scale * (w + r), scale * (w - r)
        rot = np.exp(-1j * (0.5 * order + 0.25) * math.pi)
        acc = np.zeros(len(r), dtype=np.complex128)
        for m, a in enumerate(coeffs, start=1):
            table = _profile_table(d, m)
            i_m = (1, 1j, -1, -1j)[m % 4]
            acc += a * (scale * r) ** (-m - 0.5) * (
                i_m * rot * _profile_eval(table, y_plus)
                + np.conj(i_m * rot) * _profile_eval(table, y_minus)
            )
        out[far] = math.sqrt(0.5 / math.pi) * pref[far] * acc
    # near radii: one quadrature per time, its step sized from the near cutoff
    near = ~np.atleast_2d(far)
    rows = np.flatnonzero(near.any(axis=-1))
    if len(rows):
        kernel = functools.partial(bessel.bessel_remainder, order)
        omegas = np.ravel(omega)
        radii, prefs, outs = np.atleast_2d(r_grid, pref, out)
        for i in rows:
            w, sel = float(omegas[i]), near[i]
            h = _moment_step(scale * abs(w) + u_cut / BUMP_SUPPORT[0], 0)
            sigma = _trapezoid_indices(h) * h
            phase = np.exp(1j * scale * w * sigma) * h * bump(sigma) * sigma ** (0.5 * d)
            outs[i, sel] = prefs[i][sel] * _kernel_sums(kernel, scale * radii[i][sel], sigma, phase)
    return out


def _truncation_bound(params: WaveParams, r_grid):
    """Per-radius bound on the Hankel truncation error of T_rem; 0 off the lookup path.

    ``r_grid`` is a 1-D or an (n x m) grid; the bound has its shape.
    """
    d, j = params.d, params.j
    coeffs, tail, u_cut = _hankel_series(0.5 * (d - 2))
    if not tail.any():
        return np.zeros(r_grid.shape)
    scale = 2.0**j
    bound = np.zeros(r_grid.shape)
    for m, a in enumerate(tail, start=len(coeffs) + 1):
        bound += a * (scale * r_grid) ** (-m - 0.5) * _bump_moment(0.5 * (d - 1) - m)
    far = scale * r_grid * BUMP_SUPPORT[0] >= u_cut
    return np.where(far, math.sqrt(2.0 / math.pi) * _remainder_pref(params, r_grid) * bound, 0.0)


def field_row_fast(params: WaveParams, t, r_grid) -> WaveFieldRow:
    """Field row through the decomposition path (table lookups for T_pm and far T_rem).

    ``t`` is one time with a 1-D grid, or n times with an (n x m) grid whose
    row i is taken at time t[i] (see ``main_terms_grid``); the result then
    holds all n rows, (n x m) values, in one ``WaveFieldRow``.  Every value
    has the same bits whatever times and radii share its call.
    ``err_rel`` is the Hankel truncation bound of T_rem relative to the row
    maximum, a float for one row and one per row for n: 0 in d = 3 and
    d = 5, where the expansion is exact.  ``main_terms_grid`` validates t
    and r_grid, and is called by its module name.
    """
    tm, tp, tr = main_terms_grid(params, t, r_grid)
    r_grid = np.asarray(r_grid, dtype=np.float64).reshape(tm.shape)
    values = tm + tp + tr
    if not _hankel_series(0.5 * (params.d - 2))[1].any():
        err = np.zeros(values.shape[:-1])
    else:
        bound = _truncation_bound(params, r_grid).max(axis=-1, initial=0.0)
        err = bound / np.maximum(np.abs(values).max(axis=-1, initial=0.0), 1e-300)
    return WaveFieldRow(t, r_grid, values, err if err.ndim else float(err), params)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

# norm_lp grid: fine within this many units 2^-j of the light cone, with
# this many steps per unit there
_BAND_HALFWIDTH_UNITS = 128.0
_FINE_STEP_DIVISOR = 64.0
# radii per block of the live spans of norm_lp's pieces; each span reaches
# _SPAN_MARGIN radii past its live radii
_NORM_BLOCK = 2**12
_SPAN_MARGIN = 2


def shell_lp_norm(row: WaveFieldRow, p: float, r_range):
    """(Integral over r_range of |u|^p r^(d-1) dr)^(1/p) by the trapezoid rule.

    The angular measure is omitted throughout the package; it cancels in all
    reported ratios.  ``row`` holds one ascending radius row, or n of them
    (an (n x m) grid); the norm reduces along the radius axis, over the
    segments whose ends both lie in r_range, and r_range = (lo, hi) holds
    numbers or one bound per row.  Returns a float for one row and an array
    of n floats for n rows.  The root is taken on Python floats, one row at
    a time, so every row gets the bits of a one-row call.  Requires, in
    every row, at least 3 radii and grid step <= 2^-j / 32 inside r_range,
    and raises OutOfRangeError unless p is in [1, inf], and when an area
    overflows.
    """
    _check_p(p)
    r = row.r_grid
    lo = np.asarray(r_range[0], dtype=np.float64)[..., None]
    hi = np.asarray(r_range[1], dtype=np.float64)[..., None]
    mask = (r >= lo - 1e-15) & (r <= hi + 1e-15)
    if np.any(mask.sum(axis=-1) < 3):
        raise RefineFailureError("grid under-resolves the shell", math.inf)
    inside = mask[..., 1:] & mask[..., :-1]
    dr = np.diff(r, axis=-1)
    step = np.where(inside, dr, 0.0).max(axis=-1)
    if np.any(step > 2.0 ** (-row.params.j) / 32.0 * (1.0 + 1e-9)):
        raise RefineFailureError("grid step too coarse for the shell", float(step.max()))
    vals = np.abs(row.values)
    if math.isinf(p):
        norms = np.where(mask, vals, 0.0).max(axis=-1)
        return norms if norms.ndim else float(norms)
    # overflow shows as a non-finite area, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        f = vals**p * r ** (row.params.d - 1)
        # the terms and the summation of np.trapezoid over each row's segments
        areas = np.where(inside, dr * (f[..., 1:] + f[..., :-1]) / 2.0, 0.0).sum(axis=-1)
    _check_sum(float(areas.max(initial=0.0)), row.params, p)
    if areas.ndim == 0:
        return float(areas) ** (1.0 / p)
    return np.array([a ** (1.0 / p) for a in areas.tolist()])


def _check_p(p: float):
    if not p >= 1.0:
        raise OutOfRangeError(f"need p in [1, inf], got {p}")


def _piece_norm(field, spans, lo: float, hi: float, num: int, p: float, d: int) -> float:
    """Trapezoid sum of |u|^p r^(d-1) over the grid np.linspace(lo, hi, num),
    or max |u| there for p = inf, where u is 0 outside the index ranges
    ``spans`` and at their two ends.

    ``field`` maps a block of radii to the field values there.  Radius k is
    k step + lo, step = (hi - lo) / (num - 1), and the last one is hi, as
    in ``np.linspace``.  Each span is walked from its start in blocks of
    _NORM_BLOCK radii, whose trapezoid terms, and the one joining a block
    to the previous one, go into one array of the grid's terms; every other
    term joins two zeros and stays the +0.0 of ``np.zeros``, whose untouched
    pages cost no resident memory.  The array is summed as ``np.trapezoid``
    sums its terms, so the sum keeps the bits of one pass over the grid.
    """
    step = (hi - lo) / (num - 1)
    terms = np.zeros(0 if math.isinf(p) else num - 1)
    peak = 0.0
    for a, b in spans:
        for k0 in range(a, b, _NORM_BLOCK):
            r = np.arange(k0, min(k0 + _NORM_BLOCK, b), dtype=np.float64)
            r *= step
            r += lo
            if k0 + len(r) == num:
                r[-1] = hi
            v = np.abs(field(r))
            if math.isinf(p):
                peak = max(peak, float(v.max()))
                continue
            f = v**p * r ** (d - 1)
            if k0 > a:
                terms[k0 - 1] = (r[0] - r_last) * (f[0] + f_last) / 2.0
            terms[k0:k0 + len(r) - 1] = np.diff(r) * (f[1:] + f[:-1]) / 2.0
            r_last, f_last = r[-1], f[-1]
    return peak if math.isinf(p) else float(terms.sum())


def _live_spans(params: WaveParams, t: float, lo: float, hi: float, num: int):
    """Sorted, disjoint index ranges [a, b) of the grid np.linspace(lo, hi,
    num), lo >= 2^(-j+2), outside which and at whose ends inside the grid
    ``field_row_fast`` at time t is exactly 0.

    Every lookup is 0 unless 2^j |r - |t - t0|| < ``_table_reach`` (the
    other argument, 2^j (r + |t - t0|), is never nearer 0), and in d = 2
    and 4 the radii with 2^j r sigma_lo < u_cut integrate the remainder
    directly: one range from the grid's first radius.  _SPAN_MARGIN radii
    at each end absorb rounding.
    """
    scale = 2.0**params.j
    step = (hi - lo) / (num - 1)
    reach = _table_reach(_profile_table(params.d)) / scale
    # a cone past this misses the grid as well, and its indices stay finite
    rho = min(abs(t - params.t_ref), hi + reach + (_SPAN_MARGIN + 1) * step)

    def indices(r_lo, r_hi):
        # the grid radii strictly between r_lo and r_hi, and the margins
        a = math.floor((r_lo - lo) / step) + 1 - _SPAN_MARGIN
        return max(a, 0), min(math.ceil((r_hi - lo) / step) + _SPAN_MARGIN, num)

    spans = [indices(rho - reach, rho + reach)]
    u_cut = _hankel_series(0.5 * (params.d - 2))[2]
    if u_cut:
        end = indices(lo, u_cut / (scale * BUMP_SUPPORT[0]))[1]
        a, b = spans[0]
        spans = [(0, max(b, end))] if a <= end else [(0, end), (a, b)]
    return [(a, b) for a, b in spans if a < b]


def _disc_negligible(params: WaveParams, t: float, p: float, norms) -> bool:
    """True when the inner disc r <= r_switch = 2^(-j+2) cannot change
    ``norm_lp``'s result, given the other pieces' ``norms``.

    By Poisson's integral (DLMF 10.9.4) u(r) is pref c_0 times an average,
    with a positive weight, of F(y + 2^j r tau) over |tau| <= 1: F is the
    profile of bump(sigma) sigma^(d-1), y = 2^j (t - t0), pref = (2 pi)^(-d/2)
    2^(jd) and c_0 = G(0) (see ``_field_quadrature``).  On the disc 2^j r
    <= 4, so for |y| > 4, |u| <= B / 2, B = 2 pref c_0 ``_tail_bound(d - 1,
    |y| - 4)``; the 2 covers the midpoint-rule derivative norms behind the
    tail bound, exact to about 0.4 %.  For p = inf the result is the largest
    maximum, so B <= max(norms) suffices.  Otherwise the disc's trapezoid
    area is at most A = B^p r_switch^d and is added to 0 before the first
    other area a: if A < ulp(a) / 2, a + A rounds to a.  A is compared
    through its logarithm, which cannot overflow and whose rounding the
    factor 2^p in A dwarfs.
    """
    d, j = params.d, params.j
    y = abs(2.0**j * (t - params.t_ref))
    if y <= 4.0:
        return False
    bound = 2.0 * TWO_PI ** (-0.5 * d) * 2.0 ** (j * d) * _kernel_series(d)[0] * _tail_bound(d - 1, y - 4.0)
    if math.isinf(p):
        return bound <= max(norms)
    if bound == 0.0:
        return True
    return p * math.log2(bound) + d * math.log2(params.min_asymptotic_r) < math.log2(math.ulp(norms[0])) - 1.0


def _check_sum(total: float, params: WaveParams, p: float):
    if not math.isfinite(total):
        raise OutOfRangeError(f"|u|^p overflows at p = {p:g}, j = {params.j}; take a smaller p")


def norm_lp(params: WaveParams, t: float, p: float) -> float:
    """Lp norm (radial convention) of the field at time t over [0, t_ref + 4].

    The grid is fine (step 2^-j / _FINE_STEP_DIVISOR) within
    _BAND_HALFWIDTH_UNITS * 2^-j of the light cone r = |t - t0| and has step
    2^-j elsewhere; radii below 2^(-j+2) go through the direct quadrature path.
    Every piece stops at t_ref + 4, the band too when the cone is near it.
    Only the radii that can change a bit are evaluated.  A piece's field is
    exactly 0 outside its ``_live_spans`` (the radii within the table's
    reach of the cone and, in d = 2 and 4, those with a directly integrated
    remainder), and ``_piece_norm`` walks the spans alone in blocks; field
    values are elementwise, so the norm keeps the bits of one pass over each
    piece without a grid-long array of radii.
    The inner disc, first in the sum but computed last, only where
    ``_disc_negligible`` does not show it below half an ulp of the next
    piece (at t = 0, in every case tried from j = 11 on).  That bound holds
    for the true disc; its computed value there is rounding noise far below
    the bound, so the kept bits rest on tests against a full evaluation, not
    on the bound alone.  Raises OutOfRangeError unless p is in [1, inf] and
    t is finite, and when the sum of p-th powers overflows.
    """
    _check_p(p)
    if not math.isfinite(t):
        raise OutOfRangeError(f"need a finite time, got {t}")
    d, j = params.d, params.j
    rho = abs(t - params.t_ref)
    h = 2.0**-j
    r_switch = params.min_asymptotic_r
    r_max = params.t_ref + 4.0
    band_lo = min(r_max, max(r_switch, rho - _BAND_HALFWIDTH_UNITS * h))
    band_hi = min(r_max, rho + _BAND_HALFWIDTH_UNITS * h)
    pieces = []
    for lo, hi, step in ((r_switch, band_lo, h), (band_lo, band_hi, h / _FINE_STEP_DIVISOR),
                         (band_hi, r_max, h)):
        if hi > lo:  # at least one piece: r_switch <= 1 < r_max
            pieces.append((lo, hi, max(2, int(math.ceil((hi - lo) / step)) + 1)))
    # overflow shows as a non-finite sum, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [_piece_norm(lambda r: field_row_fast(params, t, r).values, _live_spans(params, t, lo, hi, num),
                             lo, hi, num, p, d) for lo, hi, num in pieces]
        disc = 0.0 if _disc_negligible(params, t, p, norms) else _piece_norm(
            lambda r: propagate(params, t, r).values, [(0, 49)], 0.0, r_switch, 49, p, d)
    if math.isinf(p):
        return max(disc, *norms)
    total = 0.0
    for area in (disc, *norms):
        total += area
    _check_sum(total, params, p)
    return total ** (1.0 / p)


@functools.lru_cache(maxsize=None)
def data_norm(params: WaveParams, p: float) -> float:
    """Lp norm of the initial data itself (the field at time t = 0).

    Cached per (params, p): the sharpness slopes normalize many windows by
    the same norm.  Errors are not cached.
    """
    if not (2.0 <= p or math.isinf(p)):
        raise OutOfRangeError("p must be in [2, inf]")
    return norm_lp(params, 0.0, p)


def data_norm_plancherel(params: WaveParams) -> float:
    """Exact L2 norm from the frequency side: the independent p = 2 oracle.

    ||u(., t)||_2^2 (radial convention) = (2 pi)^-d Integral bump(2^-j s)^2 s^(d-1) ds,
    by the trapezoid rule in sigma = 2^-j s.
    """
    d, j = params.d, params.j
    h = _moment_step(0.0, 0)
    sigma = _trapezoid_indices(h) * h
    integral = float(np.sum(h * bump(sigma) ** 2 * sigma ** (d - 1)))
    return math.sqrt(TWO_PI ** (-d) * 2.0 ** (j * d) * integral)
