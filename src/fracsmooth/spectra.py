"""Empirical (finite-scale) and analytic dimension spectra.

All window suprema run over the two-shifted dyadic family: dyadic intervals
of length 2^-m for 0 <= m <= j on the standard grid and on the grid shifted
by half an interval length.  Any interval of length L is contained in a
family interval of length <= 2L, so exponents are preserved up to O(1/j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

from . import backend, legendre, sets
from .errors import InvalidThetaError, OutOfRangeError
from .sampled import SampledFunction, linspace

LOG2 = math.log(2.0)

# Deviation tolerance for spectrum checks, scaling like c / j.
TOL_COEFF = 0.08 * 14.0


def default_tolerance(j: int) -> float:
    return TOL_COEFF / j


def family_starts(lo: float, hi: float, length: float) -> backend.Grids:
    """Starts of the family windows of one length around [lo, hi].

    Shift i = 0, 1 has the grid off + k * length with off = i * length / 2 and
    k from one window left of lo to one window right of hi.  The grids come
    in shift order, each ascending, as the parts of one ``backend.Grids``.
    """
    parts = []
    for off in (0.0, 0.5 * length):
        k_lo = math.floor((lo - off) / length) - 1
        k_hi = math.ceil((hi - off) / length) + 1
        parts.append((off, length, k_lo, k_hi))
    return backend.Grids(tuple(parts))


@lru_cache(maxsize=128)
def _window_maxima_cached(descriptor, j: int) -> tuple:
    """Count maxima over the family windows of length 2^-m, m = 0..j.

    One ``backend.cover_counts`` call counts every level, grid by grid,
    without building the windows: it counts a single interval in closed
    form, and walks each other grid with one step cache for all windows and
    levels, skipping the windows that miss the set.  The counts are those
    of ``sets._greedy_count`` in each window.
    """
    flat = sets.flatten(descriptor)
    smin = sets.first_point_geq(flat, -math.inf)
    smax = sets.last_point_leq(flat, math.inf)
    levels = [family_starts(smin, smax, 2.0 ** (-m)) for m in range(j + 1)]
    parts = tuple(part for level in levels for part in level.parts)
    counts = backend.cover_counts(
        flat[0], flat[1], flat[2], backend.Grids(parts), backend.Grids(parts, ends=True), 2.0 ** (-j)
    )
    maxima, start = [], 0
    for level in levels:
        stop = start + len(level)
        maxima.append(max(counts[start:stop]))
        start = stop
    return tuple(maxima)


def window_count_maxima(descriptor, j: int) -> tuple:
    """max over family windows of length 2^-m of N(E /\\ I, 2^-j), m = 0..j."""
    if j < 2:
        raise OutOfRangeError(f"need j >= 2, got {j}")
    return _window_maxima_cached(descriptor, j)


def best_window(descriptor, j: int, m: int):
    """Leftmost family window of length 2^-m attaining the count maximum."""
    flat = sets.flatten(descriptor)
    smin = sets.first_point_geq(flat, -math.inf)
    smax = sets.last_point_leq(flat, math.inf)
    w_lo = family_starts(smin, smax, 2.0 ** (-m))
    w_hi = backend.Grids(w_lo.parts, ends=True)
    counts = backend.cover_counts(flat[0], flat[1], flat[2], w_lo, w_hi, 2.0 ** (-j))
    best = max(counts)
    lo, hi = min((a, b) for a, b, n in zip(w_lo, w_hi, counts) if n == best)
    return (lo, hi), best


def phi_at_scale(descriptor, alpha: float, j: int) -> float:
    """Finite-scale dual-profile functional.

    max over family windows of
    [alpha * log(1/|I|) + log N(E /\\ I, 2^-j)] / (j log 2).
    """
    if j < 2:
        raise OutOfRangeError(f"need j >= 2, got {j}")
    maxima = _window_maxima_cached(descriptor, j)
    return max((alpha * m + math.log2(n)) / j for m, n in enumerate(maxima))


def assouad_spectrum_empirical(descriptor, theta: float, j: int) -> float:
    """Window exponent at scale j for windows of length 2^-ceil(theta j)."""
    if not 0.0 <= theta < 1.0:
        raise InvalidThetaError(f"theta must be in [0, 1), got {theta}")
    m = math.ceil(theta * j)
    if m > j - 1:
        raise InvalidThetaError(f"theta={theta} leaves no room at scale j={j}")
    maxima = _window_maxima_cached(descriptor, j)
    return math.log2(maxima[m]) / (j - m)


def theta_grid(j: int) -> tuple:
    """Usable theta values at scale j: {0, 1/j, ..., (j-4)/j}."""
    return tuple(k / j for k in range(j - 3))


def analytic_spectrum(descriptor) -> SampledFunction | None:
    """Closed-form Assouad spectrum on [0, 1] when the family has one."""
    n = 257
    if isinstance(descriptor, sets.FullInterval):
        return SampledFunction(0.0, 1.0, [1.0] * n)
    if isinstance(descriptor, sets.FinitePoints):
        return SampledFunction(0.0, 1.0, [0.0] * n)
    if isinstance(descriptor, sets.CantorLike):
        return SampledFunction(0.0, 1.0, [descriptor.similarity_dimension] * n)
    if isinstance(descriptor, sets.PolySequence):
        beta = descriptor.minkowski_dimension
        theta = linspace(0.0, 1.0, n)
        return SampledFunction(0.0, 1.0, [min(beta / (1.0 - t), 1.0) for t in theta[:-1]] + [1.0])
    if isinstance(descriptor, sets.UnionSet):
        parts = [analytic_spectrum(m) for m in descriptor.members]
        if any(p is None for p in parts):
            return None
        return SampledFunction(0.0, 1.0, [max(col) for col in zip(*(p.values for p in parts))])
    return None


@dataclass(frozen=True)
class DimsEstimate:
    minkowski: float
    quasi_assouad: float
    scale_j: int


def dims(descriptor, j: int = 14) -> DimsEstimate:
    """(Minkowski, quasi-Assouad) estimates from the window table at scale j."""
    mink = assouad_spectrum_empirical(descriptor, 0.0, j)
    qa = assouad_spectrum_empirical(descriptor, 1.0 - 4.0 / j, j)
    return DimsEstimate(mink, qa, j)


@dataclass(frozen=True)
class QuasiRegularReport:
    is_regular: bool
    max_deviation: float
    nu_deviation: float
    beta: float
    gamma: float
    tolerance: float


def quasi_regular_check(descriptor, j: int = 14, tolerance: float | None = None) -> QuasiRegularReport:
    """Compare the empirical spectrum with the maximal profile min(b/(1-t), g).

    The reference profile amplifies finite-scale noise by 1/(1-theta), so the
    verdict uses the (1-theta)-weighted deviation, which is uniformly O(1/j);
    the plain sup deviation is reported alongside.
    """
    if tolerance is None:
        tolerance = default_tolerance(j)
    est = dims(descriptor, j)
    beta, gamma = est.minkowski, est.quasi_assouad
    dev = 0.0
    nu_dev = 0.0
    for theta in theta_grid(j):
        emp = assouad_spectrum_empirical(descriptor, theta, j)
        ref = min(beta / (1.0 - theta), gamma) if theta < 1.0 else gamma
        dev = max(dev, abs(emp - ref))
        nu_dev = max(nu_dev, (1.0 - theta) * abs(emp - ref))
    return QuasiRegularReport(
        bool(nu_dev <= tolerance), float(dev), float(nu_dev), beta, gamma, tolerance
    )


@dataclass
class SpectrumReport:
    """Per-scale table of grid values with a point estimate.

    ``axis`` records whether ``grid`` holds alpha or theta values; rows are
    keyed by scale j.  The estimate row is the largest-j row (no extrapolation
    is attempted).
    """

    set_id: str
    axis: str
    grid: tuple
    rows: dict = field(default_factory=dict)
    analytic: tuple | None = None

    @property
    def estimate(self) -> tuple:
        return self.rows[max(self.rows)]

    @property
    def deviation(self) -> tuple | None:
        if self.analytic is None:
            return None
        return tuple(abs(e - a) for e, a in zip(self.estimate, self.analytic))

    def to_csv(self) -> str:
        lines = [f"j,{self.axis},value,estimate,analytic,deviation"]
        dev = self.deviation
        for j in sorted(self.rows):
            for i, x in enumerate(self.grid):
                ana = "" if self.analytic is None else repr(self.analytic[i])
                dv = "" if dev is None else repr(dev[i])
                lines.append(f"{j},{x!r},{self.rows[j][i]!r},{self.estimate[i]!r},{ana},{dv}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "set_id": self.set_id,
            "axis": self.axis,
            "grid": list(self.grid),
            "rows": {str(j): list(v) for j, v in sorted(self.rows.items())},
            "estimate": list(self.estimate),
            "analytic": None if self.analytic is None else list(self.analytic),
            "deviation": None if self.deviation is None else list(self.deviation),
        }
        return json.dumps(payload, sort_keys=True)


def nu_sharp_empirical(descriptor, alpha_grid, j_list) -> SpectrumReport:
    """Table of phi_at_scale values over alpha for each scale in j_list."""
    j_list = list(j_list)
    if any(b <= a for a, b in zip(j_list, j_list[1:])):
        raise OutOfRangeError("j_list must be increasing")
    alpha_grid = tuple(map(float, alpha_grid))
    report = SpectrumReport(sets.dumps(descriptor), "alpha", alpha_grid)
    for j in j_list:
        report.rows[j] = tuple(phi_at_scale(descriptor, a, j) for a in alpha_grid)
    spec = analytic_spectrum(descriptor)
    if spec is not None:
        report.analytic = legendre.nu_sharp_analytic(spec)(alpha_grid)
    return report


def nu_sharp_empirical_function(descriptor, j: int, alpha_max: float = 4.0) -> SampledFunction:
    """phi_at_scale sampled on the default alpha grid, as a SampledFunction."""
    grid = legendre.default_alpha_grid(alpha_max)
    return SampledFunction(0.0, alpha_max, [phi_at_scale(descriptor, a, j) for a in grid])
