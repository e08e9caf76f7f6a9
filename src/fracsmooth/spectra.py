"""Empirical (finite-scale) and analytic dimension spectra.

All window suprema run over the two-shifted dyadic family: dyadic intervals
of length 2^-m for 0 <= m <= j on the standard grid and on the grid shifted
by half an interval length, those inside [1, 2].  Any interval of length L
meets the set inside a family interval of length <= 2L, so exponents are
preserved up to O(1/j).
"""

from __future__ import annotations

import json
import math
from itertools import islice
from operator import itemgetter

from . import backend, sets
from .errors import InvalidResolutionError, InvalidThetaError, OutOfRangeError
from .records import field, record
from .sampled import SampledFunction, linspace

# Deviation tolerance for spectrum checks, scaling like c / j.
TOL_COEFF = 0.08 * 14.0


def default_tolerance(j: int) -> float:
    return TOL_COEFF / j


def family_starts(lo: float, hi: float, length: float) -> backend.Grids:
    """Starts of the family windows of one length inside [1, 2] near [lo, hi].

    Shift i = 0, 1 has the grid off + k * length with off = i * length / 2 and
    k from one window left of lo to one window right of hi, cut to the windows
    inside [1, 2].  The grids come in shift order, each ascending, as the
    parts of one ``backend.Grids``.  The cut moves no count maximum of a set
    in [1, 2]: a window across 1 or 2 meets it inside a shift-0 window.
    """
    parts = []
    for off in (0.0, 0.5 * length):
        k_lo = max(math.floor((lo - off) / length) - 1, math.ceil((1.0 - off) / length))
        k_hi = min(math.ceil((hi - off) / length) + 1, math.floor((2.0 - off) / length) - 1)
        if k_lo <= k_hi:
            parts.append((off, length, k_lo, k_hi))
    return backend.Grids(tuple(parts))


# (descriptor, j) -> the deepest window table built at scale j, least
# recently used first; it serves every request up to its top level
_window_tables = {}
_WINDOW_TABLES_MAX = 128


def _window_table(descriptor, j: int, top: int) -> tuple:
    """(maxima, windows): per level m = 0..top, the count maximum over the
    family windows of length 2^-m and the first window attaining it, in
    shift order.

    A table of the same (descriptor, j) that reaches level top serves the
    request; otherwise one ``backend.cover_counts`` call counts levels
    0..top, grid by grid, without building the windows, and keeps one pair
    per grid, its count maximum and first window attaining it: it walks
    each grid with one step cache for all windows and levels, skipping the
    windows that miss the set and stopping at the first that holds the most
    a window can.  The counts are those of ``sets._greedy_count`` in each window,
    whichever levels share the call, so a level reads the same from every
    table.  More than ``sets._MAX_TILES`` family windows at levels 0..j
    raise InvalidResolutionError before counting, whatever the top, so the
    scales refused do not depend on the caller.
    """
    key = (descriptor, j)
    table = _window_tables.get(key)
    if table is None or len(table[0]) <= top:
        smin, smax = sets.bounds(descriptor)
        levels = [family_starts(smin, smax, 2.0 ** (-m)) for m in range(j + 1)]
        family = sum(len(level) for level in levels)
        if family > sets._MAX_TILES:
            raise InvalidResolutionError(
                f"resolution too fine: {family} family windows at j = {j}, more than {sets._MAX_TILES}")
        levels = levels[:top + 1]
        grids = backend.Grids(tuple(part for level in levels for part in level.parts))
        pairs = iter(backend.cover_counts(*sets.flatten(descriptor), grids, 2.0 ** (-j)))
        rows = []
        for m, level in enumerate(levels):
            # the first grid in shift order keeps a tie
            count, x = max(islice(pairs, len(level.parts)), key=itemgetter(0))
            rows.append((count, (x, x + 2.0 ** (-m))))
        table = tuple(zip(*rows))
    _window_tables.pop(key, None)
    _window_tables[key] = table
    if len(_window_tables) > _WINDOW_TABLES_MAX:
        del _window_tables[next(iter(_window_tables))]
    return table[0][:top + 1], table[1][:top + 1]


def window_count_maxima(descriptor, j: int, *, top: int | None = None) -> tuple:
    """max over family windows of length 2^-m of N(E /\\ I, 2^-j), m = 0..top
    (default j)."""
    if j < 2:
        raise OutOfRangeError(f"need j >= 2, got {j}")
    top = j if top is None else top
    if not 0 <= top <= j:
        raise OutOfRangeError(f"need 0 <= top <= j, got top={top}, j={j}")
    return _window_table(descriptor, j, top)[0]


def best_window(descriptor, j: int, m: int):
    """(window, count): the first family window of length 2^-m, in shift
    order, attaining the count maximum at scale 2^-j."""
    if not 0 <= m <= j:
        raise OutOfRangeError(f"need 0 <= m <= j, got m={m}, j={j}")
    maxima, windows = _window_table(descriptor, j, m)
    return windows[m], maxima[m]


def phi_at_scale(descriptor, alpha: float, j: int) -> float:
    """Finite-scale dual-profile functional.

    max over family windows of
    [alpha * log(1/|I|) + log N(E /\\ I, 2^-j)] / (j log 2).
    """
    if j < 2:
        raise OutOfRangeError(f"need j >= 2, got {j}")
    maxima = _window_table(descriptor, j, j)[0]
    return max((alpha * m + math.log2(n)) / j for m, n in enumerate(maxima))


def assouad_spectrum_empirical(descriptor, theta: float, j: int) -> float:
    """Window exponent at scale j for windows of length 2^-ceil(theta j).

    It asks for the table to level max(m, j - 4): the thetas of
    ``theta_grid`` and ``dims`` read levels up to j - 4, so their calls at
    one scale share one table."""
    if not 0.0 <= theta < 1.0:
        raise InvalidThetaError(f"theta must be in [0, 1), got {theta}")
    # the least integer >= theta j, where a product within rounding of an
    # integer is that integer: (7 / 25) * 25 is 7.000000000000001
    m = round(theta * j)
    if not math.isclose(theta * j, m, rel_tol=1e-12):
        m = math.ceil(theta * j)
    if m > j - 1:
        raise InvalidThetaError(f"theta={theta} leaves no room at scale j={j}")
    maxima = _window_table(descriptor, j, max(m, j - 4))[0]
    return math.log2(maxima[m]) / (j - m)


def theta_grid(j: int) -> tuple:
    """Usable theta values at scale j: {0, 1/j, ..., (j-4)/j}."""
    if j < 4:
        raise OutOfRangeError(f"need j >= 4 for a theta grid, got {j}")
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


@record(frozen=True)
class DimsEstimate:
    minkowski: float
    quasi_assouad: float
    scale_j: int


def dims(descriptor, j: int = 14) -> DimsEstimate:
    """(Minkowski, quasi-Assouad) estimates from the window table at scale j.

    The quasi-Assouad estimate is taken at theta = 1 - 4/j, so j >= 4.
    """
    if j < 4:
        raise OutOfRangeError(f"need j >= 4, got {j}")
    mink = assouad_spectrum_empirical(descriptor, 0.0, j)
    qa = assouad_spectrum_empirical(descriptor, 1.0 - 4.0 / j, j)
    return DimsEstimate(mink, qa, j)


@record(frozen=True)
class QuasiRegularReport:
    is_regular: bool
    max_deviation: float
    nu_deviation: float
    beta: float
    gamma: float
    tolerance: float


def quasi_regular_check(descriptor, j: int = 14) -> QuasiRegularReport:
    """Compare the empirical spectrum with the maximal profile min(b/(1-t), g).

    The reference profile amplifies finite-scale noise by 1/(1-theta), so the
    verdict holds the (1-theta)-weighted deviation, uniformly O(1/j), to
    ``default_tolerance(j)``; the plain sup deviation is reported alongside.
    """
    tolerance = default_tolerance(j)
    est = dims(descriptor, j)
    beta, gamma = est.minkowski, est.quasi_assouad
    dev = 0.0
    nu_dev = 0.0
    for theta in theta_grid(j):
        emp = assouad_spectrum_empirical(descriptor, theta, j)
        ref = min(beta / (1.0 - theta), gamma)
        dev = max(dev, abs(emp - ref))
        nu_dev = max(nu_dev, (1.0 - theta) * abs(emp - ref))
    return QuasiRegularReport(
        bool(nu_dev <= tolerance), float(dev), float(nu_dev), beta, gamma, tolerance
    )


@record
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
    from . import legendre

    j_list = list(j_list)
    if not j_list or any(b <= a for a, b in zip(j_list, j_list[1:])):
        raise OutOfRangeError("j_list must be non-empty and increasing")
    alpha_grid = tuple(map(float, alpha_grid))
    report = SpectrumReport(sets.dumps(descriptor), "alpha", alpha_grid)
    for j in j_list:
        report.rows[j] = tuple(phi_at_scale(descriptor, a, j) for a in alpha_grid)
    spec = analytic_spectrum(descriptor)
    if spec is not None:
        report.analytic = legendre.nu_sharp_analytic(spec)(alpha_grid)
    return report


def nu_sharp_empirical_function(descriptor, j: int) -> SampledFunction:
    """phi_at_scale sampled on the default alpha grid, as a SampledFunction."""
    from . import legendre

    grid = legendre.default_alpha_grid()
    return SampledFunction(0.0, legendre.ALPHA_MAX, [phi_at_scale(descriptor, a, j) for a in grid])
