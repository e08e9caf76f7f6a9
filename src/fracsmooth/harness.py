"""Experiment runners: duality tables, sharpness slopes, exponent tables,
and scale bookkeeping.  The CLI wraps these; all outputs are plain CSV/JSON
and every verdict is recomputable from the emitted tables.

Only the sharpness slopes (``run_sharpness_slope``, ``_window_q`` and
``_fit_line``) use NumPy and ``wave``, and they import them when called."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from . import backend, exponents, legendre, sets, spectra
from .errors import DegenerateWindowError, OutOfRangeError, UnsupportedSetError


# The experiment protocol: the alpha grid of the duality check, windows with
# 2^j |I| >= MIN_WINDOW_FACTOR, and SHELL_POINTS radii across each shell J_t.
DUALITY_ALPHAS = [0.0625 * k for k in range(33)]
MIN_WINDOW_FACTOR = 32
SHELL_POINTS = 17

# Times per shell lookup: caps the (times x radii) arrays of one lookup.
_TIME_BLOCK = 512


@dataclass
class ExperimentConfig:
    descriptor: object
    d: int = 3
    p: float = 4.0
    q: float = 4.0
    j_min: int = 8
    j_max: int = 13
    tolerance: float | None = None
    seed: int = 0  # unused; kept because perfbench/child.py passes it

    @property
    def j_list(self):
        return list(range(self.j_min, self.j_max + 1))


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------

@dataclass
class DualityReport:
    set_id: str
    j_list: list
    alpha_grid: list
    deviations: dict          # j -> list over alpha
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max(self.deviations[max(self.deviations)])

    @property
    def passes(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_csv(self) -> str:
        lines = ["j,alpha,deviation"]
        for j in sorted(self.deviations):
            for a, v in zip(self.alpha_grid, self.deviations[j]):
                lines.append(f"{j},{a!r},{v!r}")
        lines.append(f"# max_deviation,{self.max_deviation!r},tolerance,{self.tolerance!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "set_id": self.set_id,
                "alpha_grid": list(self.alpha_grid),
                "deviations": {str(j): list(v) for j, v in sorted(self.deviations.items())},
                "max_deviation": self.max_deviation,
                "tolerance": self.tolerance,
                "passes": self.passes,
            },
            sort_keys=True,
        )


def run_duality(config: ExperimentConfig) -> DualityReport:
    """Compare the finite-scale functional against the closed-form dual profile."""
    spec = spectra.analytic_spectrum(config.descriptor)
    if spec is None:
        raise UnsupportedSetError("set has no closed-form spectrum to compare against")
    reference = legendre.nu_sharp_analytic(spec)
    grid = DUALITY_ALPHAS
    ref_vals = reference(grid)
    j_top = config.j_max
    tol = config.tolerance if config.tolerance is not None else spectra.default_tolerance(j_top) + 2.0 / j_top
    devs = {}
    for j in config.j_list:
        devs[j] = [abs(spectra.phi_at_scale(config.descriptor, a, j) - r) for a, r in zip(grid, ref_vals)]
    return DualityReport(sets.dumps(config.descriptor), config.j_list, grid, devs, tol)


# ---------------------------------------------------------------------------
# Sharpness slopes
# ---------------------------------------------------------------------------

@dataclass
class SlopeReport:
    set_id: str
    d: int
    p: float
    j_list: list
    log2_q: list
    slope: float
    intercept: float
    predicted: float
    windows: list
    fullset_log2_q: list = field(default_factory=list)
    fullset_slope: float = math.nan

    @property
    def deviation(self) -> float:
        return abs(self.slope - self.predicted)

    def to_csv(self) -> str:
        lines = ["j,log2_Q,window_lo,window_hi,fullset_log2_Q"]
        for i, j in enumerate(self.j_list):
            w = self.windows[i]
            fs = repr(self.fullset_log2_q[i]) if self.fullset_log2_q else ""
            lines.append(f"{j},{self.log2_q[i]!r},{w[0]!r},{w[1]!r},{fs}")
        lines.append(
            f"# slope,{self.slope!r},intercept,{self.intercept!r},"
            f"predicted,{self.predicted!r},fullset_slope,{self.fullset_slope!r}"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "set_id": self.set_id,
                "d": self.d,
                "p": self.p,
                "j_list": self.j_list,
                "log2_q": self.log2_q,
                "slope": self.slope,
                "intercept": self.intercept,
                "predicted": self.predicted,
                "deviation": self.deviation,
                "windows": self.windows,
                "fullset_log2_q": self.fullset_log2_q,
                "fullset_slope": self.fullset_slope,
            },
            sort_keys=True,
        )


def _fit_line(xs, ys):
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 4:
        raise DegenerateWindowError("slope fits need at least 4 scales")
    a = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(slope), float(intercept)


def choose_window(descriptor, j: int, alpha: float, min_factor: int):
    """Smallest dyadic family window inside [1, 2] attaining the functional
    maximizer at exponent alpha, subject to 2^j |I| >= min_factor."""
    maxima = spectra.window_count_maxima(descriptor, j)
    m_cap = j - int(math.ceil(math.log2(min_factor)))
    if m_cap < 0:
        raise DegenerateWindowError(f"no window satisfies 2^{j} |I| >= {min_factor}")
    scores = [alpha * m + math.log2(maxima[m]) for m in range(m_cap + 1)]
    best = max(scores)
    m_star = max(m for m, s in enumerate(scores) if s >= best - 1e-12)
    # family windows inside [1, 2]: shift 0, then shift 1/2, each ascending
    w_lo = spectra.family_starts(1.0, 2.0, 2.0**-m_star).within(1.0, 2.0)
    w_hi = backend.Grids(w_lo.parts, ends=True)
    flat = sets.flatten(descriptor)
    counts = backend.cover_counts(flat[0], flat[1], flat[2], w_lo, w_hi, 2.0**-j)
    best = counts.index(max(counts))
    return (w_lo[best], w_hi[best]), counts[best]


def _window_q(descriptor, params, p: float, window, points):
    """Sum of shell norms over every discretization time in ``points`` (of
    ``descriptor`` at scale 2^-j) in the fuller half of the window,
    normalized by the data norm.

    The shells of each block of _TIME_BLOCK times form one (times x radii)
    grid: one ``field_row_fast`` lookup and one ``shell_lp_norm`` reduction
    per block, summed as p-th powers in time order.  Both give every row the
    bits of a one-row call, so the blocks do not change the sum."""
    import numpy as np

    from . import wave

    points = np.asarray(points)
    delta = 2.0**-params.j
    lo, hi = window
    mid = 0.5 * (lo + hi)
    n_left = sets.covering_number(descriptor, (lo, mid), delta)
    n_right = sets.covering_number(descriptor, (mid, hi), delta)
    if n_right >= n_left:
        half, t_ref = (mid, hi), lo
    else:
        half, t_ref = (lo, mid), hi
    pts = points[(points >= half[0]) & (points <= half[1])]
    pts = pts[np.abs(pts - t_ref) >= 0.25 * (hi - lo) - 1e-12]
    if len(pts) == 0:
        raise DegenerateWindowError(f"no discretization points in half window {half}")
    params = replace(params, t_ref=t_ref)
    gp = wave.data_norm(params, p) ** p
    total = 0.0
    for start in range(0, len(pts), _TIME_BLOCK):
        block = pts[start:start + _TIME_BLOCK]
        shells = wave.region(params, block)
        grid = np.linspace(shells.r_lo, shells.r_hi, SHELL_POINTS, axis=1)
        rows = wave.field_row_fast(params, block, grid)
        for norm in wave.shell_lp_norm(rows, p, (shells.r_lo, shells.r_hi)).tolist():
            total += norm**p
    return total / gp


def run_sharpness_slope(config: ExperimentConfig) -> SlopeReport:
    """Measure the growth exponent of the shell-norm sums against scale."""
    from . import wave

    d, p = config.d, config.p
    alpha = p * exponents.s_p(d, p)
    log2_q, windows, log2_q_full = [], [], []
    for j in config.j_list:
        params = wave.WaveParams(d=d, j=j, t_ref=1.0)
        window, _ = choose_window(config.descriptor, j, alpha, MIN_WINDOW_FACTOR)
        points = sets.discretize(config.descriptor, j).points
        q_val = _window_q(config.descriptor, params, p, window, points)
        log2_q.append(math.log2(q_val))
        windows.append(window)
        if window == (1.0, 2.0):
            log2_q_full.append(log2_q[-1])
        else:
            q_full = _window_q(config.descriptor, params, p, (1.0, 2.0), points)
            log2_q_full.append(math.log2(q_full))
    slope, intercept = _fit_line(config.j_list, log2_q)
    slope_full, _ = _fit_line(config.j_list, log2_q_full)
    predicted = spectra.phi_at_scale(config.descriptor, alpha, config.j_max)
    return SlopeReport(
        sets.dumps(config.descriptor), d, p, config.j_list, log2_q,
        slope, intercept, predicted, windows, log2_q_full, slope_full,
    )


# ---------------------------------------------------------------------------
# Exponent tables
# ---------------------------------------------------------------------------

def run_exponent_table(config: ExperimentConfig, p_list=None, q_list=None) -> str:
    """CSV sweep of every closed-form exponent for the configured set."""
    d = config.d
    if p_list is None:
        p_list = [2.0 + 0.5 * k for k in range(9)]
    if q_list is None:
        q_list = [2.0 + 0.5 * k for k in range(9)]
    nu_emp = spectra.nu_sharp_empirical_function(config.descriptor, config.j_max)
    spec = spectra.analytic_spectrum(config.descriptor)
    nu_ana = legendre.nu_sharp_analytic(spec) if spec is not None else None
    est = spectra.dims(config.descriptor, config.j_max)
    gamma = est.quasi_assouad
    gamma_circ = max(
        spectra.assouad_spectrum_empirical(config.descriptor, th, config.j_max)
        for th in spectra.theta_grid(config.j_max)
    )
    lines = [
        "d,p,q,s_p,sigma_p,ls_emp,ls_ana,s_E_q_emp,s_E_q_ana,"
        "s_E_pq_emp,s_E_pq_ana,p_gamma,q_gamma,q_circ"
    ]
    for p in p_list:
        for q in q_list:
            if q < p:
                continue
            sp = exponents.s_p(d, p)
            sig = exponents.sigma_p(d, p) if p > 2 else ""
            ls_e = exponents.ls_exponent(d, p, nu_emp)
            ls_a = exponents.ls_exponent(d, p, nu_ana) if nu_ana is not None else ""
            try:
                seq_e = exponents.s_E_q(d, q, nu_emp)
                seq_a = exponents.s_E_q(d, q, nu_ana) if nu_ana is not None else ""
            except OutOfRangeError:
                seq_e = seq_a = ""
            try:
                spq_e = exponents.s_E_pq(d, p, q, nu_emp)
                spq_a = exponents.s_E_pq(d, p, q, nu_ana) if nu_ana is not None else ""
            except OutOfRangeError:
                spq_e = spq_a = ""
            row = [
                d, p, q, sp, sig, ls_e, ls_a, seq_e, seq_a, spq_e, spq_a,
                exponents.p_gamma(d, gamma), exponents.q_gamma(d, gamma),
                exponents.q_circ(d, gamma_circ),
            ]
            lines.append(",".join("" if v == "" else repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

def run_bookkeeping(config: ExperimentConfig, j: int | None = None) -> exponents.BookkeepingReport:
    if j is None:
        j = min(config.j_max, 12)
    return exponents.bookkeeping_sums(config.descriptor, j, config.d, config.p, config.q)
