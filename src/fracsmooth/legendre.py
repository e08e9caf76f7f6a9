"""Discrete Legendre transform engine and convex-duality checks.

The transform of a piecewise-linear function attains its supremum at grid
nodes, so node-wise evaluation is exact for sampled inputs.  Default grids:
theta on [0, 1] at step 1/256, alpha on [0, 4] at step 1/64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, InvalidSpectrumError
from .sampled import SampledFunction, common_grid

THETA_STEP = 1.0 / 256.0
ALPHA_STEP = 1.0 / 64.0
ALPHA_MAX = 4.0

# absolute slack per second difference; pure floating-point noise floor
CONVEXITY_SLACK = 1e-9


def default_alpha_grid(alpha_max: float = ALPHA_MAX) -> np.ndarray:
    return np.linspace(0.0, alpha_max, int(round(alpha_max / ALPHA_STEP)) + 1)


@dataclass(frozen=True)
class ConvexityCertificate:
    is_convex: bool
    max_violation: float
    witness_index: int

    def to_json_dict(self) -> dict:
        return {
            "is_convex": self.is_convex,
            "max_violation": self.max_violation,
            "witness_index": self.witness_index,
        }


def convexity_certificate(f: SampledFunction, slack: float = CONVEXITY_SLACK) -> ConvexityCertificate:
    """Check discrete convexity via second differences on the grid."""
    second = np.diff(f.values, 2)
    if len(second) == 0:
        return ConvexityCertificate(True, 0.0, -1)
    worst = int(np.argmin(second))
    violation = max(0.0, -float(second[worst]))
    return ConvexityCertificate(violation <= slack, violation, worst if violation > 0 else -1)


def legendre_transform(f: SampledFunction, alpha_grid=None) -> SampledFunction:
    """f*(alpha) = max over grid nodes of theta * alpha - f(theta)."""
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    alpha_grid = np.asarray(alpha_grid, dtype=np.float64)
    theta = f.grid
    # rows: alpha, cols: theta
    table = np.multiply.outer(alpha_grid, theta) - f.values[None, :]
    vals = table.max(axis=1)
    return SampledFunction(alpha_grid[0], alpha_grid[-1], vals)


def convex_hull(f: SampledFunction, alpha_grid=None) -> SampledFunction:
    """Double transform: the largest convex function below f, on f's grid.

    The default dual grid contains every data chord slope, which makes the
    double transform exact for piecewise-linear input.
    """
    if alpha_grid is None:
        nodes = f.grid
        chords = (f.values[None, :] - f.values[:, None]) / (nodes[None, :] - nodes[:, None] + np.eye(len(nodes)))
        slopes = chords[~np.eye(len(nodes), dtype=bool)]
        pad = 1.0 + 0.1 * abs(slopes).max()
        alpha_grid = np.unique(
            np.concatenate([np.linspace(slopes.min() - pad, slopes.max() + pad, 513), slopes])
        )
    star = legendre_transform(f, alpha_grid)
    theta = f.grid
    table = np.multiply.outer(theta, np.asarray(alpha_grid)) - star.values[None, :]
    return SampledFunction(f.lo, f.hi, table.max(axis=1))


def nu_from_spectrum(spectrum: SampledFunction) -> SampledFunction:
    """nu(theta) = -(1 - theta) * spectrum(theta); requires values in [0, 1]."""
    vals = spectrum.values
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        raise InvalidSpectrumError("spectrum values must lie in [0, 1]")
    theta = spectrum.grid
    return SampledFunction(spectrum.lo, spectrum.hi, -(1.0 - theta) * vals)


def nu_sharp_analytic(spectrum: SampledFunction, alpha_grid=None) -> SampledFunction:
    """Dual profile of a dimension spectrum: transform of -(1-theta)*spectrum."""
    return legendre_transform(nu_from_spectrum(spectrum), alpha_grid)


@dataclass(frozen=True)
class AdmissibilityReport:
    increasing_ok: bool
    increasing_witness: int
    convexity: ConvexityCertificate
    identity_tail_ok: bool
    identity_witness: int
    dominates_diagonal_ok: bool
    diagonal_witness: int

    @property
    def admissible(self) -> bool:
        return self.increasing_ok and self.convexity.is_convex and self.identity_tail_ok

    def to_json_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "increasing_ok": self.increasing_ok,
            "increasing_witness": self.increasing_witness,
            "convexity": self.convexity.to_json_dict(),
            "identity_tail_ok": self.identity_tail_ok,
            "identity_witness": self.identity_witness,
            "dominates_diagonal_ok": self.dominates_diagonal_ok,
            "diagonal_witness": self.diagonal_witness,
        }


def tau_admissible(tau: SampledFunction, slack: float = 1e-9) -> AdmissibilityReport:
    """Check: increasing, convex, tau(alpha) = alpha for alpha >= 1.

    Also reports the derived bound tau(alpha) >= alpha which admissible
    functions must satisfy everywhere.
    """
    if tau.hi < 2.0 - 1e-12:
        raise AdmissibilityError("tau must be sampled on [0, A] with A >= 2")
    grid = tau.grid
    vals = tau.values

    diffs = np.diff(vals)
    inc_bad = np.where(diffs < -slack)[0]
    increasing_ok = len(inc_bad) == 0
    inc_witness = int(inc_bad[0]) if len(inc_bad) else -1

    cert = convexity_certificate(tau, slack)

    tail = grid >= 1.0 - 1e-12
    tail_err = np.abs(vals[tail] - grid[tail])
    tail_bad = np.where(tail_err > 1e-9 + slack)[0]
    identity_ok = len(tail_bad) == 0
    tail_idx = np.where(tail)[0]
    identity_witness = int(tail_idx[tail_bad[0]]) if len(tail_bad) else -1

    below = np.where(vals < grid - slack)[0]
    dominates_ok = len(below) == 0
    diag_witness = int(below[0]) if len(below) else -1

    return AdmissibilityReport(
        increasing_ok, inc_witness, cert, identity_ok, identity_witness,
        dominates_ok, diag_witness,
    )


def spectrum_from_tau(tau: SampledFunction, theta_step: float = THETA_STEP) -> SampledFunction:
    """Recover the dimension spectrum whose dual profile is tau.

    Computes nu = tau* on [0, 1] and returns gamma(theta) = -nu(theta)/(1-theta)
    on [0, 1 - theta_step].  Raises when tau is not admissible.
    """
    report = tau_admissible(tau)
    if not report.admissible:
        raise AdmissibilityError(f"tau fails admissibility: {report.to_json_dict()}")
    n = int(round((1.0 - theta_step) / theta_step)) + 1
    theta = np.linspace(0.0, 1.0 - theta_step, n)
    # nu(theta) = max over alpha-grid of alpha*theta - tau(alpha)
    table = np.multiply.outer(theta, tau.grid) - tau.values[None, :]
    nu = table.max(axis=1)
    gamma = -nu / (1.0 - theta)
    return SampledFunction(0.0, 1.0 - theta_step, np.clip(gamma, 0.0, 1.0))


def union_nu_sharp(profiles) -> SampledFunction:
    """Pointwise max of dual profiles on a shared alpha grid."""
    profiles = list(profiles)
    if len(profiles) == 1:
        return profiles[0]
    grid = common_grid(profiles)
    vals = np.max([p(grid) for p in profiles], axis=0)
    return SampledFunction(grid[0], grid[-1], vals)
