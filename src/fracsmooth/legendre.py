"""Discrete Legendre transform engine and convex-duality checks, in plain
Python.

The transform of a piecewise-linear function attains its supremum at grid
nodes, so node-wise evaluation is exact for sampled inputs.  Default grids:
theta on [0, 1] at step 1/256, alpha on [0, 4] at step 1/64.
"""

from __future__ import annotations

from .errors import AdmissibilityError, InvalidSpectrumError
from .records import record
from .sampled import SampledFunction, common_grid, linspace

THETA_STEP = 1.0 / 256.0
ALPHA_STEP = 1.0 / 64.0
ALPHA_MAX = 4.0

# absolute slack per second difference; pure floating-point noise floor
CONVEXITY_SLACK = 1e-9


def default_alpha_grid() -> tuple:
    return linspace(0.0, ALPHA_MAX, int(round(ALPHA_MAX / ALPHA_STEP)) + 1)


@record(frozen=True)
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


def _first(flags) -> int:
    """Index of the first true flag, or -1."""
    return next((i for i, flag in enumerate(flags) if flag), -1)


def _transform(xs, ys, grid) -> list:
    """max over the nodes (x, y) of g * x - y, for each g in grid."""
    nodes = list(zip(xs, ys))
    return [max([g * x - y for x, y in nodes]) for g in grid]


def convexity_certificate(f: SampledFunction) -> ConvexityCertificate:
    """Check discrete convexity via second differences, up to CONVEXITY_SLACK."""
    v = f.values
    second = [(c - b) - (b - a) for a, b, c in zip(v, v[1:], v[2:])]
    if not second:
        return ConvexityCertificate(True, 0.0, -1)
    worst = min(range(len(second)), key=second.__getitem__)
    violation = max(0.0, -second[worst])
    return ConvexityCertificate(violation <= CONVEXITY_SLACK, violation, worst if violation > 0 else -1)


def legendre_transform(f: SampledFunction, alpha_grid=None) -> SampledFunction:
    """f*(alpha) = max over grid nodes of theta * alpha - f(theta)."""
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    alpha_grid = [float(a) for a in alpha_grid]
    return SampledFunction(alpha_grid[0], alpha_grid[-1], _transform(f.grid, f.values, alpha_grid))


def convex_hull(f: SampledFunction) -> SampledFunction:
    """The largest convex function below f, on f's grid.

    The lower hull of the nodes by Andrew's monotone chain, evaluated back
    on every node: O(n), and exact for piecewise-linear input.
    """
    xs, ys = f.grid, f.values
    hull = []
    for k in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b when it lies on or above the chord from a to node k
            if (ys[b] - ys[a]) * (xs[k] - xs[a]) >= (ys[k] - ys[a]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(k)
    vals = [ys[0]]
    for a, b in zip(hull, hull[1:]):
        slope = (ys[b] - ys[a]) / (xs[b] - xs[a])
        vals += [ys[a] + slope * (xs[k] - xs[a]) for k in range(a + 1, b)]
        vals.append(ys[b])
    return SampledFunction(f.lo, f.hi, vals)


def nu_from_spectrum(spectrum: SampledFunction) -> SampledFunction:
    """nu(theta) = -(1 - theta) * spectrum(theta); requires values in [0, 1]."""
    vals = spectrum.values
    if any(v < -1e-12 or v > 1.0 + 1e-12 for v in vals):
        raise InvalidSpectrumError("spectrum values must lie in [0, 1]")
    nu = [-(1.0 - t) * v for t, v in zip(spectrum.grid, vals)]
    return SampledFunction(spectrum.lo, spectrum.hi, nu)


def nu_sharp_analytic(spectrum: SampledFunction) -> SampledFunction:
    """Dual profile of a spectrum: transform of -(1-theta)*spectrum, default grid."""
    return legendre_transform(nu_from_spectrum(spectrum))


@record(frozen=True)
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


def tau_admissible(tau: SampledFunction) -> AdmissibilityReport:
    """Check, up to CONVEXITY_SLACK: increasing, convex, tau = alpha for alpha >= 1.

    Also reports the derived bound tau(alpha) >= alpha which admissible
    functions must satisfy everywhere.
    """
    if tau.hi < 2.0 - 1e-12:
        raise AdmissibilityError("tau must be sampled on [0, A] with A >= 2")
    grid, vals = tau.grid, tau.values
    inc_witness = _first(b - a < -CONVEXITY_SLACK for a, b in zip(vals, vals[1:]))
    cert = convexity_certificate(tau)
    identity_witness = _first(
        x >= 1.0 - 1e-12 and abs(v - x) > 1e-9 + CONVEXITY_SLACK for x, v in zip(grid, vals)
    )
    diag_witness = _first(v < x - CONVEXITY_SLACK for x, v in zip(grid, vals))
    return AdmissibilityReport(
        inc_witness < 0, inc_witness, cert, identity_witness < 0, identity_witness,
        diag_witness < 0, diag_witness,
    )


def spectrum_from_tau(tau: SampledFunction) -> SampledFunction:
    """Recover the dimension spectrum whose dual profile is tau.

    Computes nu = tau* on [0, 1] and returns gamma(theta) = -nu(theta)/(1-theta)
    on [0, 1 - THETA_STEP].  Raises when tau is not admissible.
    """
    report = tau_admissible(tau)
    if not report.admissible:
        raise AdmissibilityError(f"tau fails admissibility: {report.to_json_dict()}")
    n = int(round((1.0 - THETA_STEP) / THETA_STEP)) + 1
    theta = linspace(0.0, 1.0 - THETA_STEP, n)
    nu = _transform(tau.grid, tau.values, theta)
    gamma = [min(1.0, max(0.0, -v / (1.0 - t))) for t, v in zip(theta, nu)]
    return SampledFunction(0.0, 1.0 - THETA_STEP, gamma)


def union_nu_sharp(profiles) -> SampledFunction:
    """Pointwise max of dual profiles on a shared alpha grid."""
    profiles = list(profiles)
    if len(profiles) == 1:
        return profiles[0]
    grid = common_grid(profiles)
    vals = [max(column) for column in zip(*(p(grid) for p in profiles))]
    return SampledFunction(grid[0], grid[-1], vals)
