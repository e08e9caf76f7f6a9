"""Closed-form critical exponents and scale-bookkeeping scalars.

Dual-profile arguments ("nu" below) accept either a SampledFunction, which is
linearly interpolated and extended by nu(alpha) = alpha beyond its grid, or a
plain callable.  Unspecified multiplicative constants are never assigned;
operations return the variable part only.
"""

from __future__ import annotations

import math

from . import spectra
from .errors import OutOfRangeError
from .records import record
from .sampled import SampledFunction


def eval_nu(nu, alpha: float) -> float:
    """Evaluate a dual profile with the exact extension nu(a) = a off-grid."""
    if callable(nu) and not isinstance(nu, SampledFunction):
        return float(nu(alpha))
    if alpha > nu.hi:
        return float(alpha)
    return float(nu(alpha))


def s_p(d: int, p: float) -> float:
    """Fixed-time Sobolev exponent (d-1)(1/2 - 1/p)."""
    if p < 2:
        raise OutOfRangeError(f"need p >= 2, got {p}")
    return (d - 1) * (0.5 - 1.0 / p)


def sigma_p(d: int, p: float) -> float:
    """Space-time gain exponent: 0 up to 2d/(d-1), then s_p - 1/p."""
    if p <= 2:
        raise OutOfRangeError(f"need p > 2, got {p}")
    return max(0.0, s_p(d, p) - 1.0 / p)


def _nu_argument(d: int, p: float, q: float) -> float:
    """q (d-1)/2 (1 - 1/p - 1/q); reduces to p s_p when q = p."""
    return 0.5 * (d - 1) * q * (1.0 - 1.0 / p - 1.0 / q)


def ls_exponent(d: int, p: float, nu) -> float:
    """Critical time-averaged exponent (1/p) nu(p s_p)."""
    if p < 2:
        raise OutOfRangeError(f"need p >= 2, got {p}")
    return eval_nu(nu, _nu_argument(d, p, p)) / p


def p_gamma(d: int, gamma: float) -> float:
    """Threshold 2(d-1+gamma)/(d-1) above which the gain saturates at s_p."""
    return 2.0 * (d - 1 + gamma) / (d - 1)


def q_gamma(d: int, gamma: float) -> float:
    """Threshold 2(d-1+2 gamma)/(d-1) for the L2 -> Lq estimates."""
    return 2.0 * (d - 1 + 2.0 * gamma) / (d - 1)


def q_circ(d: int, gamma_circ: float) -> float:
    """Same threshold with the uniform-over-scales dimension."""
    return q_gamma(d, gamma_circ)


def s_E_pq(d: int, p: float, q: float, nu) -> float:
    """L^p -> L^q critical exponent with a fractal time set.

    (d+1)/2 (1/p - 1/q) + (1/q) nu(q (d-1)/2 (1 - 1/p - 1/q)).
    """
    if not (1.0 < p <= q):
        raise OutOfRangeError(f"need 1 < p <= q, got p={p}, q={q}")
    p_dual = p / (p - 1.0)
    if not q > p_dual:
        raise OutOfRangeError(f"need q > p' = {p_dual}, got q={q}")
    lead = 0.5 * (d + 1) * (1.0 / p - 1.0 / q)
    return lead + eval_nu(nu, _nu_argument(d, p, q)) / q


def s_E_q(d: int, q: float, nu) -> float:
    """L^2 -> L^q critical exponent; the p = 2 case of s_E_pq.

    Defined down to the boundary q = 2, where it equals half the profile
    value at zero (half the box-counting exponent).
    """
    if q < 2:
        raise OutOfRangeError(f"need q >= 2, got {q}")
    if q == 2.0:
        return 0.5 * eval_nu(nu, 0.0)
    return s_E_pq(d, 2.0, q, nu)


def lower_bound_rhs(d: int, p: float, q: float, j: int, window_length: float, count: int) -> float:
    """Variable part of the lower-bound display.

    N^(1/q) * 2^(j (d+1)/2 (1/p - 1/q)) / |I|^((d-1)/2 (1 - 1/p - 1/q)),
    with all unspecified constants omitted.
    """
    if count < 0 or not 0.0 < window_length < math.inf:
        raise OutOfRangeError(f"need count >= 0 and a finite |I| > 0, got {count} and {window_length}")
    if 2.0**j * window_length < 1.0:
        raise OutOfRangeError("need 2^j |I| >= 1")
    expo = j * 0.5 * (d + 1) * (1.0 / p - 1.0 / q)
    power = 0.5 * (d - 1) * (1.0 - 1.0 / p - 1.0 / q)
    return count ** (1.0 / q) * 2.0**expo / window_length**power


def kappa(descriptor, j: int, m: int, d: int, p: float) -> float:
    """sup over windows of length 2^(m-j) of N(E /\\ I, 2^-j) |I|^(-p s_p)."""
    if not 0 <= m <= j:
        raise OutOfRangeError(f"need 0 <= m <= j, got m={m}, j={j}")
    maxima = spectra.window_count_maxima(descriptor, j)
    ell = j - m  # window length exponent: |I| = 2^-ell
    return float(maxima[ell]) * 2.0 ** (ell * p * s_p(d, p))


def lam(descriptor, j: int, m: int, d: int, q: float) -> float:
    """2^(jd(1-2/q)) 2^(-m(d-1)(1/2-1/q)) sup N(E /\\ I, 2^-j)^(2/q)."""
    if q < 2:
        raise OutOfRangeError(f"need q >= 2, got {q}")
    if not 0 <= m <= j + 10:
        raise OutOfRangeError(f"need 0 <= m <= j+10, got m={m}, j={j}")
    maxima = spectra.window_count_maxima(descriptor, j)
    count = float(maxima[j - m]) if m <= j else float(maxima[0])
    return (
        2.0 ** (j * d * (1.0 - 2.0 / q))
        * 2.0 ** (-m * (d - 1) * (0.5 - 1.0 / q))
        * count ** (2.0 / q)
    )


@record(frozen=True)
class BookkeepingReport:
    j: int
    d: int
    p: float
    q: float
    kappa_values: tuple
    lambda_values: tuple
    kappa_sum: float
    lambda_sum: float
    kappa_ratio: float
    lambda_ratio: float
    slack: float

    @property
    def passes(self) -> bool:
        return self.kappa_ratio <= 1.0 + self.slack and self.lambda_ratio <= 1.0 + self.slack

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "d": self.d,
            "p": self.p,
            "q": self.q,
            "kappa": list(self.kappa_values),
            "lambda": list(self.lambda_values),
            "kappa_sum": self.kappa_sum,
            "lambda_sum": self.lambda_sum,
            "kappa_ratio": self.kappa_ratio,
            "lambda_ratio": self.lambda_ratio,
            "passes": self.passes,
            "tolerance": self.slack,
        }


def bookkeeping_sums(descriptor, j: int, d: int, p: float, q: float, slack: float = 1e-9) -> BookkeepingReport:
    """Scale sums of kappa and lambda against their single-scale suprema.

    The ratios compare sum_m kappa_{j,m} with (j+1) 2^(j phi_j(p s_p)) and
    sum_{m<=j} lambda_{j,m} with (j+1) 2^(2 j sEq_j); both are definitionally
    at most 1 up to floating point, and pass up to 1 + slack.  The sums are
    correctly rounded.
    """
    kap = tuple(kappa(descriptor, j, m, d, p) for m in range(j + 1))
    lamv = tuple(lam(descriptor, j, m, d, q) for m in range(j + 1))
    kap_sum, lam_sum = math.fsum(kap), math.fsum(lamv)
    phi = spectra.phi_at_scale(descriptor, p * s_p(d, p), j)
    alpha_q = 0.5 * (d - 1) * (0.5 * q - 1.0)
    seq_scale = 0.5 * (d + 1) * (0.5 - 1.0 / q) + spectra.phi_at_scale(descriptor, alpha_q, j) / q
    kap_bound = (j + 1) * 2.0 ** (j * phi)
    lam_bound = (j + 1) * 2.0 ** (2.0 * j * seq_scale)
    return BookkeepingReport(
        j, d, p, q, kap, lamv,
        kap_sum, lam_sum, kap_sum / kap_bound, lam_sum / lam_bound,
        slack,
    )
