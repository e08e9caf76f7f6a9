import math

import numpy as np
import pytest

from fracsmooth import exponents, legendre, sets, spectra
from fracsmooth.errors import OutOfRangeError
from fracsmooth.sampled import SampledFunction

from conftest import descriptor_zoo, identity_profile

BETA = math.log(2) / math.log(3)

identity = identity_profile()


def constant_profile(beta, alpha_max=4.0):
    grid = np.linspace(0.0, alpha_max, 257)
    return SampledFunction(0.0, alpha_max, np.maximum(grid, beta))


def full_profile(alpha_max=4.0):
    return constant_profile(1.0, alpha_max)


# ---------------------------------------------------------------------------
# scalar formulas
# ---------------------------------------------------------------------------

def test_s_p_values():
    assert exponents.s_p(2, 2.0) == 0.0
    assert exponents.s_p(2, 6.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert exponents.s_p(3, 4.0) == pytest.approx(0.5, abs=1e-15)
    assert exponents.s_p(4, math.inf) == pytest.approx(1.5)
    with pytest.raises(OutOfRangeError):
        exponents.s_p(3, 1.5)


def test_sigma_p_values():
    assert exponents.sigma_p(2, 3.0) == 0.0
    assert exponents.sigma_p(2, 6.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert exponents.sigma_p(3, 4.0) == pytest.approx(0.25, abs=1e-15)
    assert exponents.sigma_p(2, 4.0) == 0.0  # the joint 2d/(d-1)
    with pytest.raises(OutOfRangeError):
        exponents.sigma_p(3, 2.0)


def test_p_gamma_q_gamma():
    assert exponents.p_gamma(2, 1.0) == 4.0
    assert exponents.p_gamma(2, BETA) == pytest.approx(2.0 * (1.0 + BETA))
    assert exponents.p_gamma(3, 0.0) == 2.0
    assert exponents.q_gamma(2, 1.0) == 6.0
    assert exponents.q_circ(3, 1.0) == 4.0
    assert exponents.q_gamma(5, 0.0) == 2.0


# ---------------------------------------------------------------------------
# ls_exponent and the [1, 2] branches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_ls_exponent_full_interval_branches(d):
    prof = full_profile()
    p_crit = 2.0 * d / (d - 1)
    for p in np.linspace(2.0, p_crit - 1e-9, 7):
        assert exponents.ls_exponent(d, p, prof) == pytest.approx(1.0 / p, abs=1e-12)
    for p in np.linspace(p_crit + 1e-9, 12.0, 7):
        assert exponents.ls_exponent(d, p, prof) == pytest.approx(
            exponents.s_p(d, p), abs=1e-12
        )


def test_ls_exponent_point_is_s_p():
    for d, p in [(2, 3.0), (3, 4.0), (4, 7.5)]:
        assert exponents.ls_exponent(d, p, identity) == pytest.approx(
            exponents.s_p(d, p), abs=1e-12
        )


def test_ls_exponent_interpolated_two_piece():
    # quasi-regular (beta, gamma): (1 - beta/gamma) s_p + beta/p on [2, p_gamma]
    d, beta, gamma = 3, 0.5, 1.0
    grid = np.linspace(0.0, 4.0, 1025)
    prof = SampledFunction(0.0, 4.0, np.maximum((1.0 - beta / gamma) * grid + beta, grid))
    for p in np.linspace(2.0, exponents.p_gamma(d, gamma), 6):
        expected = (1.0 - beta / gamma) * exponents.s_p(d, p) + beta / p
        assert exponents.ls_exponent(d, p, prof) == pytest.approx(expected, abs=1e-3)


def test_eval_nu_extension_beyond_grid():
    short = SampledFunction(0.0, 1.0, np.linspace(0.0, 1.0, 65))
    assert exponents.eval_nu(short, 3.7) == 3.7


# ---------------------------------------------------------------------------
# s_E_q and s_E_pq
# ---------------------------------------------------------------------------

def test_s_E_q_point_identity():
    for d, q in [(2, 3.0), (3, 4.0), (3, 9.0)]:
        assert exponents.s_E_q(d, q, identity) == pytest.approx(
            d * (0.5 - 1.0 / q), abs=1e-12
        )


def test_s_E_q_full_interval_supercritical():
    # for q >= q_gamma the profile argument saturates and the norm exponent is
    # d (1/2 - 1/q)
    d = 3
    prof = full_profile()
    for q in (6.0, 8.0, 12.0):
        assert q >= exponents.q_gamma(d, 1.0)
        assert exponents.s_E_q(d, q, prof) == pytest.approx(d * (0.5 - 1.0 / q), abs=1e-12)


def test_s_E_q_at_two_is_half_minkowski(cantor_thirds):
    nu_emp = spectra.nu_sharp_empirical_function(cantor_thirds, 12)
    val = exponents.s_E_q(3, 2.0, nu_emp)
    mink = spectra.phi_at_scale(cantor_thirds, 0.0, 12)
    assert val == pytest.approx(0.5 * mink, abs=1e-12)


def test_s_E_pq_reductions_exact():
    # s_E(2, q) == s_E(q) and s_E(p, p) == (1/p) nu(p s_p), to the bit
    prof = constant_profile(BETA)
    ps = np.linspace(2.05, 6.0, 20)
    qs = np.linspace(2.1, 9.0, 20)
    for q in qs:
        assert exponents.s_E_pq(3, 2.0, q, prof) == exponents.s_E_q(3, q, prof)
    for p in ps:
        assert exponents.s_E_pq(3, p, p, prof) == exponents.ls_exponent(3, p, prof)


def test_s_E_pq_point_fixed_time():
    # identity profile: (d-1)/2 (1 - 1/p - 1/q) + (d+1)/2 (1/p - 1/q)
    for d, p, q in [(2, 2.0, 4.0), (3, 2.5, 5.0), (4, 3.0, 9.0)]:
        expected = 0.5 * (d - 1) * (1.0 - 1.0 / p - 1.0 / q) + 0.5 * (d + 1) * (1.0 / p - 1.0 / q)
        assert exponents.s_E_pq(d, p, q, identity) == pytest.approx(expected, abs=1e-12)


def test_s_E_pq_domain_checks():
    with pytest.raises(OutOfRangeError):
        exponents.s_E_pq(3, 4.0, 3.0, identity)  # q < p
    with pytest.raises(OutOfRangeError):
        exponents.s_E_pq(3, 1.0, 4.0, identity)  # p <= 1
    with pytest.raises(OutOfRangeError):
        exponents.s_E_pq(3, 1.2, 2.0, identity)  # q <= p'


def test_supercritical_collapse_sweep():
    # with the identity profile, s_E(p,q) = s_q + 1/p - 1/q above the threshold
    for d in (2, 3, 4):
        for gamma in (0.0, 0.5, 1.0):
            for p in np.linspace(1.5, 4.0, 8):
                p_dual = p / (p - 1.0)
                q_thresh = p_dual * (d - 1 + 2 * gamma) / (d - 1)
                for q in np.linspace(q_thresh, q_thresh + 6.0, 6):
                    if q < p or q <= p_dual * (1.0 + 1e-12):
                        continue
                    got = exponents.s_E_pq(d, p, q, identity)
                    want = (d - 1) * (0.5 - 1.0 / q) + 1.0 / p - 1.0 / q
                    arg = 0.5 * (d - 1) * q * (1.0 - 1.0 / p - 1.0 / q)
                    if arg >= gamma:  # the collapse needs the saturated regime
                        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# lower_bound_rhs
# ---------------------------------------------------------------------------

def test_lower_bound_rhs_values():
    assert exponents.lower_bound_rhs(3, 2.0, 2.0, 10, 1.0, 2**10) == pytest.approx(
        2.0 ** (10 / 2.0), rel=1e-12
    )
    j, d, p, q = 9, 3, 2.0, 4.0
    val = exponents.lower_bound_rhs(d, p, q, j, 2.0**-j, 1)
    expo = j * 0.5 * (d + 1) * (1.0 / p - 1.0 / q) + j * 0.5 * (d - 1) * (1.0 - 1.0 / p - 1.0 / q)
    assert val == pytest.approx(2.0**expo, rel=1e-12)
    with pytest.raises(OutOfRangeError):
        exponents.lower_bound_rhs(3, 2.0, 4.0, 4, 2.0**-6, 1)
    # a negative count made a complex value, nan a nan and inf a zero
    for length, count in ((0.5, -3), (math.nan, 3), (math.inf, 3), (0.0, 3)):
        with pytest.raises(OutOfRangeError):
            exponents.lower_bound_rhs(3, 4.0, 4.0, 8, length, count)
    assert exponents.lower_bound_rhs(3, 4.0, 4.0, 8, 0.5, 0) == 0.0


def test_lower_bound_rhs_cantor_feed(cantor_thirds):
    j = 12
    count = sets.covering_number(cantor_thirds, (1.0, 1.25), 2.0**-j)
    val = exponents.lower_bound_rhs(3, 2.0, 4.0, j, 0.25, count)
    assert val == pytest.approx(count**0.25 * 2.0 ** (j * 0.5) / 0.25**0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# kappa / lam / bookkeeping
# ---------------------------------------------------------------------------

def brute_force_kappa(descriptor, j, m, d, p):
    length = 2.0 ** (m - j)
    delta = 2.0**-j
    best = 0
    for shift in (0.0, 0.5 * length):
        lo = math.floor((1.0 - shift) / length) * length + shift - length
        while lo <= 2.0:
            n = sets.covering_number(descriptor, (max(lo, 0.0), min(lo + length, 3.0)), delta)
            best = max(best, n)
            lo += length
    return best * length ** (-p * exponents.s_p(d, p))


def test_kappa_full_interval_exact(full_interval):
    # N(E /\ I, 2^-j) = 2^m for |I| = 2^(m-j), so kappa = 2^m 2^((j-m) p s_p)
    j, d, p = 10, 3, 4.0
    for m in (0, 3, 7, 10):
        got = exponents.kappa(full_interval, j, m, d, p)
        expected = 2.0**m * 2.0 ** ((j - m) * p * exponents.s_p(d, p))
        assert got == pytest.approx(expected, rel=1e-9)


def test_kappa_point_smallest_window(single_point):
    j, d, p = 10, 3, 4.0
    got = exponents.kappa(single_point, j, 0, d, p)
    assert got == pytest.approx(2.0 ** (j * p * exponents.s_p(d, p)), rel=1e-12)


@pytest.mark.parametrize("m", [0, 4, 9, 12])
def test_kappa_cantor_vs_bruteforce(cantor_thirds, m):
    j, d, p = 12, 3, 4.0
    got = exponents.kappa(cantor_thirds, j, m, d, p)
    assert got == pytest.approx(brute_force_kappa(cantor_thirds, j, m, d, p), rel=1e-9)


def test_lam_values(cantor_thirds, full_interval):
    j, d = 12, 3
    # q = 2: both prefactor exponents vanish, lam is the pure covering sup
    for descriptor in (cantor_thirds, full_interval):
        maxima = spectra.window_count_maxima(descriptor, j)
        for m in (0, 5, 12):
            got = exponents.lam(descriptor, j, m, d, 2.0)
            assert got == pytest.approx(float(maxima[j - m]), rel=1e-12)
    # q -> infinity limit: 2^(jd) 2^(-m(d-1)/2)
    for m in (0, 6):
        got = exponents.lam(full_interval, j, m, d, 1e12)
        assert got == pytest.approx(2.0 ** (j * d) * 2.0 ** (-m * (d - 1) / 2.0), rel=1e-3)


def test_kappa_dominated_by_phi(cantor_thirds):
    j, d, p = 12, 3, 2.5
    alpha = p * exponents.s_p(d, p)
    bound = 2.0 ** (j * spectra.phi_at_scale(cantor_thirds, alpha, j))
    for m in range(j + 1):
        assert exponents.kappa(cantor_thirds, j, m, d, p) <= bound * (1.0 + 1e-9)


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_bookkeeping_ratios(descriptor):
    report = exponents.bookkeeping_sums(descriptor, 10, 3, 4.0, 4.0)
    assert report.kappa_ratio <= 1.0 + 1e-9
    assert report.lambda_ratio <= 1.0 + 1e-9
    assert report.passes
    # lambda-sum inequality in exponent form
    alpha_q = 0.5 * (3 - 1) * (0.5 * 4.0 - 1.0)
    seq = 0.5 * 4 * (0.5 - 0.25) + spectra.phi_at_scale(descriptor, alpha_q, 10) / 4.0
    lhs = math.log2(report.lambda_sum) / (2 * 10) - seq
    assert lhs <= math.log2(11) / 20 + 1e-9
