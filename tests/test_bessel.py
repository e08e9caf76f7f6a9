import math

import numpy as np
import pytest

from fracsmooth import bessel
from fracsmooth.errors import OutOfRangeError, UnsupportedOrderError

from oracles import j0_zero_bisect, j_series_decimal


def envelope(u):
    return np.sqrt(2.0 / (math.pi * np.maximum(np.asarray(u, float), 1.0)))


def test_j0_at_zero():
    assert bessel.bessel_j(0, 0.0) == 1.0


def test_j_half_closed_form():
    assert abs(bessel.bessel_j(0.5, math.pi)) < 1e-15
    u = np.linspace(0.05, 900.0, 2000)
    ref = np.sqrt(2.0 / (math.pi * u)) * np.sin(u)
    assert np.abs(bessel.bessel_j(0.5, u) - ref).max() < 1e-12


@pytest.mark.parametrize("nu, q_of_u", [(0.5, lambda u: np.zeros_like(u)), (1.5, lambda u: 1.0 / u)])
def test_half_order_hankel_branch_is_closed_form(nu, q_of_u):
    # above the switch the terminating expansion is sqrt(2/(pi u)) (P cos w - Q sin w)
    # with P = 1, and Q = 0 (nu = 1/2) or 1/u (nu = 3/2), bit for bit
    u = np.concatenate([[2.0 + 2.0**-51, 2.5, math.pi, 12.0, 12.5], np.geomspace(2.01, 1e4, 997)])
    omega = u - (0.25 + 0.5 * nu) * math.pi
    ref = np.sqrt(2.0 / (math.pi * u)) * (np.ones_like(u) * np.cos(omega) - q_of_u(u) * np.sin(omega))
    assert np.array_equal(bessel.j_array(nu, u), ref)
    assert np.array_equal(bessel.j_array(nu, u, scaled=True), ref / u**nu)


def test_j0_first_zero_against_series_oracle():
    zero = j0_zero_bisect(2.0, 3.0)
    assert zero == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel.bessel_j(0, zero)) <= 1e-10


@pytest.mark.parametrize("u", [0.1, 1.0, 5.0, 11.9, 12.1, 40.0, 137.0, 1000.0])
def test_j0_against_decimal_series(u):
    ref = j_series_decimal(0, u)
    err = abs(bessel.bessel_j(0, u) - ref)
    assert err <= 1e-10 * max(abs(ref), float(envelope(u)))


def test_j0_dense_grid_against_series_oracle():
    us = np.logspace(-2, 3, 40)
    vals = bessel.bessel_j(0, us)
    for u, v in zip(us, vals):
        ref = j_series_decimal(0, float(u))
        assert abs(v - ref) <= 1e-10 * max(abs(ref), float(envelope(u)))


def test_unsupported_orders():
    with pytest.raises(UnsupportedOrderError):
        bessel.bessel_j(0.3, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel.bessel_j(-0.5, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel.bessel_j(2, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel.bessel_j(2.5, 1.0)
    with pytest.raises(OutOfRangeError):
        bessel.bessel_j(0, -1.0)


def test_remainder_half_order_vanishes():
    u = np.linspace(1.0, 50.0, 200)
    assert np.all(bessel.bessel_remainder(0.5, u) == 0.0)
    # the leading asymptotic really is the closed form for order 1/2
    diff = bessel.bessel_j(0.5, u) - bessel.leading_asymptotic(0.5, u)
    assert np.abs(diff).max() < 1e-13


def test_remainder_order_zero_at_ten():
    got = bessel.bessel_remainder(0.0, 10.0)
    ref = j_series_decimal(0, 10.0) - math.sqrt(2.0 / (math.pi * 10.0)) * math.cos(10.0 - math.pi / 4.0)
    assert got == pytest.approx(ref, abs=1e-12)
    assert abs(got) <= 0.15 * 10.0**-1.5


def test_remainder_bound_on_log_grid():
    u = np.logspace(0.0, 3.0, 200)
    r = bessel.bessel_remainder(0.0, u)
    scaled = np.abs(r) * u**1.5
    assert scaled.max() <= 0.2  # frozen from a dev sweep; theory gives ~0.1
    r15 = bessel.bessel_remainder(1.5, u)
    assert (np.abs(r15) * u**1.5).max() <= 1.0


def test_remainder_domain():
    with pytest.raises(OutOfRangeError):
        bessel.bessel_remainder(0.0, 0.5)


def test_radial_kernel_values_and_limits():
    assert bessel.radial_kernel(2, np.array([0.0]))[0] == 1.0
    assert bessel.radial_kernel(3, np.array([0.0]))[0] == pytest.approx(math.sqrt(2 / math.pi))
    assert bessel.radial_kernel(4, np.array([0.0]))[0] == pytest.approx(0.5)
    assert bessel.radial_kernel(5, np.array([0.0]))[0] == pytest.approx(math.sqrt(2 / math.pi) / 3)
    # accuracy on both sides of the small-argument switch points
    for d in (4, 5):
        nu = 0.5 * (d - 2)
        u = np.array([0.49999, 0.50001, 9.9e-5, 1.01e-4])
        ref = bessel.bessel_j(nu, u) / u**nu
        assert np.abs(bessel.radial_kernel(d, u) - ref).max() < 1e-9
    with pytest.raises(UnsupportedOrderError):
        bessel.radial_kernel(7, np.array([1.0]))


def test_radial_kernel_matches_bessel_j():
    u = np.linspace(0.5, 60.0, 500)
    for d in (2, 3, 4, 5):
        nu = 0.5 * (d - 2)
        ref = bessel.bessel_j(nu, u) / u**nu
        assert np.abs(bessel.radial_kernel(d, u) - ref).max() < 1e-11


# u in (0, 100], with both sides of the old small-argument switches (1e-4,
# 0.5), of the half-order switch (2) and of the integer-order switch (12)
_KERNEL_U = np.unique(np.concatenate([
    np.logspace(-6.0, 2.0, 97),
    [1e-4 * (1 - 1e-9), 1e-4, 0.499, 0.5, 0.501, 1.999, 2.0, 2.001, 11.99, 12.0, 12.01],
]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_radial_kernel_against_decimal_series(d):
    nu = 0.5 * (d - 2)
    ref = np.array([j_series_decimal(nu, float(u)) for u in _KERNEL_U]) / _KERNEL_U**nu
    # the oscillation envelope of J_nu(u) / u^nu
    env = math.sqrt(2.0 / math.pi) * np.maximum(_KERNEL_U, 1.0) ** (-nu - 0.5)
    err = np.abs(bessel.radial_kernel(d, _KERNEL_U) - ref) / np.maximum(np.abs(ref), env)
    assert err.max() <= (1e-14 if d % 2 else 1e-10)
