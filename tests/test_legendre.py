import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import legendre
from fracsmooth.errors import AdmissibilityError, InvalidSpectrumError
from fracsmooth.sampled import SampledFunction

from oracles import legendre_fine, lower_convex_envelope

BETA = np.log(2) / np.log(3)


def sampled(fn, lo=0.0, hi=1.0, n=257):
    g = np.linspace(lo, hi, n)
    return SampledFunction(lo, hi, np.asarray([fn(x) for x in g]))


def quasi_regular_nu(beta, gamma):
    # nu(theta) = -(1-theta) * min(beta/(1-theta), gamma) = -min(beta, (1-theta) gamma)
    return sampled(lambda t: -min(beta, (1.0 - t) * gamma))


def tau_two_piece(beta, gamma, alpha_max=4.0):
    """Dual profile of a quasi-regular set: (1-b/g) a + b up to gamma, then a."""
    return sampled(
        lambda a: max((1.0 - beta / gamma) * a + beta, a), lo=0.0, hi=alpha_max, n=257
    )


def tau_strictly_convex(alpha_max=4.0):
    """(a^2+1)/2 on [0, 1] glued to a: admissible, strictly convex below 1."""
    return sampled(lambda a: 0.5 * (a * a + 1.0) if a <= 1.0 else a, lo=0.0, hi=alpha_max, n=1025)


# ---------------------------------------------------------------------------
# legendre_transform
# ---------------------------------------------------------------------------

def test_transform_affine_two_node():
    f = SampledFunction(0.0, 1.0, np.array([-1.0, 0.0]))  # f(theta) = -(1-theta)
    out = legendre.legendre_transform(f)
    grid = out.grid
    assert np.allclose(out.values, np.maximum(1.0, grid), atol=1e-12)


def test_transform_zero_function():
    f = SampledFunction(0.0, 1.0, np.zeros(101))
    out = legendre.legendre_transform(f)
    assert np.allclose(out.values, out.grid, atol=1e-12)


@pytest.mark.parametrize("beta,gamma", [(0.5, 1.0), (BETA, 0.9), (0.2, 0.4)])
def test_transform_quasi_regular(beta, gamma):
    nu = quasi_regular_nu(beta, gamma)
    out = legendre.legendre_transform(nu)
    grid = np.asarray(out.grid)
    # two-piece closed form, cross-checked against the dense-grid oracle
    expected = np.where(grid <= gamma, (1.0 - beta / gamma) * grid + beta, grid)
    oracle = legendre_fine(lambda t: -min(beta, (1.0 - t) * gamma), 0.0, 1.0, grid)
    assert np.abs(oracle - expected).max() < 2e-4
    assert np.abs(np.asarray(out.values) - expected).max() < 1.5 / 256.0


def test_transform_order_reversal():
    f = sampled(lambda t: -min(0.5, 1.0 - t))
    g = sampled(lambda t: -min(0.3, 1.0 - t))  # g >= f nowhere... f <= g pointwise
    assert np.all(np.asarray(f.values) <= np.asarray(g.values) + 1e-15)
    fs = legendre.legendre_transform(f)
    gs = legendre.legendre_transform(g)
    assert np.all(np.asarray(fs.values) >= np.asarray(gs.values) - 1e-12)


def test_transform_output_convex():
    for f in [quasi_regular_nu(0.5, 1.0), sampled(lambda t: np.sin(3 * t) - 2 * t)]:
        out = legendre.legendre_transform(f)
        assert legendre.convexity_certificate(out).is_convex


# ---------------------------------------------------------------------------
# convex_hull
# ---------------------------------------------------------------------------

def test_hull_of_convex_is_identity():
    f = sampled(lambda t: (t - 0.3) ** 2)
    hull = legendre.convex_hull(f)
    assert np.abs(np.subtract(hull.values, f.values)).max() < 1e-6


def test_hull_concave_sample():
    f = sampled(lambda t: -abs(t - 0.5))  # concave vee; hull is the chord
    hull = legendre.convex_hull(f)
    oracle = lower_convex_envelope(f.grid, f.values)
    assert np.abs(hull.values - oracle).max() < 1e-6
    assert np.all(np.asarray(hull.values) <= np.asarray(f.values) + 1e-9)
    assert legendre.convexity_certificate(hull).is_convex


def test_hull_nonconvex_union_nu():
    # min of two convex profiles is generally non-convex
    f = sampled(lambda t: min(-min(0.55, (1 - t) * 0.6), -min(0.2, 1.0 - t)))
    hull = legendre.convex_hull(f)
    oracle = lower_convex_envelope(f.grid, f.values)
    assert np.abs(hull.values - oracle).max() < 1e-6
    assert hull.values[0] == pytest.approx(f.values[0], abs=1e-9)
    assert hull.values[-1] == pytest.approx(f.values[-1], abs=1e-9)
    assert np.any(np.asarray(hull.values) < np.asarray(f.values) - 1e-4)


# ---------------------------------------------------------------------------
# nu_from_spectrum / nu_sharp_analytic
# ---------------------------------------------------------------------------

def test_nu_from_spectrum_cases():
    ones = SampledFunction(0.0, 1.0, np.ones(129))
    out = legendre.nu_from_spectrum(ones)
    assert np.allclose(out.values, np.asarray(out.grid) - 1.0, atol=1e-15)
    zeros = SampledFunction(0.0, 1.0, np.zeros(129))
    assert np.allclose(legendre.nu_from_spectrum(zeros).values, 0.0)
    poly = sampled(lambda t: min(0.5 / (1.0 - t), 1.0) if t < 1 else 1.0)
    out = legendre.nu_from_spectrum(poly)
    expected = [-min(0.5, 1.0 - t) for t in out.grid]
    assert np.abs(np.subtract(out.values, expected)).max() < 1e-12
    assert out.values[-1] == 0.0


def test_nu_from_spectrum_rejects_out_of_range():
    bad = SampledFunction(0.0, 1.0, np.full(65, 1.5))
    with pytest.raises(InvalidSpectrumError):
        legendre.nu_from_spectrum(bad)


@pytest.mark.parametrize("beta", [0.0, 0.3, BETA, 1.0])
def test_nu_sharp_constant_spectrum(beta):
    spec = SampledFunction(0.0, 1.0, np.full(257, beta))
    out = legendre.nu_sharp_analytic(spec)
    assert np.abs(out.values - np.maximum(out.grid, beta)).max() < 1e-12


def test_nu_sharp_polyseq_profile():
    beta = 0.5
    spec = sampled(lambda t: min(beta / (1.0 - t), 1.0) if t < 1 else 1.0)
    out = legendre.nu_sharp_analytic(spec)
    expected = np.maximum((1.0 - beta) * np.asarray(out.grid) + beta, out.grid)
    assert np.abs(out.values - expected).max() < 1.0 / 256.0


def test_nu_sharp_postconditions():
    spec = sampled(lambda t: min(0.4 / (1.0 - t), 0.8) if t < 1 else 0.8)
    out = legendre.nu_sharp_analytic(spec)
    assert legendre.convexity_certificate(out).is_convex
    assert np.all(np.diff(out.values) >= -1e-12)
    grid, vals = np.asarray(out.grid), np.asarray(out.values)
    tail = grid >= 1.0
    assert np.abs(vals[tail] - grid[tail]).max() < 1e-9
    assert np.all(vals >= grid - 1e-12)


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fn",
    [
        lambda t: -min(0.5, 1.0 - t),
        lambda t: (t - 0.4) ** 2 - 0.5,
        lambda t: np.sin(2.0 * t) - 1.5 * t,
    ],
)
def test_involution(fn):
    f = sampled(fn)
    once = legendre.legendre_transform(f)
    theta_back = np.linspace(0.0, 1.0, 257)
    twice = legendre.legendre_transform(once, theta_back)
    thrice = legendre.legendre_transform(twice, once.grid)
    slack = once.step + twice.step * float(np.abs(once.grid).max()) + 1e-12
    assert np.abs(np.subtract(thrice.values, once.values)).max() <= slack


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-3.0, 6.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8),
    st.integers(5, 300),
)
def test_involution_on_random_convex_samples(pieces, n):
    # the upper envelope of affine pieces, sampled on a grid of its own size
    f = sampled(lambda t: max(a * t + b for a, b in pieces), n=n)
    once = legendre.legendre_transform(f)
    theta_back = np.linspace(0.0, 1.0, 257)
    twice = legendre.legendre_transform(once, theta_back)
    thrice = legendre.legendre_transform(twice, once.grid)
    slack = once.step + twice.step * float(np.abs(once.grid).max()) + 1e-12
    assert np.abs(np.subtract(thrice.values, once.values)).max() <= slack


# ---------------------------------------------------------------------------
# tau_admissible / spectrum_from_tau
# ---------------------------------------------------------------------------

def test_tau_admissible_max_profile():
    tau = sampled(lambda a: max(1.0, a), hi=4.0, n=257)
    report = legendre.tau_admissible(tau)
    assert report.admissible
    assert report.dominates_diagonal_ok


def test_tau_inadmissible_square():
    # a^2 glued to a fails convexity at the joint and dips below the diagonal
    tau = sampled(lambda a: a * a if a <= 1.0 else a, hi=4.0, n=513)
    report = legendre.tau_admissible(tau)
    assert not report.admissible
    assert not report.convexity.is_convex
    assert report.convexity.witness_index >= 0
    assert not report.dominates_diagonal_ok
    assert report.diagonal_witness >= 0
    with pytest.raises(AdmissibilityError):
        legendre.spectrum_from_tau(tau)


def test_tau_admissible_two_piece():
    report = legendre.tau_admissible(tau_two_piece(0.5, 1.0))
    assert report.admissible


@pytest.mark.parametrize(
    "tau,expected",
    [
        (sampled(lambda a: max(1.0, a), hi=4.0, n=1025), lambda t: 1.0),
        (sampled(lambda a: max(a, BETA), hi=4.0, n=1025), lambda t: BETA),
    ],
)
def test_spectrum_from_tau_constant_cases(tau, expected):
    gamma = legendre.spectrum_from_tau(tau)
    ref = np.asarray([expected(t) for t in gamma.grid])
    assert np.abs(gamma.values - ref).max() < 2e-2


def test_spectrum_from_tau_strictly_convex():
    # closed form: nu(theta) = -(1-theta^2)/2, gamma(theta) = (1+theta)/2
    tau = tau_strictly_convex()
    gamma = legendre.spectrum_from_tau(tau)
    grid, vals = np.asarray(gamma.grid), np.asarray(gamma.values)
    ref = 0.5 * (1.0 + grid)
    assert np.abs(vals - ref).max() < 1e-2
    # postconditions from the construction
    assert np.all(np.diff(vals) >= -1e-9)
    assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))
    nu_vals = -(1.0 - grid) * vals
    assert np.all(np.diff(nu_vals) >= -1e-9)


@pytest.mark.parametrize(
    "tau",
    [
        sampled(lambda a: max(1.0, a), hi=4.0, n=1025),
        tau_two_piece(0.5, 1.0, alpha_max=4.0),
        tau_strictly_convex(),
    ],
)
def test_tau_round_trip(tau):
    gamma = legendre.spectrum_from_tau(tau)
    # nu on [0, 1]: -(1-theta) gamma(theta) with the closing node nu(1) = 0
    nu = SampledFunction(0.0, 1.0, np.append(-(1.0 - np.asarray(gamma.grid)) * gamma.values, 0.0))
    back = legendre.legendre_transform(nu, tau.grid)
    slack = 2.0 * max(tau.step, 1.0 / 256.0) + 2e-3
    assert np.abs(np.subtract(back.values, tau.values)).max() <= slack


# ---------------------------------------------------------------------------
# union_nu_sharp
# ---------------------------------------------------------------------------

def test_union_profiles_max_of_constants():
    a = sampled(lambda x: max(x, 0.4), hi=4.0, n=257)
    b = sampled(lambda x: max(x, 0.7), hi=4.0, n=257)
    out = legendre.union_nu_sharp([a, b])
    assert np.abs(out.values - np.maximum(out.grid, 0.7)).max() < 1e-12


def test_union_profiles_crossing():
    f = tau_two_piece(0.55, 0.6)
    g = tau_two_piece(0.2, 1.0)
    out = legendre.union_nu_sharp([f, g])
    ref = np.maximum(f(out.grid), g(out.grid))
    assert np.abs(out.values - ref).max() < 1e-12
    # upper envelope of crossing two-piece profiles has three affine pieces
    second = np.diff(out.values, 2)
    assert np.sum(second > 1e-6) >= 2


def test_union_single_identity():
    f = tau_two_piece(0.5, 1.0)
    assert legendre.union_nu_sharp([f]) is f


def test_certificate_json_surfaces():
    f = sampled(lambda t: (t - 0.3) ** 2)
    cert = legendre.convexity_certificate(f)
    payload = cert.to_json_dict()
    assert payload["is_convex"] is True and payload["witness_index"] == -1
    tau = sampled(lambda a: a * a if a <= 1.0 else a, hi=4.0, n=513)
    report = legendre.tau_admissible(tau)
    payload = report.to_json_dict()
    assert payload["admissible"] is False
    assert payload["convexity"]["is_convex"] is False


def test_sampled_function_serialization_roundtrip():
    import json

    f = sampled(lambda t: -min(0.5, 1.0 - t), n=65)
    g = SampledFunction.from_csv(f.to_csv())
    assert np.allclose(f.values, g.values) and f.lo == g.lo and f.hi == g.hi
    assert json.loads(f.to_json())["lo"] == 0.0
