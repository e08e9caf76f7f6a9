"""The plain-Python grid and interpolation of ``SampledFunction`` against
``numpy.linspace`` and ``numpy.interp``, bit for bit, on the package's grids."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import exponents, harness, legendre, sets, spectra
from fracsmooth.errors import FracsmoothError
from fracsmooth.sampled import SampledFunction, common_grid, linspace

from conftest import descriptor_zoo, identity_profile
from oracles import lower_convex_envelope


def bits(values):
    return [float(v).hex() for v in values]


# (lo, hi, n) of every grid the package builds: the alpha grids, the
# analytic spectra, spectrum_from_tau's theta grid, and CLI-style grids
PACKAGE_GRIDS = [
    (0.0, legendre.ALPHA_MAX, 257),
    (0.0, 12.0, 769),
    (0.0, 1.0, 257),
    (0.0, 1.0 - legendre.THETA_STEP, 256),
    (0.0, 2.0, 33),
    (-1.5, 0.3, 7),
    (0.1, 0.7, 2),
]


@pytest.mark.parametrize("lo, hi, n", PACKAGE_GRIDS)
def test_linspace_matches_numpy(lo, hi, n):
    assert bits(linspace(lo, hi, n)) == bits(np.linspace(lo, hi, n))
    assert bits(SampledFunction(lo, hi, [0.0] * n).grid) == bits(np.linspace(lo, hi, n))


def test_common_grid_matches_numpy():
    fns = [SampledFunction(0.0, 4.0, [0.0] * 257), SampledFunction(0.5, 3.0, [0.0] * 1001)]
    n = int(round(2.5 / fns[1].step)) + 1
    assert bits(common_grid(fns)) == bits(np.linspace(0.5, 3.0, n))


def _profiles():
    # the two-piece profile (1 - beta/gamma) alpha + beta up to gamma, then alpha
    beta, gamma = 0.3, 0.8
    two_piece = [max((1.0 - beta / gamma) * a + beta, a) for a in legendre.default_alpha_grid()]
    out = [identity_profile(), SampledFunction(0.0, 4.0, two_piece)]
    for descriptor in descriptor_zoo():
        spec = spectra.analytic_spectrum(descriptor)
        out += [spec, legendre.nu_sharp_analytic(spec)]
    out.append(SampledFunction(-1.0, 2.5, [math.sin(3.0 * k) for k in range(40)]))
    return out


@pytest.mark.parametrize("f", _profiles())
def test_interp_matches_numpy(f):
    grid = np.linspace(f.lo, f.hi, len(f.values))
    mids = 0.5 * (grid[1:] + grid[:-1])
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        grid, mids, rng.uniform(f.lo - 1.0, f.hi + 1.0, 200),
        harness.DUALITY_ALPHAS, spectra.theta_grid(14), [f.lo - 0.5, f.hi, f.hi + 0.5],
    ])
    expected = np.interp(xs, grid, f.values)
    assert bits(f(xs)) == bits(expected)
    assert bits(f(float(x)) for x in xs) == bits(expected)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
    st.floats(-5.0, 5.0),
    st.floats(0.01, 10.0),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20),
)
def test_interp_matches_numpy_on_random_samples(values, lo, width, xs):
    f = SampledFunction(lo, lo + width, values)
    grid = np.linspace(lo, lo + width, len(values))
    assert bits(f(xs)) == bits(np.interp(xs, grid, values))


def test_from_csv_uniformity_is_numpy_allclose():
    # steps may differ by 1e-12 + 1e-9 |step|, as numpy.allclose allows
    for wobble in (0.0, 5e-13, 1.05e-12 + 1e-10, 2e-12 + 1e-10):
        xs = [0.0, 0.1, 0.2 + wobble, 0.3]
        text = "x,value\n" + "".join(f"{x!r},1.0\n" for x in xs)
        steps = np.diff(xs)
        if np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            assert SampledFunction.from_csv(text).values == (1.0,) * 4
        else:
            with pytest.raises(FracsmoothError):
                SampledFunction.from_csv(text)


@pytest.mark.parametrize("values", [[1.0], [[1.0, 2.0], [3.0, 4.0]], [0.0, math.inf], "ab"])
def test_rejects_malformed_values(values):
    with pytest.raises(FracsmoothError):
        SampledFunction(0.0, 1.0, values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=60))
def test_convex_hull_matches_envelope_oracle(values):
    f = SampledFunction(0.0, 1.0, values)
    hull = legendre.convex_hull(f)
    oracle = lower_convex_envelope(f.grid, f.values)
    assert np.abs(np.subtract(hull.values, oracle)).max() <= 1e-9 * (1.0 + np.abs(oracle).max())


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_bookkeeping_sums_are_correctly_rounded(descriptor):
    report = exponents.bookkeeping_sums(descriptor, 10, 3, 2.5, 6.0)
    for values, total in ((report.kappa_values, report.kappa_sum), (report.lambda_values, report.lambda_sum)):
        assert total == float(sum(map(Fraction, values)))


def test_discretize_and_render_hold_tuples(cantor_thirds):
    assert isinstance(sets.discretize(cantor_thirds, 6).points, tuple)
    assert all(isinstance(iv, tuple) for iv in sets.render(cantor_thirds, 2.0**-6).intervals)
