import math

import numpy as np
import pytest

from fracsmooth import legendre, sets, spectra
from fracsmooth.errors import InvalidThetaError

from conftest import descriptor_zoo
from oracles import family_count_maxima, legendre_fine

BETA = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# phi_at_scale
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_phi_full_interval(full_interval, alpha):
    j = 16
    phi = spectra.phi_at_scale(full_interval, alpha, j)
    assert max(1.0, alpha) - 2.0 / j <= phi <= max(1.0, alpha) + 2.0 / j


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0, 2.0])
def test_phi_single_point_is_alpha(single_point, alpha):
    # N = 1 in every window forces the maximum onto the smallest window
    assert spectra.phi_at_scale(single_point, alpha, 12) == pytest.approx(alpha, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.3, BETA, 0.8, 1.4, 2.0])
def test_phi_cantor_vs_transform_oracle(cantor_thirds, alpha):
    # oracle: Legendre transform of nu(theta) = -(1-theta) beta on a fine grid
    oracle = legendre_fine(lambda t: -(1.0 - t) * BETA, 0.0, 1.0, alpha)[0]
    assert oracle == pytest.approx(max(alpha, BETA), abs=1e-4)
    phi = spectra.phi_at_scale(cantor_thirds, alpha, 14)
    assert abs(phi - max(alpha, BETA)) <= 0.08


def test_phi_polyseq_minkowski_limit(poly_one):
    for j in (10, 14):
        assert abs(spectra.phi_at_scale(poly_one, 0.0, j) - 0.5) <= 1.5 / j


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_phi_pinch_above_one(descriptor):
    # alpha <= phi <= alpha + 2/j for alpha >= 1, with no extra tolerance
    for j in (8, 12):
        for alpha in (1.0, 1.5, 2.0):
            phi = spectra.phi_at_scale(descriptor, alpha, j)
            assert alpha <= phi <= alpha + 2.0 / j


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_phi_diagonal_monotone_convex(descriptor):
    j = 10
    grid = np.linspace(0.0, 2.5, 41)
    vals = np.asarray([spectra.phi_at_scale(descriptor, a, j) for a in grid])
    assert np.all(vals >= grid - 1e-12)
    assert np.all(np.diff(vals) >= -1e-12)
    # discrete convexity holds exactly: phi is a max of finitely many affine maps
    assert np.all(np.diff(vals, 2) >= -1e-9)


@pytest.mark.parametrize("descriptor", descriptor_zoo()[:6])
def test_phi_shift_family_robustness(descriptor):
    j = 10
    four_maxima = family_count_maxima(descriptor, j, 4)
    bound = math.log(3.0) / (j * math.log(2.0))
    for alpha in (0.0, 0.8, 1.6):
        two = spectra.phi_at_scale(descriptor, alpha, j)
        four = max((alpha * m + math.log2(n)) / j for m, n in enumerate(four_maxima))
        assert four >= two - 1e-12  # more windows can only raise the max
        assert abs(four - two) <= bound + 1e-12


def test_phi_saturates_past_quasi_assouad(poly_one, cantor_thirds):
    j = 14
    qa = spectra.dims(poly_one, j).quasi_assouad
    for alpha in (qa + 2.0 / j, 1.5, 2.0):
        phi = spectra.phi_at_scale(poly_one, alpha, j)
        assert phi <= alpha + 2.0 / j
    # strict excess below the quasi-Assouad point for beta < gamma families
    assert spectra.phi_at_scale(poly_one, 0.5, j) > 0.5 + 2.0 / j


# ---------------------------------------------------------------------------
# nu_sharp_empirical
# ---------------------------------------------------------------------------

def test_nu_sharp_report_full_interval(full_interval):
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    report = spectra.nu_sharp_empirical(full_interval, grid, [12, 16])
    expected = np.array([1.0, 1.0, 1.0, 1.5, 2.0])
    assert np.abs(report.estimate - expected).max() <= 2.0 / 16.0
    assert report.analytic is not None
    assert np.abs(report.analytic - expected).max() <= 1e-9
    csv = report.to_csv()
    assert csv.splitlines()[0] == "j,alpha,value,estimate,analytic,deviation"
    assert report.to_json()


def test_nu_sharp_report_rejects_bad_j_list(full_interval):
    with pytest.raises(Exception):
        spectra.nu_sharp_empirical(full_interval, [0.0, 1.0], [12, 10])


def test_alpha_two_pinch_everywhere():
    for descriptor in descriptor_zoo()[:6]:
        for j in (8, 12):
            phi = spectra.phi_at_scale(descriptor, 2.0, j)
            assert 2.0 <= phi <= 2.0 + 1.0 / j


# ---------------------------------------------------------------------------
# assouad_spectrum_empirical
# ---------------------------------------------------------------------------

def test_assouad_full_interval_exact(full_interval):
    j = 14
    for theta in (0.0, 0.25, 0.5, 1.0 - 4.0 / j):
        val = spectra.assouad_spectrum_empirical(full_interval, theta, j)
        assert abs(val - 1.0) <= 2.0 / j


def test_assouad_cantor_midpoint(cantor_thirds):
    val = spectra.assouad_spectrum_empirical(cantor_thirds, 0.5, 14)
    assert abs(val - BETA) <= 0.08


def test_assouad_polyseq_saturated(poly_one):
    val = spectra.assouad_spectrum_empirical(poly_one, 0.75, 14)
    assert abs(val - min(0.5 / 0.25, 1.0)) <= 0.1


def test_assouad_theta_reads_its_own_level():
    # (7/25) * 25 and (14/25) * 25 round above 7 and 14; their spectra once
    # read levels 8 and 15, so theta = 0.28 and 0.32 printed the same value
    s = sets.CantorLike(1.0, 1.01, 2, 1.0 / 3.0)
    maxima = spectra.window_count_maxima(s, 25, top=21)
    for k in (7, 8, 14, 15):
        assert spectra.assouad_spectrum_empirical(s, k / 25, 25) == math.log2(maxima[k]) / (25 - k)
    assert spectra.assouad_spectrum_empirical(s, 0.28, 25) != spectra.assouad_spectrum_empirical(s, 0.32, 25)


def test_assouad_theta_grid_levels(monkeypatch):
    # a table whose level m holds 2^(m (j - m)) makes the spectrum read m
    monkeypatch.setattr(spectra, "_window_table",
                        lambda descriptor, j, top: ([2.0 ** (m * (j - m)) for m in range(top + 1)], None))
    for j in range(4, 60):
        levels = [spectra.assouad_spectrum_empirical(None, theta, j) for theta in spectra.theta_grid(j)]
        assert levels == list(range(j - 3)), j
        assert spectra.assouad_spectrum_empirical(None, 1.0 - 4.0 / j, j) == j - 4
        assert spectra.assouad_spectrum_empirical(None, 0.5 / j, j) == 1


def test_assouad_rejects_bad_theta(full_interval):
    with pytest.raises(InvalidThetaError):
        spectra.assouad_spectrum_empirical(full_interval, 1.0, 10)
    with pytest.raises(InvalidThetaError):
        spectra.assouad_spectrum_empirical(full_interval, -0.1, 10)
    with pytest.raises(InvalidThetaError):
        spectra.assouad_spectrum_empirical(full_interval, 0.999, 10)


# ---------------------------------------------------------------------------
# analytic_spectrum / dims / quasi_regular_check
# ---------------------------------------------------------------------------

def test_analytic_spectrum_cases(cantor_thirds, poly_one, full_interval, single_point):
    assert np.allclose(spectra.analytic_spectrum(cantor_thirds).values, BETA)
    spec = spectra.analytic_spectrum(poly_one)
    assert spec(0.0) == pytest.approx(0.5)
    assert spec(0.75) == pytest.approx(1.0)
    assert np.allclose(spectra.analytic_spectrum(full_interval).values, 1.0)
    assert np.allclose(spectra.analytic_spectrum(single_point).values, 0.0)
    union = sets.UnionSet((single_point, sets.FullInterval(1.5, 1.75)))
    assert np.allclose(spectra.analytic_spectrum(union).values, 1.0)


def test_dims_estimates(cantor_thirds, poly_one, single_point):
    est = spectra.dims(single_point, 12)
    assert est.minkowski == 0.0 and est.quasi_assouad == 0.0
    est = spectra.dims(cantor_thirds, 14)
    assert abs(est.minkowski - BETA) <= 0.08
    assert abs(est.quasi_assouad - BETA) <= 0.08
    est = spectra.dims(poly_one, 14)
    assert abs(est.minkowski - 0.5) <= 0.08
    assert est.quasi_assouad >= 0.85


def test_quasi_regular_check(cantor_thirds, poly_one):
    for j in (12, 14):
        assert spectra.quasi_regular_check(cantor_thirds, j).is_regular
        assert spectra.quasi_regular_check(poly_one, j).is_regular
    report = spectra.quasi_regular_check(cantor_thirds, 12)
    assert report.nu_deviation <= report.max_deviation
    # union of distinct constant-spectrum pieces: the report's deviation is the answer
    union = sets.UnionSet(
        (sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0), sets.CantorLike(1.6, 2.0, 3, 1.0 / 5.0))
    )
    report = spectra.quasi_regular_check(union, 12)
    assert report.is_regular == (report.nu_deviation <= report.tolerance)


# ---------------------------------------------------------------------------
# duality against the analytic transform (module-level smoke of the headline)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "descriptor_name",
    ["full_interval", "cantor_thirds", "poly_one", "single_point", "two_cantor_union"],
)
def test_duality_at_moderate_scale(descriptor_name, request):
    descriptor = request.getfixturevalue(descriptor_name)
    j = 12
    spec = spectra.analytic_spectrum(descriptor)
    reference = legendre.nu_sharp_analytic(spec)
    grid = np.linspace(0.0, 2.0, 17)
    dev = max(
        abs(spectra.phi_at_scale(descriptor, a, j) - reference(a)) for a in grid
    )
    assert dev <= spectra.default_tolerance(j) + 2.0 / j
