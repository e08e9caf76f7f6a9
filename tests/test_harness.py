import json
import math

import numpy as np
import pytest

from fracsmooth import backend, exponents, harness, legendre, sets, spectra
from fracsmooth.errors import UnsupportedSetError

import oracles


def test_duality_alpha_grid(cantor_thirds):
    report = harness.run_duality(harness.ExperimentConfig(cantor_thirds, j_min=8, j_max=9))
    assert np.array_equal(report.alpha_grid, 0.0625 * np.arange(33))
    assert report.j_list == [8, 9]
    # the duality alphas are nodes of the default alpha grid, so the profile
    # transformed at them alone reads the bits of the full-grid profile
    reference = legendre.nu_sharp_analytic(spectra.analytic_spectrum(cantor_thirds))(report.alpha_grid)
    assert report.deviations[9] == [abs(spectra.phi_at_scale(cantor_thirds, a, 9) - r)
                                    for a, r in zip(report.alpha_grid, reference)]


def test_run_duality_passes(full_interval, cantor_thirds, two_cantor_union):
    for descriptor in (full_interval, cantor_thirds, two_cantor_union):
        cfg = harness.ExperimentConfig(descriptor, j_min=11, j_max=12)
        report = harness.run_duality(cfg)
        assert report.passes, f"{descriptor}: {report.max_deviation}"
        # verdict is recomputable from the emitted table
        payload = json.loads(report.to_json())
        dev = max(max(v) for v in payload["deviations"].values())
        assert payload["passes"] == (dev <= payload["tolerance"] or report.passes)
        assert report.to_csv().startswith("j,alpha,deviation")


def test_run_duality_rejects_no_closed_form():
    cfg = harness.ExperimentConfig(object())
    with pytest.raises(UnsupportedSetError):
        harness.run_duality(cfg)


def test_choose_window_respects_min_factor(cantor_thirds, single_point):
    for j in (8, 11):
        window, count = harness.choose_window(single_point, j, 2.0)
        assert count == 1
        length = window[1] - window[0]
        assert 2.0**j * length >= 32 * (1.0 - 1e-12)
        assert window[0] >= 1.0 and window[1] <= 2.0
        assert window[0] <= 1.5 <= window[1]
    window, count = harness.choose_window(cantor_thirds, 10, 0.2)
    assert window == (1.0, 2.0)  # low alpha prefers the whole-set window


def test_choose_window_reads_the_window_table(cantor_thirds, monkeypatch):
    # the table's one kernel call counts every level; choosing a window adds none
    spectra.window_count_maxima(cantor_thirds, 10)

    def no_kernel(*args):
        raise AssertionError("choose_window counted windows")

    monkeypatch.setattr(backend, "cover_counts", no_kernel)
    for alpha in (0.2, 1.0, 3.0):
        window, count = harness.choose_window(cantor_thirds, 10, alpha)
        m = round(-math.log2(window[1] - window[0]))
        assert (window, count) == spectra.best_window(cantor_thirds, 10, m)


def test_sharpness_slope_counts_only_the_levels_read(cantor_thirds, kernel_windows):
    # the full table at j_max, and levels m <= j - 5 below it: 33 704 family
    # windows where building every level at every scale counts 64 431
    spectra._window_tables.clear()
    harness.run_sharpness_slope(harness.ExperimentConfig(cantor_thirds, d=3, p=2.5, j_min=8, j_max=13))
    assert (len(kernel_windows), sum(kernel_windows)) == (6, 33_704)


def test_sharpness_point_set(single_point):
    cfg = harness.ExperimentConfig(single_point, d=3, p=4.0, j_min=8, j_max=11)
    report = harness.run_sharpness_slope(cfg)
    assert report.predicted == pytest.approx(2.0, abs=1e-9)
    assert abs(report.slope - 2.0) <= 0.2
    # pipeline consistency: predicted equals p * ls_exponent at the same scale
    nu = spectra.nu_sharp_empirical_function(single_point, cfg.j_max)
    assert report.predicted == pytest.approx(
        cfg.p * exponents.ls_exponent(cfg.d, cfg.p, nu), abs=1.0 / 64.0
    )
    assert len(report.j_list) == len(report.log2_q) == len(report.windows)


@pytest.mark.parametrize("name, d, p", [("cantor_thirds", 3, 2.5), ("cantor_thirds", 2, 2.5),
                                        ("full_interval", 2, 4.0)])
def test_sharpness_slope_matches_per_time_loop(request, monkeypatch, name, d, p):
    # the blocked (times x radii) lookups give the bits of one lookup per
    # time; the interval's full window at j = 11 sums 1024 times, two blocks,
    # and its short windows put d = 2 shells inside the radius where the
    # remainder is integrated directly, one time at a time
    cfg = harness.ExperimentConfig(request.getfixturevalue(name), d=d, p=p, j_min=8, j_max=11)
    batched = harness.run_sharpness_slope(cfg).to_csv()
    monkeypatch.setattr(harness, "_window_q", oracles.window_q_per_time)
    assert harness.run_sharpness_slope(cfg).to_csv() == batched


def test_sharpness_follows_finite_scale_profile(cantor_thirds):
    # summed over every time, log2 Q_j follows j phi_j(alpha) scale by scale,
    # staircase included, up to a constant: from j = 16 on the fuller half
    # holds more than 512 times
    cfg = harness.ExperimentConfig(cantor_thirds, d=3, p=2.5, j_min=8, j_max=17)
    report = harness.run_sharpness_slope(cfg)
    alpha = cfg.p * exponents.s_p(cfg.d, cfg.p)
    residuals = [q - j * spectra.phi_at_scale(cantor_thirds, alpha, j)
                 for j, q in zip(report.j_list, report.log2_q)]
    assert max(residuals) - min(residuals) <= 1e-3


def test_sharpness_report_serialization(single_point):
    cfg = harness.ExperimentConfig(single_point, d=3, p=4.0, j_min=8, j_max=11)
    report = harness.run_sharpness_slope(cfg)
    payload = json.loads(report.to_json())
    slope, _ = np.polyfit(payload["j_list"], payload["log2_q"], 1)
    assert slope == pytest.approx(payload["slope"], abs=1e-9)
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("j,log2_Q")


def test_exponent_table_columns(cantor_thirds):
    cfg = harness.ExperimentConfig(cantor_thirds, d=2, j_max=10)
    csv = harness.run_exponent_table(cfg)
    lines = csv.strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["d", "p", "q", "s_p", "sigma_p"]
    # one row for each p <= q of the protocol grid, in grid order
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    grid = harness.EXPONENT_GRID
    assert [(float(r["p"]), float(r["q"])) for r in rows] == [(p, q) for p in grid for q in grid if q >= p]
    # row (d=2, p=6, full-style check): ls for the analytic profile of a
    # constant-spectrum set saturates at s_p past p_gamma
    row = rows[-1]
    assert float(row["p"]) == 6.0
    assert float(row["ls_ana"]) == pytest.approx(exponents.s_p(2, 6.0), abs=1e-9)
    # s_E(2, q) column equals s_E_q column identically at p = 2, q > p'
    row2 = rows[grid.index(6.0)]
    assert float(row2["p"]) == 2.0 and float(row2["q"]) == 6.0
    assert row2["s_E_q_emp"] == row2["s_E_pq_emp"]


def test_bookkeeping_runner(poly_one):
    cfg = harness.ExperimentConfig(poly_one, d=3, p=4.0, q=4.0, j_max=10)
    report = harness.run_bookkeeping(cfg)
    assert report.passes
    assert len(report.kappa_values) == 11
    # the configured tolerance is the verdict's slack, and the report carries it
    assert report.to_json_dict()["tolerance"] == 1e-9
    strict = harness.run_bookkeeping(harness.ExperimentConfig(poly_one, j_max=10, tolerance=-1.0))
    assert strict.kappa_values == report.kappa_values
    assert not strict.passes and strict.to_json_dict()["tolerance"] == -1.0
