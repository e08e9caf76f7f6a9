import functools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import backend, bessel, wave
from fracsmooth.errors import OutOfRangeError, RefineFailureError

import oracles
from oracles import trapezoid_norm

SQ2PI = math.sqrt(2.0 / math.pi)


def test_bump_profile_shape():
    bump = wave.bump
    assert wave.BUMP_SUPPORT == (0.5, 2.0)
    assert bump(1.25) == pytest.approx(1.0)
    assert bump(0.5) == 0.0 and bump(2.0) == 0.0 and bump(2.5) == 0.0
    x = np.linspace(0.5, 2.0, 101)
    assert np.all(bump(x) >= 0.0)


def test_wave_params_validation():
    with pytest.raises(OutOfRangeError):
        wave.WaveParams(d=1, j=8)
    with pytest.raises(OutOfRangeError):
        wave.WaveParams(d=6, j=8)
    with pytest.raises(OutOfRangeError):
        wave.WaveParams(d=3, j=1)
    # scales below the spacing 2^-52 of the doubles in [1, 2]
    assert wave.WaveParams(d=3, j=52).j == 52
    with pytest.raises(OutOfRangeError):
        wave.WaveParams(d=3, j=53)
    with pytest.raises(OutOfRangeError):
        wave.WaveParams(d=3, j=8, t_ref=2.5)


def test_region_spec():
    # the cone radius is |t - t0| on both sides of the reference time
    for t_ref, t, rho in ((1.0, 1.5, 0.5), (1.5, 1.2, 0.3)):
        params = wave.WaveParams(d=3, j=8, t_ref=t_ref)
        reg = wave.region(params, t)
        assert reg.width == pytest.approx(2.0**-12)
        assert 0.5 * (reg.r_lo + reg.r_hi) == pytest.approx(rho)


def test_region_broadcasts_over_times():
    # a vector of times gives the bits of one scalar call per time, on both
    # sides of the reference time
    params = wave.WaveParams(d=2, j=11, t_ref=1.375)
    times = np.array([1.0, 1.1, 1.37, 1.375, 1.38, 1.6, 2.0])
    shells = wave.region(params, times)
    for i, t in enumerate(times):
        reg = wave.region(params, float(t))
        assert shells.r_lo[i] == reg.r_lo and shells.r_hi[i] == reg.r_hi


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def test_propagate_origin_magnitude():
    # at t = t_ref and r -> 0 the integrand is positive: direct oracle check
    params = wave.WaveParams(d=3, j=8, t_ref=1.3)
    row = wave.propagate(params, 1.3, np.array([0.0]))
    sigma = np.linspace(0.5, 2.0, 40001)
    integrand = wave.bump(sigma) * sigma**2
    oracle = (2 * math.pi) ** -1.5 * SQ2PI * 2.0 ** (3 * 8) * np.trapezoid(integrand, sigma)
    assert row.values[0].imag == pytest.approx(0.0, abs=1e-9 * oracle)
    assert row.values[0].real == pytest.approx(oracle, rel=1e-6)


def test_propagate_light_cone_growth():
    # on the cone r = t - t_ref the amplitude grows like 2^(j (d+1)/2)
    logs = []
    js = range(7, 11)
    for j in js:
        params = wave.WaveParams(d=3, j=j, t_ref=1.0)
        row = wave.propagate(params, 1.5, np.array([0.5]))
        logs.append(math.log2(abs(row.values[0])))
    slope = np.polyfit(list(js), logs, 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_propagate_rejects_negative_radius():
    params = wave.WaveParams(d=3, j=8)
    for radii in ([-0.1], []):
        with pytest.raises(OutOfRangeError):
            wave.propagate(params, 1.5, np.array(radii))


def test_trapezoid_node_cap():
    # the count a rule would need, computed from its step alone: far beyond
    # the cap at j = 8, t = 1e6, which raises before allocating anything,
    # and well below it for a data norm's inner disc at j = 22, t_ref = 2
    lo, hi = wave.BUMP_SUPPORT

    def count(h):
        return math.floor(hi / h) - math.ceil(lo / h) + 1

    params = wave.WaveParams(d=3, j=8)
    t = 1e6
    assert count(wave._moment_step(2.0**8 * (t - params.t_ref), 1)) > 10 * wave._MAX_NODES
    with pytest.raises(OutOfRangeError, match="cap"):
        wave.propagate(params, t, [0.0, 0.01])
    # the direct remainder of d = 2 at a near radius, sized from the same time
    with pytest.raises(OutOfRangeError, match="cap"):
        wave.field_row_fast(wave.WaveParams(d=2, j=8), t, [2.0**-6])
    assert 2 * count(wave._moment_step(2.0**22 * 2.0, 1)) < wave._MAX_NODES
    assert len(wave._trapezoid_indices(wave._moment_step(0.0, 0))) == count(wave._moment_step(0.0, 0))


def test_wave_entry_points_reject_non_finite_inputs():
    params = wave.WaveParams(d=3, j=8)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRangeError):
            wave.propagate(params, bad, np.array([0.01]))
        with pytest.raises(OutOfRangeError):
            wave.propagate(params, 1.5, np.array([0.01, bad]))
        # the lookup path: one time with a 1-D grid, or a vector of times
        with pytest.raises(OutOfRangeError):
            wave.field_row_fast(params, bad, np.array([0.3, 0.5]))
        with pytest.raises(OutOfRangeError):
            wave.field_row_fast(params, 1.5, np.array([0.3, bad]))
        with pytest.raises(OutOfRangeError):
            wave.main_terms_grid(params, np.array([1.5, bad]), np.full((2, 2), 0.4))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kernel_series_matches_radial_kernel(d):
    coeffs = wave._kernel_series(d)
    assert 25 <= len(coeffs) <= 32
    u = np.linspace(0.0, wave._KERNEL_SERIES_CUTOFF, 2001)
    x = u * u
    acc = np.zeros_like(u)
    for c in coeffs[::-1]:
        acc = acc * x + c
    assert np.abs(acc - bessel.radial_kernel(d, u)).max() <= 1e-11


def _kernel_cut_radius(params):
    return wave._KERNEL_SERIES_CUTOFF / (2.0**params.j * wave.BUMP_SUPPORT[1])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [0.0, 1.301])
def test_propagate_moment_series_matches_per_radius_kernel(d, t):
    # radii on both sides of the cutoff, and exactly at it; t = 0 or just
    # after t_ref
    params = wave.WaveParams(d=d, j=8, t_ref=1.3)
    r_cut = _kernel_cut_radius(params)
    grid = np.sort(np.append(np.linspace(0.0, 3.0 * r_cut, 31), r_cut))
    near = grid <= r_cut
    assert 0 < np.sum(near) < len(grid)
    row = wave.propagate(params, t, grid)
    # the nodes propagate returns its values on, those of its one rule: the
    # trapezoid nodes at the halved step of the fastest phase, shared by the
    # near and the far radii
    scale = 2.0**params.j
    y = scale * (t - params.t_ref)
    pref = (2 * math.pi) ** (-0.5 * d) * 2.0 ** (params.j * d)
    _, _, bound = wave._field_quadrature(params, t, grid)
    h = wave._moment_step(scale * (abs(t - params.t_ref) + grid.max()), 1)
    sigma = h * np.arange(math.ceil(wave.BUMP_SUPPORT[0] / h), math.floor(wave.BUMP_SUPPORT[1] / h) + 1)
    phase = oracles.exact_phase(y, sigma) * h * wave.bump(sigma) * sigma ** (d - 1)
    oracle = np.array([pref * (bessel.radial_kernel(d, scale * r * sigma) @ phase) for r in grid])
    for sel in (near, ~near):
        assert np.abs(row.values[sel] - oracle[sel]).max() <= 1e-10 * bound


def test_propagate_inner_disc_evaluates_no_kernel(monkeypatch):
    # the inner disc is all near radii: moments on the trapezoid nodes, with
    # no kernel evaluation
    params = wave.WaveParams(d=2, j=10, t_ref=1.0)
    calls = []
    monkeypatch.setattr(bessel, "radial_kernel", lambda d, u: calls.append(d))
    wave.propagate(params, 0.0, np.linspace(0.0, params.min_asymptotic_r, 49))
    assert calls == []


def test_propagate_near_refinement_is_bounded(monkeypatch):
    # at the focus an alias margin of 4 leaves 2 trapezoid nodes on the
    # bump: the alias bound exceeds the tolerance, and propagate gives up
    # with that bound
    monkeypatch.setattr(wave, "_ALIAS_MARGIN", 4.0)
    params = wave.WaveParams(d=3, j=8, t_ref=1.3)
    with pytest.raises(RefineFailureError) as info:
        wave.propagate(params, 1.3, np.linspace(0.0, params.min_asymptotic_r, 9))
    err = info.value.achieved_error
    assert math.isfinite(err) and err > wave.QUAD_RTOL


@pytest.mark.parametrize("margin", [16.0, 64.0])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_propagate_alias_bound_holds_at_small_margins(monkeypatch, d, margin):
    # with the alias margin shrunk, aliasing, not rounding, is the error:
    # the a-priori bound must lie above it on the inner disc and on far
    # radii.  The far radii out to 1 fail a bound whose alias distance
    # omits the kernel's own frequency 2^j r_max.
    monkeypatch.setattr(wave, "_ALIAS_MARGIN", margin)
    params = wave.WaveParams(d=d, j=8, t_ref=1.3)
    cut = 1.01 * _kernel_cut_radius(params)
    checked = 0
    for radii in (np.linspace(0.0, params.min_asymptotic_r, 9), np.linspace(cut, 0.6, 7),
                  np.linspace(cut, 1.0, 7)):
        for t in (0.0, params.t_ref, 2.0):
            values, alias, bound = wave._field_quadrature(params, t, radii)
            freq = 2.0**params.j * (abs(t - params.t_ref) + radii.max())
            ref, _ = oracles.field_gauss_legendre(params, t, radii, max(2**16, 16 * math.ceil(1.0 + freq)))
            err = float(np.abs(values - ref).max())
            if err > 1e-10 * max(float(np.abs(ref).max()), 1e-4 * bound):
                checked += 1
                assert err <= alias, (radii.max(), t)
    # every inner-disc case is aliasing-dominated at these margins
    assert checked >= 3


def test_propagate_inner_disc_err_rel_is_tiny():
    # at the real alias margin the bound on the inner disc at t = 0, where
    # the field is ~1e-8 of its triangle bound, is far below the tolerance
    for d in (2, 3, 4, 5):
        params = wave.WaveParams(d=d, j=10, t_ref=1.3)
        row = wave.propagate(params, 0.0, np.linspace(0.0, params.min_asymptotic_r, 49))
        assert 0.0 < row.err_rel <= 1e-12


@pytest.mark.parametrize("radii", [1, 100])
def test_kernel_sums_match_matmul(radii):
    # the einsum contraction against a plain matmul of the whole kernel
    # matrix, one weight per node, on one radius and on radii spanning
    # several blocks
    rng = np.random.default_rng(5)
    nodes = np.linspace(0.5, 2.0, 389)
    phase = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
    x = np.linspace(4.0, 30.0, radii)
    assert radii == 1 or radii > wave._KERNEL_BLOCK // len(nodes)
    kernel = functools.partial(bessel.bessel_remainder, 0.0)
    matrix = kernel(np.multiply.outer(x, nodes).ravel()).reshape(len(x), len(nodes))
    sums = wave._kernel_sums(kernel, x, nodes, phase)
    assert sums.shape == (radii,) and sums.dtype == np.complex128
    scale = np.abs(phase).sum() * np.abs(matrix).max()
    assert np.abs(sums - matrix.astype(np.complex128) @ phase).max() <= 1e-15 * scale


# data_norm at d = 2 and 4 integrates the remainder's direct radii through
# _kernel_sums; these are the bits of the matmul contraction it replaced
DATA_NORM_BITS = {
    (2, 6, 2.0): 9.780174620758347,
    (2, 6, 4.0): 16.468944668972245,
    (2, 8, 2.0): 39.120698484094675,
    (2, 8, 4.0): 93.14863149347921,
    (4, 6, 2.0): 132.0271779315463,
    (4, 6, 4.0): 218.46185648250778,
    (4, 8, 2.0): 2112.434846849229,
    (4, 8, 4.0): 4938.46741672644,
}


@pytest.mark.parametrize("key", sorted(DATA_NORM_BITS))
def test_data_norm_bits_pinned(key):
    d, j, p = key
    assert wave.data_norm(wave.WaveParams(d=d, j=j), p) == DATA_NORM_BITS[key]


def _dense_error(params, t, radii):
    """max |propagate - dense Gauss-Legendre| over max(row maximum, 1e-4 bound)."""
    row = wave.propagate(params, t, radii)
    freq = 2.0**params.j * (abs(t - params.t_ref) + radii.max())
    ref, bound = oracles.field_gauss_legendre(params, t, radii, max(2**16, 16 * math.ceil(1.0 + freq)))
    return float(np.abs(row.values - ref).max()) / max(float(np.abs(ref).max()), 1e-4 * bound)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_propagate_near_radii_match_dense_reference(d):
    # the inner disc at t = 0, where the field is ~1e-8 of its bound, at the
    # focus t = t_ref and just after it
    params = wave.WaveParams(d=d, j=8, t_ref=1.3)
    radii = np.linspace(0.0, params.min_asymptotic_r, 9)
    for t in (0.0, params.t_ref, params.t_ref + 0.001):
        assert _dense_error(params, t, radii) <= 1e-12


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 5),
    j=st.integers(6, 13),
    t_ref=st.floats(1.0, 2.0),
    t=st.floats(0.0, 3.5),
)
def test_propagate_near_radii_property(d, j, t_ref, t):
    params = wave.WaveParams(d=d, j=j, t_ref=t_ref)
    radii = np.linspace(0.0, params.min_asymptotic_r, 5)
    assert _dense_error(params, t, radii) <= 1e-12


@pytest.mark.parametrize("j", [6, 8, 10, 12])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_propagate_far_radii_match_dense_reference(d, j):
    # every radius past the kernel series cutoff, up to 0.6: on the cone, at
    # the focus, at t = 0 and at t = 2
    params = wave.WaveParams(d=d, j=j, t_ref=1.3)
    radii = np.linspace(1.01 * _kernel_cut_radius(params), 0.6, 7)
    for t in (params.t_ref + radii[3], params.t_ref, 0.0, 2.0):
        assert _dense_error(params, t, radii) <= 1e-10


# ---------------------------------------------------------------------------
# profile table
# ---------------------------------------------------------------------------

def _direct_profile(d, ys, y_max):
    """F(y) by composite Gauss-Legendre: the independent oracle for the FFT table."""
    nodes, weights = oracles.gauss_legendre(*wave.BUMP_SUPPORT, 16 * math.ceil(1.0 + y_max))
    amp = weights * wave.bump(nodes) * nodes ** (0.5 * (d - 1))
    return backend.oscillatory_sum(ys, nodes, amp)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_profile_table_matches_direct_sum(d):
    step, vals = wave._profile_table(d)
    assert step == 1.0 / 64.0 and len(vals) == 32769
    ys = step * np.arange(len(vals))[::64]
    ref = _direct_profile(d, ys, ys[-1])
    assert np.abs(vals[::64] - ref).max() <= 1e-12 * np.abs(vals).max()


@pytest.mark.parametrize("m", [1, 6])
def test_hankel_profile_tables_match_direct_sum(m):
    # F_m of d = 2 has the sigma power of F_0 in dimension 2 - 2m
    step, vals = wave._profile_table(2, m)
    ys = step * np.arange(len(vals))[::64]
    ref = _direct_profile(2 - 2 * m, ys, ys[-1])
    assert np.abs(vals[::64] - ref).max() <= 1e-12 * np.abs(vals).max()


def test_profile_table_refinement_is_bounded(monkeypatch):
    # an FFT length far too short to resolve the profile: the builder must
    # give up with a typed error carrying the achieved error, and cache nothing
    wave._profile_table.cache_clear()
    monkeypatch.setattr(wave, "_PROFILE_FFT", 2**10)
    with pytest.raises(RefineFailureError) as info:
        wave._profile_table(3)
    err = info.value.achieved_error
    assert math.isfinite(err) and err > wave._PROFILE_RTOL
    assert wave._profile_table.cache_info().currsize == 0


@pytest.mark.parametrize("power", [0.5, -4.5])
def test_profile_transforms_keep_one_pass_bits(power):
    # the table's transform and the former midpoint rule pad the samples to
    # the FFT length; both give the bits of a transform of the full-length
    # sample array twisted in one pass
    n = wave._PROFILE_FFT
    for shift in (0.0, 0.5):
        h = 2.0 * math.pi / (n * wave._PROFILE_STEP)
        lo, hi = wave.BUMP_SUPPORT
        k = np.arange(math.ceil(lo / h - shift), math.floor(hi / h - shift) + 1)
        sigma = (k + shift) * h
        full = np.zeros(n)
        full[k] = h * wave.bump(sigma) * sigma**power
        ref = np.conj(np.fft.rfft(full)[: n // 4 + 1])
        ref *= np.exp(2.0 * math.pi * 1j * shift / n * np.arange(len(ref)))
        vals = oracles.profile_rule(power, n, shift) if shift else wave._profile_fft(power, n)
        np.testing.assert_array_equal(vals, ref)


def _table_powers():
    """(d, m, power) of every profile table of d = 2..5."""
    return [(d, m, 0.5 * (d - 1) - m) for d in (2, 3, 4, 5)
            for m in range(len(wave._hankel_series(0.5 * (d - 2))[0]) + 1)]


def test_tail_bound_covers_every_table():
    # the a-priori bound lies above |F_m| at every entry with y in [16, 384]
    # and within a factor 10 of it from y = 128 on; above 384 the table's
    # own error reaches the values compared
    for d, m, power in _table_powers():
        step, vals = wave._profile_table(d, m)
        idx = np.arange(round(16 / step), round(384 / step) + 1)
        bound = np.array([wave._tail_bound(power, y) for y in step * idx])
        ratio = bound / np.abs(vals[idx])
        assert ratio.min() >= 1.0, (d, m)
        assert ratio[idx >= round(128 / step)].max() <= 10.0, (d, m)


def test_tail_bound_at_zero_and_negative_y():
    # ||g||_1 at y = 0, with no division by zero; |F(-y)| = |F(y)|
    for power in (2.0, -5.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = wave._tail_bound(power, 0.0)
        assert at_zero == wave._derivative_norms(power)[0]
        assert at_zero == pytest.approx(wave._bump_moment(power), rel=1e-12)
        assert wave._tail_bound(power, -100.0) == wave._tail_bound(power, 100.0)
        ys = np.array([1.0, 10.0, 100.0, 1000.0])
        assert np.all(np.diff([wave._tail_bound(power, y) for y in ys]) < 0.0)


def test_derivative_norms_match_whole_tables():
    # the row-by-row running powers give every norm the bits of the whole
    # cumprod tables, for each power of the d = 2..5 tables and of propagate
    powers = {power for _, _, power in _table_powers()} | {1.0, 2.0, 3.0, 4.0}
    for power in sorted(powers):
        assert np.array_equal(wave._derivative_norms(power), oracles.derivative_norms_cumprod(power)), power


def test_profile_eval_on_nodes_reads_the_table_bits():
    # every node of every table, both signs: the direct read has the bits of
    # the weighted cubic, which a call with one lookup off the nodes keeps
    for d, m, _ in _table_powers():
        table = wave._profile_table(d, m)
        step, vals = table
        k = np.arange(1, len(vals) - 2)
        y = np.concatenate((k * step, -k * step))
        direct = wave._profile_eval(table, y)
        mixed = wave._profile_eval(table, np.append(y, 100.5 * step))
        assert np.array_equal(direct.view(np.uint64), mixed[:-1].view(np.uint64)), (d, m)
        assert np.array_equal(direct[:len(k)], vals[k])
        # the off-node lookup is interpolated, not read
        cubic = (-vals[99] + 9.0 * vals[100] + 9.0 * vals[101] - vals[102]) / 16.0
        assert mixed[-1] == pytest.approx(cubic, rel=1e-14, abs=1e-300), (d, m)
        assert mixed[-1] != vals[100]
    # the zeros beyond the reach, and a lookup there does not stop the direct read
    table = wave._profile_table(3)
    reach = wave._table_reach(table)
    out = wave._profile_eval(table, [reach, -reach, 2.0 * table[0]])
    assert out[0] == out[1] == 0.0 and out[2] == table[1][2]


@pytest.mark.parametrize("n", [2**11, 2**12, 2**13, 2**14, 2**15, 2**16])
def test_alias_bound_matches_shorter_transforms(n):
    # a transform of length n keeps y <= y_max = n dy / 4 and aliases at
    # |y| >= 3 y_max; its distance from the 2^17 table there is at most the
    # a-priori alias bound, and at least a tenth of it
    y_max = 0.25 * n * wave._PROFILE_STEP
    for d, m, power in _table_powers():
        full = wave._profile_table(d, m)[1]
        diff = np.abs(wave._profile_fft(power, n) - full[: n // 4 + 1]).max()
        alias = math.pi**2 / 3.0 * wave._tail_bound(power, 3.0 * y_max)
        assert 0.1 * alias <= diff <= alias, (d, m)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_profile_tables_meet_their_budgets(d):
    # F_0 keeps the whole budget and the K Hankel tables split it by their
    # weights w_m = |a_m| x_min^-m max|F_m| / max|F_0|; every F_m meets it
    # at the one FFT length
    coeffs, _, u_cut = wave._hankel_series(0.5 * (d - 2))
    x_min = 24.0 if u_cut else 4.0
    peak_0 = np.abs(wave._profile_table(d)[1]).max()
    assert wave._profile_budget(d, 0) == 1.0
    for m in range(len(coeffs) + 1):
        table = wave._profile_table(d, m)
        assert len(table[1]) == 32769
        vals, tail, step = oracles.profile_errors(d, m, wave._PROFILE_FFT)
        np.testing.assert_array_equal(table[1], vals)
        budget = wave._profile_budget(d, m)
        assert tail <= budget * wave._PROFILE_TAIL
        assert step <= budget * wave._PROFILE_RTOL
        if m:
            weight = abs(coeffs[m - 1]) * x_min**-m * np.abs(table[1]).max() / peak_0
            share = 1.0 / (len(coeffs) * weight)
            assert budget == pytest.approx(share, rel=1e-12)


def test_profile_budgets_keep_field_rows(monkeypatch):
    # rows from tables built to each one's budget against rows from tables
    # built under the old rule (every table to 1e-9 of its own peak, the FFT
    # length doubling from 2^17), on both sides of the Hankel lookup cutoff
    # 2^j r = 24 and across the cone
    old_tables = {}

    def old_rule(d, m=0):
        power = 0.5 * (d - 1) - m
        n = wave._PROFILE_FFT
        while power not in old_tables:
            vals, tail, step = oracles.profile_errors(d, m, n)
            if tail <= wave._PROFILE_TAIL and step <= wave._PROFILE_RTOL:
                old_tables[power] = (wave._PROFILE_STEP, vals)
            n *= 2
        return old_tables[power]

    times = np.array([1.0, 1.3, 1.62, 2.0])
    rows = {"old": {}, "budget": {}}
    for rule, builder in (("old", old_rule), ("budget", wave._profile_table)):
        monkeypatch.setattr(wave, "_profile_table", builder)
        for d in (2, 4):
            for j in range(8, 13):
                params = wave.WaveParams(d=d, j=j)
                cut = 24.0 * 2.0**-j
                radii = np.sort(np.concatenate([
                    np.geomspace(params.min_asymptotic_r, 0.99 * cut, 7),
                    np.geomspace(1.01 * cut, 1.0, 33),
                    times[1:3] - params.t_ref,
                ]))
                grid = np.broadcast_to(radii, (len(times), len(radii)))
                rows[rule][d, j] = wave.field_row_fast(params, times, grid).values
    # the old rule doubled F_4 .. F_6 of d = 2
    assert sorted(len(vals) for _, vals in old_tables.values()) == [32769] * 5 + [65537] * 3
    for key, old in rows["old"].items():
        diff = np.abs(rows["budget"][key] - old).max(axis=-1)
        assert np.all(diff <= 1e-13 * np.abs(old).max(axis=-1)), key


# ---------------------------------------------------------------------------
# main_terms and the decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 2])
def test_decomposition_identity_small(d):
    params = wave.WaveParams(d=d, j=7, t_ref=1.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(8):
        t = 1.2 + 0.6 * rng.random()
        rho = t - 1.0
        r = rho + (rng.random() - 0.5) * 2.0**-9
        row = wave.propagate(params, t, np.array([r]))
        tm, tp, tr = wave.main_terms(params, t, r)
        worst = max(worst, abs(row.values[0] - (tm + tp + tr)) / abs(row.values[0]))
    assert worst <= 1e-5


def test_remainder_vanishes_d3():
    params = wave.WaveParams(d=3, j=8, t_ref=1.0)
    _, _, tr = wave.main_terms(params, 1.5, 0.5)
    assert tr == 0.0


def test_main_terms_domain():
    params = wave.WaveParams(d=3, j=8, t_ref=1.0)
    with pytest.raises(OutOfRangeError):
        wave.main_terms(params, 1.5, 2.0**-9)


def test_shell_lower_bound_on_cone():
    # |T^-| >= c r^(-(d-1)/2) 2^(j(d+1)/2) on D_t, with c from the bump mass
    d = 3
    sigma = np.linspace(0.5, 2.0, 20001)
    for j in (8, 10):
        params = wave.WaveParams(d=d, j=j, t_ref=1.0)
        t = 1.5
        reg = wave.region(params, t)
        grid = np.linspace(reg.r_lo, reg.r_hi, 9)
        tm, _, _ = wave.main_terms_grid(params, t, grid)
        # F(y) for |y| <= 2^-5 stays within 10% of F(0)
        mass = np.trapezoid(wave.bump(sigma) * sigma, sigma)
        floor = 0.9 * (2 * math.pi) ** -2.0 * mass * grid ** (-1.0) * 2.0 ** (2 * j)
        assert np.all(np.abs(tm) >= floor)


def test_domination_on_shell():
    # || T^+ ||_p + || T^rem ||_p <= (1/2) || T^- ||_p on D_t when 2^j |I| >= 32
    d, j, p = 3, 9, 4.0
    params = wave.WaveParams(d=d, j=j, t_ref=1.0)
    window = 32.0 * 2.0**-j
    for frac in (0.55, 0.8, 1.0):
        t = 1.0 + frac * window
        rho = t - 1.0
        half = 2.0 ** (-j - 5)
        grid = np.linspace(rho - half, rho + half, 33)
        tm, tp, tr = wave.main_terms_grid(params, t, grid)
        row = lambda v: wave.WaveFieldRow(t, grid, v, 0.0, params)
        n_minus = wave.shell_lp_norm(row(tm), p, (rho - half, rho + half))
        n_plus = wave.shell_lp_norm(row(tp), p, (rho - half, rho + half))
        n_rem = wave.shell_lp_norm(row(tr), p, (rho - half, rho + half))
        assert n_plus + n_rem <= 0.5 * n_minus


def test_decomposition_identity_d2_with_remainder():
    params = wave.WaveParams(d=2, j=7, t_ref=1.0)
    t, r = 1.42, 0.4
    row = wave.propagate(params, t, np.array([r]))
    tm, tp, tr = wave.main_terms(params, t, r)
    assert abs(tr) > 0.0
    assert abs(row.values[0] - (tm + tp + tr)) <= 1e-5 * abs(row.values[0])


def _hankel_cut_radius(params):
    return wave._HANKEL_CUTOFF / (2.0**params.j * wave.BUMP_SUPPORT[0])


def _direct_remainder(params, t, r_grid):
    """T_rem by dense Gauss-Legendre quadrature at every radius: the oracle."""
    d, j = params.d, params.j
    scale = 2.0**j
    omega = t - params.t_ref
    freq = scale * (abs(omega) + r_grid.max())
    nodes, weights = oracles.gauss_legendre(*wave.BUMP_SUPPORT, max(2**16, 16 * math.ceil(1.0 + freq)))
    phase = oracles.exact_phase(scale * omega, nodes) * weights * wave.bump(nodes) * nodes ** (0.5 * d)
    pref = (2 * math.pi) ** (-0.5 * d) * 2.0 ** (j * 0.5 * (d + 2)) * r_grid ** (-0.5 * (d - 2))
    return np.array([
        pref[i] * np.dot(bessel.bessel_remainder(0.5 * (d - 2), scale * r * nodes), phase)
        for i, r in enumerate(r_grid)
    ])


@pytest.mark.parametrize("d", [2, 4, 5])
def test_decomposition_identity_across_hankel_cutoff(d):
    # radii on the light cone, below and above the radius where the remainder
    # switches from direct quadrature to Hankel-term lookups
    params = wave.WaveParams(d=d, j=7, t_ref=1.0)
    r_cut = _hankel_cut_radius(params)
    for r in (0.6 * r_cut, 0.95 * r_cut, r_cut, 1.1 * r_cut, 3.0 * r_cut):
        t = 1.0 + r
        row = wave.propagate(params, t, np.array([r]))
        tm, tp, tr = wave.main_terms(params, t, r)
        assert abs(tr) > 0.0
        assert abs(row.values[0] - (tm + tp + tr)) <= 1e-5 * abs(row.values[0])


@pytest.mark.parametrize("j", range(6, 13))
@pytest.mark.parametrize("d", [2, 4])
def test_remainder_direct_radii_match_dense_reference(d, j):
    # the radii 2^(-j+2) <= r < 12 / (2^j sigma_lo) that integrate the
    # remainder directly, on the cone, at t = 0 and at t = 2, against
    # |R(u)| <~ u^(-3/2): pref(r) (2^j r sigma_lo)^(-3/2) Integral bump sigma^(d/2)
    params = wave.WaveParams(d=d, j=j, t_ref=1.3)
    radii = np.linspace(params.min_asymptotic_r, _hankel_cut_radius(params), 9)[:-1]
    lo, hi = wave.BUMP_SUPPORT
    nodes, weights = oracles.gauss_legendre(lo, hi, 2**10)
    mass = float(np.dot(weights, wave.bump(nodes) * nodes ** (0.5 * d)))
    pref = (2 * math.pi) ** (-0.5 * d) * 2.0 ** (j * 0.5 * (d + 2)) * radii ** (-0.5 * (d - 2))
    bound = pref * (2.0**j * radii * lo) ** -1.5 * mass
    for t in (0.0, 2.0):
        got = wave._remainder_term(params, t, radii)
        assert np.all(np.abs(got - _direct_remainder(params, t, radii)) <= 1e-12 * bound)
    # each radius on its own cone: n times with an (n x 1) grid
    cone = wave._remainder_term(params, params.t_ref + radii, radii[:, None])[:, 0]
    for i, r in enumerate(radii):
        ref = _direct_remainder(params, params.t_ref + r, radii[i:i + 1])[0]
        assert abs(cone[i] - ref) <= 1e-12 * bound[i]


@pytest.mark.parametrize("d", [2, 4])
def test_remainder_continuous_across_hankel_cutoff(d):
    params = wave.WaveParams(d=d, j=7, t_ref=1.0)
    r_cut = _hankel_cut_radius(params)
    below, at = wave._remainder_term(params, 1.0 + r_cut, np.array([r_cut * (1 - 1e-12), r_cut]))
    assert abs(below - at) <= 1e-6 * abs(at)


@pytest.mark.parametrize("d", [2, 4, 5])
def test_remainder_lookups_within_truncation_bound(d):
    params = wave.WaveParams(d=d, j=7, t_ref=1.0)
    r_cut = _hankel_cut_radius(params) if d != 5 else params.min_asymptotic_r
    grid = r_cut * np.array([1.0, 1.05, 1.5, 2.0, 4.0])
    got = wave._remainder_term(params, 1.0 + 1.2 * r_cut, grid)
    ref = _direct_remainder(params, 1.0 + 1.2 * r_cut, grid)
    bound = wave._truncation_bound(params, grid)
    # table lookups add their own error of order 1e-9 of the largest term
    assert np.all(np.abs(got - ref) <= bound + 1e-7 * np.abs(ref).max())
    if d == 5:
        assert np.all(bound == 0.0)
    else:
        assert np.all(bound > 0.0) and bound[0] <= 1e-6 * np.abs(ref).max()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_field_row_fast_reports_truncation_bound(d):
    params = wave.WaveParams(d=d, j=7, t_ref=1.0)
    row = wave.field_row_fast(params, 1.35, np.linspace(0.1, 0.6, 33))
    if d in (3, 5):
        assert row.err_rel == 0.0
    else:
        assert 0.0 < row.err_rel <= 1e-6
    header = json.loads(wave.WaveField(params, [row]).header_json())
    assert header["err_rel"] == [row.err_rel]


def _batched_grid(params):
    """Times and an (n x 9) radius grid: rows on and off the cone, before and
    after t0, some inside the radius where d = 2, 4 integrate the remainder
    directly, one straddling it, and the rest beyond it."""
    times = np.array([1.05, 1.2, 0.85, 1.45, 1.6, 1.3])
    bounds = [(0.032, 0.06), (0.1, 0.3), (0.14, 0.16), (0.4, 0.6), (0.55, 0.65), (0.2, 0.25)]
    grid = np.array([np.linspace(lo, hi, 9) for lo, hi in bounds])
    assert grid.min() >= params.min_asymptotic_r
    return times, grid


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_rows_match_per_row_calls(d):
    params = wave.WaveParams(d=d, j=7, t_ref=1.0)
    times, grid = _batched_grid(params)
    near = 2.0**params.j * grid * wave.BUMP_SUPPORT[0] < wave._HANKEL_CUTOFF
    assert near.all(axis=1).any() and near.any(axis=1).sum() > near.all(axis=1).sum()
    batched = wave.main_terms_grid(params, times, grid)
    row = wave.field_row_fast(params, times, grid)
    assert row.values.shape == grid.shape and row.err_rel.shape == times.shape
    for i, t in enumerate(times):
        for got, want in zip(batched, wave.main_terms_grid(params, t, grid[i])):
            np.testing.assert_array_equal(got[i], want)
        one = wave.field_row_fast(params, t, grid[i])
        np.testing.assert_array_equal(row.values[i], one.values)
        assert row.err_rel[i] == one.err_rel and isinstance(one.err_rel, float)
    if d in (2, 4):
        assert np.all(batched[2][near] != 0.0)


def test_batched_grid_shapes_must_match():
    params = wave.WaveParams(d=3, j=7, t_ref=1.0)
    times, grid = _batched_grid(params)
    with pytest.raises(OutOfRangeError):
        wave.main_terms_grid(params, times, grid[0])
    with pytest.raises(OutOfRangeError):
        wave.field_row_fast(params, times[:3], grid)
    with pytest.raises(OutOfRangeError):
        wave.main_terms_grid(params, 1.5, grid)


# ---------------------------------------------------------------------------
# shell_lp_norm
# ---------------------------------------------------------------------------

def test_shell_norm_constant_field_closed_form():
    params = wave.WaveParams(d=3, j=2, t_ref=1.0)
    grid = np.linspace(1.0, 2.0, 257)
    row = wave.WaveFieldRow(1.5, grid, np.ones(257, dtype=complex), 0.0, params)
    got = wave.shell_lp_norm(row, 2.0, (1.0, 2.0))
    assert got == pytest.approx(math.sqrt(7.0 / 3.0), rel=1e-4)
    assert wave.shell_lp_norm(row, math.inf, (1.0, 2.0)) == 1.0


def test_shell_norm_grid_requirements():
    params = wave.WaveParams(d=3, j=8, t_ref=1.0)
    coarse = np.linspace(1.0, 2.0, 65)  # step 2^-6 > 2^-8/32
    row = wave.WaveFieldRow(1.5, coarse, np.ones(65, dtype=complex), 0.0, params)
    with pytest.raises(RefineFailureError):
        wave.shell_lp_norm(row, 2.0, (1.0, 2.0))


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0, math.inf])
def test_batched_shell_norm_matches_trapezoid_oracle(p):
    params = wave.WaveParams(d=4, j=8, t_ref=1.0)
    half = 2.0 ** (-8 - 5)
    times = np.array([1.3, 1.45, 0.8, 1.7])
    rho = np.abs(times - 1.0)
    grid = np.linspace(rho - half, rho + half, 17, axis=1)
    rows = wave.field_row_fast(params, times, grid)
    norms = wave.shell_lp_norm(rows, p, (rho - half, rho + half))
    assert norms.shape == times.shape
    for i in range(len(times)):
        assert norms[i] == trapezoid_norm(grid[i], rows.values[i], p, params.d)
        one = wave.WaveFieldRow(times[i], grid[i], rows.values[i], 0.0, params)
        assert norms[i] == wave.shell_lp_norm(one, p, (rho[i] - half, rho[i] + half))
    # a range inside each row keeps the segments whose ends both lie in it
    inner = wave.shell_lp_norm(rows, p, (rho - 0.5 * half, rho + half))
    for i in range(len(times)):
        keep = grid[i] >= rho[i] - 0.5 * half - 1e-15
        assert keep.sum() == 13
        assert inner[i] == pytest.approx(trapezoid_norm(grid[i][keep], rows.values[i][keep], p, params.d),
                                         rel=1e-14)


def test_batched_shell_norm_checks_every_row():
    params = wave.WaveParams(d=3, j=8, t_ref=1.0)
    half = 2.0 ** (-8 - 5)
    rho = np.array([0.3, 0.4, 0.5])
    grid = np.linspace(rho - half, rho + half, 17, axis=1)
    rows = wave.field_row_fast(params, 1.0 + rho, grid)
    lo, hi = grid[:, 0].copy(), grid[:, -1].copy()
    assert np.all(wave.shell_lp_norm(rows, 2.0, (lo, hi)) > 0.0)
    # the middle row has only two radii inside its range
    hi[1] = grid[1, 1]
    with pytest.raises(RefineFailureError, match="under-resolves"):
        wave.shell_lp_norm(rows, 2.0, (lo, hi))
    # the last row is 16 times wider: step 2^-j / 16 > 2^-j / 32
    grid[2] = np.linspace(rho[2] - 16 * half, rho[2] + 16 * half, 17)
    rows = wave.field_row_fast(params, 1.0 + rho, grid)
    with pytest.raises(RefineFailureError, match="too coarse"):
        wave.shell_lp_norm(rows, 2.0, (grid[:, 0], grid[:, -1]))


def test_shell_norm_grid_doubling_stability():
    params = wave.WaveParams(d=3, j=8, t_ref=1.0)
    t = 1.5
    rho = 0.5
    half = 2.0 ** (-8 - 5)
    n1, n2 = 33, 65
    norms = []
    for n in (n1, n2):
        grid = np.linspace(rho - half, rho + half, n)
        row = wave.field_row_fast(params, t, grid)
        norms.append(wave.shell_lp_norm(row, 4.0, (rho - half, rho + half)))
    assert abs(norms[1] - norms[0]) <= 1e-4 * norms[1]


def test_shell_scaling_matches_cone_profile():
    # || T^- ||_{L^p(D_t)} ~ 2^(j(d+1)/2) |J_t|^(1/p) at fixed rho
    d, p = 3, 4.0
    logs = []
    js = range(8, 12)
    for j in js:
        params = wave.WaveParams(d=d, j=j, t_ref=1.0)
        rho = 0.5
        half = 2.0 ** (-j - 5)
        grid = np.linspace(rho - half, rho + half, 17)
        tm, _, _ = wave.main_terms_grid(params, 1.5, grid)
        row = wave.WaveFieldRow(1.5, grid, tm, 0.0, params)
        logs.append(math.log2(wave.shell_lp_norm(row, p, (rho - half, rho + half))))
    slope = np.polyfit(list(js), logs, 1)[0]
    assert slope == pytest.approx(0.5 * (d + 1) - 1.0 / p, abs=0.05)


# ---------------------------------------------------------------------------
# data norms
# ---------------------------------------------------------------------------

def test_plancherel_oracle():
    for d, j in [(3, 8), (3, 10), (2, 8), (2, 6), (4, 8)]:
        params = wave.WaveParams(d=d, j=j, t_ref=1.3)
        num = wave.data_norm(params, 2.0)
        ref = wave.data_norm_plancherel(params)
        assert abs(num - ref) <= 1e-3 * ref


def test_sup_norm_growth_slope():
    logs = []
    js = range(8, 13)
    for j in js:
        params = wave.WaveParams(d=3, j=j, t_ref=1.3)
        logs.append(math.log2(wave.data_norm(params, math.inf)))
    slope = np.polyfit(list(js), logs, 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_p4_norm_constant_stable():
    ratios = []
    for j in (8, 10, 12):
        params = wave.WaveParams(d=3, j=j, t_ref=1.3)
        ratios.append(wave.data_norm(params, 4.0) / 2.0 ** (j * (2.0 - 0.25)))
    assert max(ratios) / min(ratios) <= 1.1


def test_data_norm_domain():
    params = wave.WaveParams(d=3, j=8)
    with pytest.raises(OutOfRangeError):
        wave.data_norm(params, 1.5)


def test_data_norm_cached_per_params_and_p():
    params = wave.WaveParams(d=3, j=7, t_ref=1.4)
    first = wave.data_norm(params, 3.0)
    hits = wave.data_norm.cache_info().hits
    again = wave.data_norm(wave.WaveParams(d=3, j=7, t_ref=1.4), 3.0)
    assert again is first
    assert wave.data_norm.cache_info().hits == hits + 1
    # a failed call is not cached, and raises again
    size = wave.data_norm.cache_info().currsize
    for _ in range(2):
        with pytest.raises(OutOfRangeError):
            wave.data_norm(params, 1.5)
    assert wave.data_norm.cache_info().currsize == size


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("j", [6, 8, 11, 13, 14])
def test_norm_lp_keeps_one_pass_bits(d, j):
    # the oracle evaluates every radius and the inner disc.  t = t_ref puts
    # the radii with a directly integrated remainder (d = 2 and 4) in the
    # fine band; at j = 6 the band of 128 units reaches past the outer radius
    # t_ref + 4 when the cone lies at 4, and lies wholly past it when the
    # cone lies at 8, so both ends are clipped there.  t_ref = 1 lines the
    # data norm's grids up with the table's nodes; from j = 11 on the disc
    # at t = 0 is skipped
    ps = (2.0, 2.5, 4.0, math.inf)
    for t_ref in (1.0, 1.5, 2.0):
        params = wave.WaveParams(d=d, j=j, t_ref=t_ref)
        times = [0.0, params.t_ref, params.t_ref + 0.3]
        if j == 6:
            times += [params.t_ref + 4.0, params.t_ref + 8.0]
        for t in times:
            for p, norm in zip(ps, oracles.norm_lp_one_pass(params, t, ps)):
                assert wave.norm_lp(params, t, p) == norm, (t_ref, t, p)


def _spy(monkeypatch, name):
    """Radius counts of each call of wave.<name> (by module name)."""
    calls = []
    real = getattr(wave, name)

    def spy(params, t, r_grid):
        calls.append(int(np.size(r_grid)))
        return real(params, t, r_grid)

    monkeypatch.setattr(wave, name, spy)
    return calls


@pytest.mark.parametrize("j, disc", [(6, True), (8, True), (13, False)])
def test_norm_lp_evaluates_only_radii_that_count(monkeypatch, j, disc):
    # at j = 13 all but about 17k of the 57k lookup radii lie off the table,
    # and the inner disc lies far below half an ulp of the next piece
    params = wave.WaveParams(d=3, j=j, t_ref=1.0)
    lookups, direct = _spy(monkeypatch, "field_row_fast"), _spy(monkeypatch, "propagate")
    wave.norm_lp(params, 0.0, 2.5)
    assert direct == ([49] if disc else [])
    if j == 13:
        assert sum(lookups) <= 18_000


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("j, t", [(8, 0.0), (10, 0.0), (10, 1.3)])
def test_off_table_radii_are_exact_zeros(d, j, t):
    # the mask is exactly where field_row_fast returns 0, within four table
    # steps of every radius at which a profile argument leaves the table, and
    # over the radii with a directly integrated remainder (d = 2 and 4)
    params = wave.WaveParams(d=d, j=j, t_ref=1.0)
    h = 2.0**-j
    reach = wave._table_reach(wave._profile_table(d)) * h
    omega = t - params.t_ref
    edges = [omega - reach, omega + reach, -omega - reach, -omega + reach]
    radii = np.concatenate([e + np.arange(-8, 9) * h / 128.0 for e in edges] + [np.arange(4.0, 50.0) * h])
    radii = radii[radii >= params.min_asymptotic_r]
    mask = wave._off_table(params, t, radii)
    assert np.array_equal(mask, oracles.off_table_zeros(params, t, radii))
    assert mask.any() and not mask.all()


@pytest.mark.parametrize("d, block", [(2, 1281), (4, 1281), (3, 100), (5, 64)])
def test_norm_lp_keeps_bits_in_small_blocks(monkeypatch, d, block):
    # many block edges in every piece; in d = 2 and 4 the least block that
    # holds every direct remainder radius of the band
    monkeypatch.setattr(wave, "_NORM_BLOCK", block)
    params = wave.WaveParams(d=d, j=8, t_ref=1.5)
    ps = (2.5, math.inf)
    for t in (0.0, params.t_ref):
        for p, norm in zip(ps, oracles.norm_lp_one_pass(params, t, ps)):
            assert wave.norm_lp(params, t, p) == norm, (t, p)


def test_piece_norm_walks_the_linspace_grid(monkeypatch):
    # radius k is k step + lo as in np.linspace, and the last one is hi even
    # where (num - 1) step + lo rounds elsewhere; blocks of 7 radii
    monkeypatch.setattr(wave, "_NORM_BLOCK", 7)
    rng = np.random.default_rng(5)
    moved = 0
    for _ in range(200):
        lo = float(rng.uniform(0.0, 1.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        num = int(rng.integers(2, 60))
        grid = np.linspace(lo, hi, num)
        moved += (num - 1) * ((hi - lo) / (num - 1)) + lo != hi
        seen = []

        def field(r):
            seen.append(r.copy())
            return (r - 0.3) * (1.7 - r) + 1j * r * r

        vals = np.abs(field(grid))
        seen.clear()
        assert wave._piece_norm(field, lo, hi, num, 2.5, 3) == float(np.trapezoid(vals**2.5 * grid**2, grid))
        assert np.array_equal(np.concatenate(seen), grid)
        assert wave._piece_norm(field, lo, hi, num, math.inf, 3) == float(vals.max())
    assert moved


def test_norm_block_holds_every_direct_remainder_radius():
    # in d = 2 and 4 the remainder is integrated directly at 4 <= 2^j r < x_cut,
    # one step per call; the band's step 2^-j / 64 puts the most radii
    # there, both ends counted, since rounding may put r = x_cut 2^-j on
    # either side
    bound = 0
    for d in (2, 4):
        x_cut = wave._hankel_series(0.5 * (d - 2))[2] / wave.BUMP_SUPPORT[0]
        bound = max(bound, round((x_cut - 4.0) * wave._FINE_STEP_DIVISOR) + 1)
        for j in (6, 11, 20):
            params = wave.WaveParams(d=d, j=j, t_ref=1.5)
            h = 2.0**-j
            hi = wave._BAND_HALFWIDTH_UNITS * h
            band = np.linspace(params.min_asymptotic_r, hi, round((hi - 4.0 * h) / h * wave._FINE_STEP_DIVISOR) + 1)
            assert np.count_nonzero(band / h < x_cut) <= bound
    assert bound == 1281
    assert wave._NORM_BLOCK >= bound


def test_data_norm_working_memory():
    # with the table warm, the blocked walk needs no array as long as a piece
    # beside its trapezoid terms (22.5 MB in one pass over each piece)
    params = wave.WaveParams(d=3, j=16, t_ref=1.5)
    wave.data_norm(wave.WaveParams(d=3, j=6, t_ref=1.5), 2.5)
    tracemalloc.start()
    try:
        wave.data_norm.__wrapped__(params, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("kwargs", [
    {"p": math.nan}, {"p": 0.0}, {"p": -1.0}, {"p": 0.5},
    {"t": math.nan}, {"t": math.inf}, {"t": -math.inf},
])
def test_norm_lp_rejects_bad_inputs(kwargs):
    params = wave.WaveParams(d=3, j=6)
    args = {"t": 0.0, "p": 2.0, **kwargs}
    with pytest.raises(OutOfRangeError):
        wave.norm_lp(params, args["t"], args["p"])


def test_norm_overflow_is_a_range_error():
    # |u|^p beyond the largest double: a typed error naming p and j, with no
    # NumPy overflow warning, instead of an infinite norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match=r"p = 100, j = 8"):
            wave.data_norm(wave.WaveParams(d=3, j=8), 100.0)
        params = wave.WaveParams(d=3, j=6)
        rho, half = 0.5, 2.0 ** (-params.j - 5)
        grid = np.linspace(rho - half, rho + half, 17)
        row = wave.field_row_fast(params, params.t_ref + rho, grid)
        assert math.isfinite(wave.shell_lp_norm(row, 40.0, (grid[0], grid[-1])))
        with pytest.raises(OutOfRangeError, match=r"p = 400, j = 6"):
            wave.shell_lp_norm(row, 400.0, (grid[0], grid[-1]))
        rows = wave.field_row_fast(params, np.full(2, params.t_ref + rho), np.stack([grid, grid]))
        with pytest.raises(OutOfRangeError, match=r"p = 400, j = 6"):
            wave.shell_lp_norm(rows, 400.0, (grid[0], grid[-1]))


@pytest.mark.parametrize("p", [math.nan, 0.0, -1.0, 0.5])
def test_shell_norm_rejects_bad_p(p):
    params = wave.WaveParams(d=3, j=6)
    rho, half = 0.5, 2.0 ** (-params.j - 5)
    grid = np.linspace(rho - half, rho + half, 17)
    row = wave.field_row_fast(params, params.t_ref + rho, grid)
    assert wave.shell_lp_norm(row, 1.0, (grid[0], grid[-1])) > 0.0
    with pytest.raises(OutOfRangeError):
        wave.shell_lp_norm(row, p, (grid[0], grid[-1]))


def test_mass_concentrates_on_cone():
    # L2 mass outside 32  2^-j of the cone radius is below 1%; the band's
    # mass by the trapezoid rule at norm_lp's fine step 2^-j / 64
    params = wave.WaveParams(d=3, j=9, t_ref=1.3)
    total = wave.data_norm_plancherel(params) ** 2
    h = 2.0**-9
    # data itself: cone at r = t_ref
    r = np.linspace(params.t_ref - 32 * h, params.t_ref + 32 * h, 64 * 64 + 1)
    band = trapezoid_norm(r, wave.field_row_fast(params, 0.0, r).values, 2.0, params.d) ** 2
    assert band >= 0.99 * total
    # evolved to t = t_ref: cone at r = 0, the disc r < 2^(-j+2) by direct quadrature
    inner = np.linspace(0.0, params.min_asymptotic_r, 49)
    outer = np.linspace(params.min_asymptotic_r, 32 * h, 28 * 64 + 1)
    band0 = trapezoid_norm(inner, wave.propagate(params, params.t_ref, inner).values, 2.0, params.d) ** 2 + \
        trapezoid_norm(outer, wave.field_row_fast(params, params.t_ref, outer).values, 2.0, params.d) ** 2
    assert band0 >= 0.99 * total


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_wave_field_serialization():
    params = wave.WaveParams(d=3, j=8, t_ref=1.0)
    grid = np.linspace(0.45, 0.55, 5)
    rows = [wave.field_row_fast(params, t, grid) for t in (1.5, 1.6)]
    fld = wave.WaveField(params, rows)
    csv = fld.to_csv()
    assert csv.splitlines()[0] == "t,r,re_u,im_u"
    assert len(csv.splitlines()) == 1 + 2 * len(grid)
    header = json.loads(fld.header_json())
    assert header["d"] == 3 and header["times"] == [1.5, 1.6]
    assert header["bump_center"] == 1.25 and header["bump_half_width"] == 0.75
