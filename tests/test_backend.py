"""The array kernels: batched covering counts against the scalar greedy sweep,
and the direct phase sum against a plain NumPy sum."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracsmooth import backend, harness, sets, spectra
from fracsmooth.errors import OutOfRangeError

from conftest import descriptor_zoo
from oracles import family_count_maxima, greedy_cover_points


def _windows(grids):
    """The windows [x, x + length] of a ``Grids``, built."""
    return [(off + k * length, off + k * length + length)
            for off, length, k_lo, k_hi in grids.parts for k in range(k_lo, k_hi + 1)]


def _one_window_parts(w_lo, w_hi):
    return backend.Grids(tuple((float(a), float(b - a), 0, 0) for a, b in zip(w_lo, w_hi)))


def _scalar_counts(flat, grids, delta):
    """(count maximum, start of the first window attaining it) per part of a
    ``Grids``, from a scan of the scalar sweep over the part's windows."""
    out = []
    for off, length, k_lo, k_hi in grids.parts:
        starts = [off + k * length for k in range(k_lo, k_hi + 1)]
        counts = [sets._greedy_count(flat, x, x + length, delta) for x in starts]
        out.append((max(counts), starts[counts.index(max(counts))]))
    return out


def _mixed_windows(rng):
    """Unsorted windows of mixed, non-dyadic lengths, some empty or reversed,
    followed by sorted runs of one length each, one window per part."""
    w_lo = rng.uniform(0.9, 2.05, 300)
    w_hi = w_lo + rng.uniform(-0.01, 0.4, 300)
    w_hi[:20] = 2.0
    w_lo[20:40] = 1.0
    runs = [np.sort(rng.uniform(0.9, 2.0, 100)) for _ in range(3)]
    lengths = (0.003, 0.0625, 1.0 / 3.0)
    w_lo = np.concatenate([w_lo, *runs])
    w_hi = np.concatenate([w_hi, *(r + length for r, length in zip(runs, lengths))])
    return _one_window_parts(w_lo, w_hi)


def _inside_windows(length):
    """Every family window of one length inside [1, 2], in shift order."""
    return [(x, x + length) for off in (0.0, 0.5 * length)
            for x in (off + k * length for k in range(-1, round(2.0 / length) + 1))
            if x >= 1.0 and x + length <= 2.0]


def test_backend_selected():
    assert backend.BACKEND == "python"


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_cover_counts_parity(descriptor):
    flat = sets.flatten(descriptor)
    grids = _mixed_windows(np.random.default_rng(3))
    for delta in (1.0, 2.0**-6, 2.0**-11, 1.0 / 3.0):
        got = backend.cover_counts(flat[0], flat[1], flat[2], grids, delta)
        assert got == _scalar_counts(flat, grids, delta)


@pytest.mark.parametrize("j", [6, 10, 14])
@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_window_table_matches_scalar_counts(descriptor, j, monkeypatch):
    # every count of the table's one kernel call, against the scalar sweep
    kernel, calls = backend.cover_counts, []

    def recording(*args):
        calls.append((args, kernel(*args)))
        return calls[-1][1]

    monkeypatch.setattr(backend, "cover_counts", recording)
    spectra._window_tables.clear()
    spectra.window_count_maxima(descriptor, j)
    spectra._window_tables.clear()
    assert len(calls) == 1
    (types, params, pool, grids, delta), counts = calls[0]
    flat = sets.flatten(descriptor)
    assert (types, params, pool) == flat and delta == 2.0**-j
    # the windows inside [1, 2] from one window left of the set to one right
    smin, smax = sets.bounds(descriptor)
    expected = [
        (x, x + length)
        for length in (2.0**-m for m in range(j + 1))
        for off in (0.0, 0.5 * length)
        for x in (off + k * length for k in range(
            math.floor((smin - off) / length) - 1, math.ceil((smax - off) / length) + 2))
        if x >= 1.0 and x + length <= 2.0
    ]
    assert _windows(grids) == expected
    assert counts == _scalar_counts(flat, grids, delta)


@pytest.mark.parametrize("j", [6, 10])
@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_window_table_maxima_and_first_windows(descriptor, j):
    # the maxima are those of the wider family, and each level's window is
    # the first maximum, in shift order, of a scan over the windows in [1, 2]
    spectra._window_tables.clear()
    assert list(spectra.window_count_maxima(descriptor, j)) == family_count_maxima(descriptor, j, 2)
    flat = sets.flatten(descriptor)
    first = []
    for m in range(j + 1):
        windows = _inside_windows(2.0**-m)
        counts = [sets._greedy_count(flat, a, b, 2.0**-j) for a, b in windows]
        first.append((windows[counts.index(max(counts))], max(counts)))
        assert spectra.best_window(descriptor, j, m) == first[m]
    for alpha in (0.0, 0.5, 1.0, 2.0):
        window, count = harness.choose_window(descriptor, j, alpha)
        m = round(-math.log2(window[1] - window[0]))
        assert m <= j - 5 and (window, count) == first[m]
    for m in (-1, j + 1):
        with pytest.raises(OutOfRangeError):
            spectra.best_window(descriptor, j, m)


@pytest.mark.parametrize("j", [10, 14])
@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_truncated_table_levels_equal_the_full_table(descriptor, j, kernel_windows):
    spectra._window_tables.clear()
    full = spectra._window_table(descriptor, j, j)
    smin, smax = sets.bounds(descriptor)
    for top in (0, j - 5, j - 4):
        spectra._window_tables.clear()
        assert spectra._window_table(descriptor, j, top) == (full[0][:top + 1], full[1][:top + 1])
        # built anew, counting the family windows of levels 0..top only
        assert kernel_windows[-1] == sum(len(spectra.family_starts(smin, smax, 2.0**-m)) for m in range(top + 1))
    assert len(kernel_windows) == 4
    spectra._window_tables.clear()


def test_deeper_tables_serve_shallower_requests(cantor_thirds, kernel_windows):
    spectra._window_tables.clear()
    shallow = spectra.window_count_maxima(cantor_thirds, 12, top=3)
    deeper = spectra.window_count_maxima(cantor_thirds, 12, top=4)
    full = spectra.window_count_maxima(cantor_thirds, 12)
    assert len(kernel_windows) == 3 and (len(shallow), len(deeper), len(full)) == (4, 5, 13)
    assert full[:4] == shallow and full[:5] == deeper
    # the full table replaced the shallow one, and serves every later request
    assert spectra.window_count_maxima(cantor_thirds, 12, top=7) == full[:8]
    assert spectra.best_window(cantor_thirds, 12, 5)[1] == full[5]
    harness.choose_window(cantor_thirds, 12, 1.0)
    spectra.quasi_regular_check(cantor_thirds, 12)
    assert len(kernel_windows) == 3 and len(spectra._window_tables) == 1


def test_grids_sequence():
    grids = backend.Grids(((0.0, 0.25, 3, 6), (0.125, 0.25, 4, 5)))
    assert len(grids) == 6
    assert [x for x, _ in _windows(grids)] == [0.75, 1.0, 1.25, 1.5, 1.125, 1.375]
    # one pair per part: counts 1, 2, 3, 0 and 2, 1
    flat = sets.flatten(sets.FinitePoints((1.0, 1.25, 1.3, 1.4)))
    assert backend.cover_counts(*flat, grids, 2.0**-10) == [(3, 1.25), (2, 1.125)]


def test_window_count_maxima_rejects_top_outside_0_to_j(cantor_thirds, kernel_windows):
    # cold, top = -1 once read an empty table, and warm, top > j never found
    # its table in the cache
    for warm in (False, True):
        spectra._window_tables.clear()
        if warm:
            spectra.window_count_maxima(cantor_thirds, 8)
        for top in (-1, 9, 12):
            with pytest.raises(OutOfRangeError):
                spectra.window_count_maxima(cantor_thirds, 8, top=top)
    assert len(kernel_windows) == 1
    spectra._window_tables.clear()


@pytest.mark.parametrize("descriptor, j, bound_mb", [
    (sets.FullInterval(1.0, 2.0), 18, 1.0),
    (sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0), 16, 2.0),
])
def test_cold_full_table_memory(descriptor, j, bound_mb):
    # a table keeps one pair per grid, never a list as long as the family
    # windows (a million at j = 18)
    spectra._window_tables.clear()
    tracemalloc.start()
    try:
        spectra._window_table(descriptor, j, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        spectra._window_tables.clear()
    assert peak < bound_mb * 2**20


def test_cold_cantor_table_stops_each_part_at_the_cap(cantor_thirds, monkeypatch):
    # every window a cold cantor table at j = 14 sweeps, with its count: a
    # part stops at its first window holding max(1, L / delta) points
    real, swept = backend._sweeper, []

    def recording(flat, delta):
        sweep = real(flat, delta)

        def counted(x, hi):
            count, p = sweep(x, hi)
            swept.append((x, hi - x, count))
            return count, p

        return counted

    monkeypatch.setattr(backend, "_sweeper", recording)
    j = 14
    spectra._window_tables.clear()
    maxima, windows = spectra._window_table(cantor_thirds, j, j)
    spectra._window_tables.clear()
    # the walk without the cap swept 6 407 windows, 2 296 of them at level j
    assert len(swept) < 6407
    flat, (smin, smax) = sets.flatten(cantor_thirds), sets.bounds(cantor_thirds)
    for m in (j - 1, j):
        length, cap = 2.0**-m, 2 ** (j - m)
        # each grid's windows that meet the set, up to the first holding cap
        # points, and no later one
        expected = []
        for off, _, k_lo, k_hi in spectra.family_starts(smin, smax, length).parts:
            starts = (off + k * length for k in range(k_lo, k_hi + 1))
            meeting = [(x, c) for x in starts if (c := sets._greedy_count(flat, x, x + length, 2.0**-j))]
            expected += meeting[:[c for _, c in meeting].index(cap) + 1]
        got = [(x, count) for x, w, count in swept if w == length and count]
        assert got == expected
        # the first grid stops at its first window meeting the set, the
        # level's first maximiser
        assert got[0] == (windows[m][0], maxima[m]) and maxima[m] == cap


# ---------------------------------------------------------------------------
# Properties of the exact point queries and of the interval closed form.
# ---------------------------------------------------------------------------

_unit = st.floats(0.0, 1.0)


@st.composite
def descriptors(draw, depth=1):
    kind = draw(st.sampled_from(["interval", "points", "cantor", "polyseq"] + ["union"] * depth))
    if kind in ("interval", "cantor"):
        lo, hi = sorted(draw(st.lists(_unit, min_size=2, max_size=2, unique=True)))
        assume(1.0 + lo < 1.0 + hi)
    if kind == "interval":
        return sets.FullInterval(1.0 + lo, 1.0 + hi)
    if kind == "points":
        pts = draw(st.lists(_unit, min_size=1, max_size=12))
        return sets.FinitePoints(tuple(sorted({1.0 + p for p in pts})))
    if kind == "cantor":
        m = draw(st.integers(2, 4))
        c = draw(st.floats(0.05, 0.99 / m))
        return sets.CantorLike(1.0 + lo, 1.0 + hi, m, c)
    if kind == "polyseq":
        return sets.PolySequence(draw(st.floats(0.25, 3.0)))
    return sets.UnionSet(tuple(draw(st.lists(descriptors(depth=0), min_size=1, max_size=3))))


_probe = st.floats(0.8, 2.2)


@settings(max_examples=300, deadline=None)
@given(descriptors(), _probe, _unit)
def test_first_point_geq_properties(descriptor, x, u):
    flat = sets.flatten(descriptor)
    p = sets.first_point_geq(flat, x)
    if p == math.inf:
        assert sets.last_point_leq(flat, math.inf) < x
        return
    assert p >= x
    assert sets.first_point_geq(flat, p) == p
    # every probe in [x, p] has the same first point (the grid walk relies on it)
    assert sets.first_point_geq(flat, min(p, x + u * (p - x))) == p
    assert sets.last_point_leq(flat, p) == p
    # no set point in [x, p)
    assert sets.last_point_leq(flat, math.nextafter(p, -math.inf)) < x


@settings(max_examples=300, deadline=None)
@given(descriptors(), _probe)
def test_last_point_leq_properties(descriptor, x):
    flat = sets.flatten(descriptor)
    p = sets.last_point_leq(flat, x)
    if p == -math.inf:
        assert sets.first_point_geq(flat, -math.inf) > x
        return
    assert p <= x
    assert sets.last_point_leq(flat, p) == p
    assert sets.first_point_geq(flat, p) == p
    # no set point in (p, x]
    assert sets.first_point_geq(flat, math.nextafter(p, math.inf)) > x


_in_12 = st.floats(1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_in_12 | st.just(2.0), min_size=2, max_size=2, unique=True),
    st.lists(st.tuples(st.floats(0.9, 2.1), st.floats(-0.05, 1.2), st.booleans()), min_size=1, max_size=20),
    st.integers(0, 24),
)
def test_interval_closed_form_is_greedy(ends, windows, k):
    lo, hi = sorted(ends)
    flat = sets.flatten(sets.FullInterval(lo, hi))
    delta = 2.0**-k
    # at most a few hundred greedy steps per window
    scale = min(1.0, 2.0 ** (8 - k))
    w_lo, w_hi = [], []
    for a, b, to_two in windows:
        if to_two:
            w_lo.append(2.0 - b * scale)
            w_hi.append(2.0)
        else:
            w_lo.append(a)
            w_hi.append(a + b * scale)
    grids = _one_window_parts(w_lo, w_hi)
    assert backend.cover_counts(flat[0], flat[1], flat[2], grids, delta) == _scalar_counts(flat, grids, delta)


@st.composite
def _multi_window_grids(draw):
    """A ``Grids`` of one to three parts of one length, dyadic, a multiple
    of 2^-20 or any float, each of up to 40 windows from below 1 to past 2,
    and one to three deltas of at most 512 greedy steps per window."""
    kind = draw(st.sampled_from(["dyadic", "ulp", "other"]))
    if kind == "dyadic":
        length = 2.0 ** -draw(st.integers(0, 8))
    elif kind == "ulp":
        length = draw(st.integers(2**8, 2**19)) * 2.0**-20
    else:
        length = draw(st.floats(2.0**-8, 0.7))
    parts = []
    for shift in draw(st.lists(st.sampled_from([0.0, 0.5]) | _unit, min_size=1, max_size=3)):
        off = shift * length
        k_lo = draw(st.integers(math.floor((0.8 - off) / length), math.floor((2.1 - off) / length)))
        parts.append((off, length, k_lo, k_lo + draw(st.integers(0, 39))))
    k_max = math.floor(math.log2(512.0 / length))
    deltas = draw(st.lists(st.integers(0, k_max).map(lambda k: 2.0**-k) | st.sampled_from([1.0 / 3.0, 0.01]),
                           min_size=1, max_size=3))
    return backend.Grids(tuple(parts)), deltas


@settings(max_examples=300, deadline=None)
@given(descriptors(), _multi_window_grids())
def test_cover_counts_part_maxima_match_a_scan(descriptor, grids_deltas):
    # each part's maximum, and the first of its windows attaining it, against
    # a scan of the scalar sweep: ties, windows that miss the set and the
    # interval's inside run all fall within one part here
    grids, deltas = grids_deltas
    flat = sets.flatten(descriptor)
    for delta in deltas:
        assert backend.cover_counts(*flat, grids, delta) == _scalar_counts(flat, grids, delta)


@settings(max_examples=300, deadline=None)
@given(descriptors(), st.integers(0, 12), st.integers(-2, 10), st.data())
def test_a_dyadic_window_holds_at_most_length_over_delta(descriptor, m, extra, data):
    # the premise of the kernel's cap, on the scalar walk: anchors lie more
    # than delta apart, so a window [x, x + L] on the grid of L / 2 inside
    # [1, 2] counts at most max(1, L / delta) points, at most 1024 here
    length = 2.0**-m
    x = 1.0 + data.draw(st.integers(0, 2**(m + 1) - 2)) * 0.5 * length
    delta = 2.0 ** -max(0, m + extra)
    count = sets._greedy_count(sets.flatten(descriptor), x, x + length, delta)
    assert count <= max(1, length / delta)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_in_12, min_size=1, max_size=40, unique=True),
    st.floats(0.9, 2.1),
    st.floats(0.0, 1.2),
    st.integers(1, 12),
)
def test_greedy_count_matches_point_list_oracle(points, w_lo, length, k):
    pts = sorted(points)
    flat = sets.flatten(sets.FinitePoints(tuple(pts)))
    delta = 2.0**-k
    expected = greedy_cover_points(pts, w_lo, w_lo + length, delta)
    assert sets._greedy_count(flat, w_lo, w_lo + length, delta) == expected
    got = backend.cover_counts(flat[0], flat[1], flat[2], backend.Grids(((w_lo, length, 0, 0),)), delta)
    assert got == [(expected, w_lo)]


def test_oscillatory_sum_matches_direct():
    rng = np.random.default_rng(1)
    nodes = rng.uniform(0.5, 2.0, 200)
    amp = rng.normal(size=200)
    omegas = np.array([0.0, 1.7, -42.0])
    out = backend.oscillatory_sum(omegas, nodes, amp)
    for i, w in enumerate(omegas):
        direct = np.sum(amp * np.exp(1j * w * nodes))
        assert abs(out[i] - direct) < 1e-12 * max(1.0, abs(direct))
