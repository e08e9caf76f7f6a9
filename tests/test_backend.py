"""The array kernels: batched covering counts against the scalar greedy sweep,
and the direct phase sum against a plain NumPy sum."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracsmooth import backend, sets, spectra

from conftest import descriptor_zoo
from oracles import greedy_cover_points


def _scalar_counts(flat, w_lo, w_hi, delta):
    return np.asarray(
        [sets._greedy_count(flat, float(a), float(b), delta) for a, b in zip(w_lo, w_hi)],
        dtype=np.int64,
    )


def _mixed_windows(rng):
    """Unsorted windows of mixed, non-dyadic lengths, some empty or reversed,
    followed by sorted runs of one length each, as the window tables pass them."""
    w_lo = rng.uniform(0.9, 2.05, 300)
    w_hi = w_lo + rng.uniform(-0.01, 0.4, 300)
    w_hi[:20] = 2.0
    w_lo[20:40] = 1.0
    runs = [np.sort(rng.uniform(0.9, 2.0, 100)) for _ in range(3)]
    lengths = (0.003, 0.0625, 1.0 / 3.0)
    w_lo = np.concatenate([w_lo, *runs])
    w_hi = np.concatenate([w_hi, *(r + length for r, length in zip(runs, lengths))])
    return w_lo, w_hi


def test_backend_selected():
    assert backend.BACKEND == "python"


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_cover_counts_parity(descriptor):
    flat = sets.flatten(descriptor)
    w_lo, w_hi = _mixed_windows(np.random.default_rng(3))
    for delta in (1.0, 2.0**-6, 2.0**-11, 1.0 / 3.0):
        got = backend.cover_counts(flat[0], flat[1], flat[2], w_lo, w_hi, delta)
        assert np.array_equal(got, _scalar_counts(flat, w_lo, w_hi, delta))


@pytest.mark.parametrize("j", [6, 10, 14])
@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_window_table_matches_scalar_counts(descriptor, j):
    # every window of every level, counted on its grid, against the scalar sweep
    flat = sets.flatten(descriptor)
    smin, smax = sets.bounds(descriptor)
    delta = 2.0**-j
    expected, maxima, parts = [], [], ()
    for m in range(j + 1):
        length = 2.0**-m
        w_lo = [
            off + k * length
            for off in (0.0, 0.5 * length)
            for k in range(math.floor((smin - off) / length) - 1, math.ceil((smax - off) / length) + 2)
        ]
        level = [sets._greedy_count(flat, a, a + length, delta) for a in w_lo]
        expected += level
        maxima.append(max(level))
        grids = spectra.family_starts(smin, smax, length)
        assert list(grids) == w_lo
        parts += grids.parts
    w_lo, w_hi = backend.Grids(parts), backend.Grids(parts, ends=True)
    assert backend.cover_counts(flat[0], flat[1], flat[2], w_lo, w_hi, delta) == expected
    spectra._window_maxima_cached.cache_clear()
    assert list(spectra._window_maxima_cached(descriptor, j, 2)) == maxima


def test_grids_sequence():
    grids = backend.Grids(((0.0, 0.25, 3, 6), (0.125, 0.25, 4, 5)))
    starts = [0.75, 1.0, 1.25, 1.5, 1.125, 1.375]
    assert len(grids) == 6 and list(grids) == starts
    assert [grids[i] for i in range(-6, 6)] == starts + starts
    assert list(backend.Grids(grids.parts, ends=True)) == [x + 0.25 for x in starts]
    for i in (6, -7):
        with pytest.raises(IndexError):
            grids[i]
    inside = grids.within(1.0, 1.5)
    assert list(inside) == [1.0, 1.25, 1.125]
    flat = sets.flatten(sets.FullInterval(1.0, 2.0))
    with pytest.raises(ValueError):
        backend.cover_counts(flat[0], flat[1], flat[2], grids, grids, 2.0**-4)


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
    got = backend.cover_counts(flat[0], flat[1], flat[2], w_lo, w_hi, delta)
    assert np.array_equal(got, _scalar_counts(flat, w_lo, w_hi, delta))


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
    got = backend.cover_counts(flat[0], flat[1], flat[2], [w_lo], [w_lo + length], delta)
    assert list(got) == [expected]


def test_oscillatory_sum_matches_direct():
    rng = np.random.default_rng(1)
    nodes = rng.uniform(0.5, 2.0, 200)
    amp = rng.normal(size=200)
    omegas = np.array([0.0, 1.7, -42.0])
    out = backend.oscillatory_sum(omegas, nodes, amp)
    for i, w in enumerate(omegas):
        direct = np.sum(amp * np.exp(1j * w * nodes))
        assert abs(out[i] - direct) < 1e-12 * max(1.0, abs(direct))
