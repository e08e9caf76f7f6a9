import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth import sets
from fracsmooth.errors import InvalidResolutionError, InvalidSetError, OutOfRangeError

from conftest import descriptor_zoo
from oracles import cantor_first_geq, cantor_last_leq, greedy_cover_points, poly_points


# ---------------------------------------------------------------------------
# descriptor validation and JSON round trips
# ---------------------------------------------------------------------------

def test_descriptor_validation():
    with pytest.raises(InvalidSetError):
        sets.FullInterval(0.5, 1.5)
    with pytest.raises(InvalidSetError):
        sets.CantorLike(1.0, 2.0, 2, 0.6)  # m*c > 1
    with pytest.raises(InvalidSetError):
        sets.CantorLike(1.0, 2.0, 1, 0.3)
    with pytest.raises(InvalidSetError):
        sets.PolySequence(0.0)
    with pytest.raises(InvalidSetError):
        sets.FinitePoints(())
    with pytest.raises(InvalidSetError):
        sets.FinitePoints((1.5, 1.2))
    with pytest.raises(InvalidSetError):
        sets.UnionSet(())


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_json_round_trip(descriptor):
    text = sets.dumps(descriptor)
    assert sets.loads(text) == descriptor
    payload = json.loads(text)
    assert payload["type"] in {"cantor", "polyseq", "interval", "points", "union"}


def test_json_rejects_garbage():
    with pytest.raises(InvalidSetError):
        sets.loads('{"type": "nope"}')
    with pytest.raises(InvalidSetError):
        sets.from_json_dict([1, 2])


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_render_full_interval_tiles(full_interval):
    iv = sets.render(full_interval, 1.0 / 8.0)
    # tiles no longer than the resolution, and strictly separated
    assert all(hi - lo <= iv.resolution for lo, hi in iv.intervals)
    assert all(a[1] < b[0] for a, b in zip(iv.intervals, iv.intervals[1:]))
    assert len(iv) == 8
    arr = np.asarray(iv.intervals)
    assert np.all(arr[:, 1] - arr[:, 0] <= 1.0 / 8.0 + 1e-15)
    # union of tiles covers [1, 2] up to strict float gaps
    assert arr[0, 0] == 1.0
    assert arr[-1, 1] == 2.0
    gaps = arr[1:, 0] - arr[:-1, 1]
    assert np.all(gaps > 0)
    assert np.all(gaps < 1e-12)


def test_render_cantor_level_two(cantor_thirds):
    iv = sets.render(cantor_thirds, 3.0**-2)
    assert len(iv) == 4
    expected = np.array([[1.0, 1 + 1 / 9], [1 + 2 / 9, 1 + 3 / 9], [1 + 6 / 9, 1 + 7 / 9], [1 + 8 / 9, 2.0]])
    assert np.allclose(iv.intervals, expected, atol=1e-12)


def test_render_polyseq_structure(poly_one):
    # gap scan oracle: first n with 1/n - 1/(n+1) < 2^-6 is 8
    delta = 2.0**-6
    n_star = 1
    while not (1.0 / n_star - 1.0 / (n_star + 1) < delta):
        n_star += 1
    assert n_star == 8
    iv = sets.render(poly_one, delta)
    # tiles no longer than the resolution, and strictly separated
    assert all(hi - lo <= iv.resolution for lo, hi in iv.intervals)
    assert all(a[1] < b[0] for a, b in zip(iv.intervals, iv.intervals[1:]))
    arr = np.asarray(iv.intervals)
    # isolated points 1 + 1/n for n < n_star appear as degenerate tiles
    for n in range(1, n_star):
        hits = np.where(np.abs(arr[:, 0] - (1.0 + 1.0 / n)) < 1e-12)[0]
        assert len(hits) == 1
        lo, hi = arr[hits[0]]
        assert hi - lo < 1e-12
    # the accumulation tail is covered by tiles no longer than delta
    tail = arr[arr[:, 0] < 1.0 + 1.0 / n_star]
    assert len(tail) >= 2
    assert np.all(tail[:, 1] - tail[:, 0] <= delta + 1e-15)


@pytest.mark.parametrize("descriptor", descriptor_zoo())
@pytest.mark.parametrize("delta", [1.0 / 8.0, 2.0**-6, 2.0**-9])
def test_render_invariants(descriptor, delta):
    iv = sets.render(descriptor, delta)
    # tiles no longer than the resolution, and strictly separated
    assert all(hi - lo <= iv.resolution for lo, hi in iv.intervals)
    assert all(a[1] < b[0] for a, b in zip(iv.intervals, iv.intervals[1:]))
    flat = sets.flatten(descriptor)
    arr = np.asarray(iv.intervals)
    # every tile starts and ends at set points
    for lo, hi in arr[:: max(1, len(arr) // 16)]:
        assert sets.first_point_geq(flat, lo) == lo
        assert sets.last_point_leq(flat, hi) == hi
    # tiles cover the set: no set point lies strictly between consecutive tiles
    for i in range(len(arr) - 1):
        gap_next = sets.first_point_geq(flat, math.nextafter(arr[i, 1], math.inf))
        assert gap_next >= arr[i + 1, 0] - 1e-15


def test_render_rejects_bad_delta(full_interval):
    with pytest.raises(InvalidResolutionError):
        sets.render(full_interval, 0.0)
    with pytest.raises(InvalidResolutionError):
        sets.render(full_interval, -0.25)


# ---------------------------------------------------------------------------
# covering_number
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", [3, 6, 10])
def test_covering_full_interval_exact(full_interval, j):
    assert sets.covering_number(full_interval, (1.0, 2.0), 2.0**-j) == 2**j


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_covering_cantor_exact(cantor_thirds, k):
    assert sets.covering_number(cantor_thirds, (1.0, 2.0), 3.0**-k) == 2**k


def test_covering_polyseq_oracle(poly_one):
    # frozen from the explicit-point-list greedy cover at delta = 2^-10
    delta = 2.0**-10
    oracle = greedy_cover_points(poly_points(1.0, 200_000), 1.0, 2.0, delta)
    assert oracle == 59
    assert sets.covering_number(poly_one, (1.0, 2.0), delta) == oracle


def test_covering_empty_window(cantor_thirds):
    assert sets.covering_number(cantor_thirds, (1.4, 1.6), 2.0**-8) == 0
    assert sets.covering_number(cantor_thirds, (0.0, 0.9), 2.0**-8) == 0


def test_covering_window_validation(full_interval):
    with pytest.raises(OutOfRangeError):
        sets.covering_number(full_interval, (2.0, 1.0), 0.1)
    with pytest.raises(OutOfRangeError):
        sets.covering_number(full_interval, (-0.5, 1.0), 0.1)
    # nan ends, which compare false with every bound, and infinite ends
    for window in ((math.nan, 2.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 2.0)):
        with pytest.raises(OutOfRangeError):
            sets.covering_number(full_interval, window, 0.1)
    with pytest.raises(InvalidResolutionError):
        sets.covering_number(full_interval, (1.0, 2.0), 0.0)


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_covering_monotonicity(descriptor):
    # non-increasing in delta, non-decreasing under window enlargement
    for window in [(1.0, 2.0), (1.2, 1.8)]:
        counts = [sets.covering_number(descriptor, window, d) for d in (2.0**-4, 2.0**-6, 2.0**-8)]
        assert counts[0] <= counts[1] <= counts[2]
    inner = sets.covering_number(descriptor, (1.25, 1.75), 2.0**-7)
    outer = sets.covering_number(descriptor, (1.0, 2.0), 2.0**-7)
    assert inner <= outer


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_covering_subadditivity(descriptor):
    delta = 2.0**-7
    whole = sets.covering_number(descriptor, (1.0, 2.0), delta)
    left = sets.covering_number(descriptor, (1.0, 1.5), delta)
    right = sets.covering_number(descriptor, (1.5, 2.0), delta)
    assert whole <= left + right + 1


def test_union_rule():
    a = sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0)
    b = sets.PolySequence(2.0)
    u = sets.UnionSet((a, b))
    delta = 2.0**-8
    na = sets.covering_number(a, (1.0, 2.0), delta)
    nb = sets.covering_number(b, (1.0, 2.0), delta)
    nu = sets.covering_number(u, (1.0, 2.0), delta)
    assert max(na, nb) <= nu <= na + nb


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def test_discretize_finite_points():
    d = sets.discretize(sets.FinitePoints((1.0, 1.5)), 4)
    assert np.allclose(d.points, [1.0, 1.5])
    assert d.scale == 4


def test_greedy_sweeps_share_the_tile_budget(monkeypatch):
    # render, discretize and the covering counts stop at the same budget
    monkeypatch.setattr(sets, "_MAX_TILES", 4)
    points = sets.FinitePoints((1.0, 1.25, 1.5, 1.75))
    assert len(sets.discretize(points, 4)) == 4 and len(sets.render(points, 0.125)) == 4
    assert sets.covering_number(points, (1.0, 2.0), 0.125) == 4
    more = sets.FinitePoints((1.0, 1.25, 1.5, 1.75, 2.0))
    for sweep in (lambda: sets.discretize(more, 4), lambda: sets.render(more, 0.125),
                  lambda: sets.covering_number(more, (1.0, 2.0), 0.125)):
        with pytest.raises(InvalidResolutionError):
            sweep()
    assert sets.covering_number(more, (1.0, 1.9), 0.125) == 4


@pytest.mark.parametrize("j", [4, 7, 10])
def test_discretize_full_interval_cardinality(full_interval, j):
    n = len(sets.discretize(full_interval, j))
    assert 2 ** (j - 1) <= n <= 2**j + 1


@pytest.mark.parametrize("j", [6, 10, 14])
def test_discretize_comparable_to_covering(cantor_thirds, j):
    n_sep = len(sets.discretize(cantor_thirds, j))
    n_cov = sets.covering_number(cantor_thirds, (1.0, 2.0), 2.0**-j)
    assert 0.25 <= n_sep / n_cov <= 4.0


@pytest.mark.parametrize("descriptor", descriptor_zoo())
def test_discretize_invariants(descriptor):
    j = 9
    d = sets.discretize(descriptor, j)
    pts = np.asarray(d.points)
    sep = 2.0**-j
    diffs = np.diff(pts)
    assert np.all(diffs > sep)
    # maximality: every set point is within sep of a chosen point
    flat = sets.flatten(descriptor)
    probes = np.linspace(1.0, 2.0, 101)
    for x in probes:
        p = sets.first_point_geq(flat, x)
        if p == math.inf:
            continue
        assert np.min(np.abs(pts - p)) <= sep + 1e-15


def test_separated_vs_cover_comparability(cantor_thirds):
    # |E_j /\ I| <= N(E /\ I', 2^-j) <= 3 |E_j /\ I''| for margin-adjusted windows
    j = 10
    sep = 2.0**-j
    window = (1.2, 1.7)
    pts = np.asarray(sets.discretize(cantor_thirds, j).points)
    inside = np.sum((pts >= window[0]) & (pts <= window[1]))
    enlarged = sets.covering_number(cantor_thirds, (window[0] - sep, window[1] + sep), sep)
    assert inside <= enlarged
    shrunk = np.sum((pts >= window[0] - sep) & (pts <= window[1] + sep))
    cover = sets.covering_number(cantor_thirds, window, sep)
    assert cover <= 3 * max(shrunk, 1)


def test_cantor_right_end_is_a_set_point():
    # u + child_len of the last child rounds below the parent's end here
    s = sets.CantorLike(1.0, 1.8440445353154278, 2, 0.234375)
    flat = sets.flatten(s)
    assert sets.first_point_geq(flat, s.hi) == s.hi
    assert sets.last_point_leq(flat, math.inf) == s.hi
    assert sets.covering_number(s, (s.hi, 2.0), 2.0**-10) == 1


# ---------------------------------------------------------------------------
# resumable point queries against the descent from the base interval
# ---------------------------------------------------------------------------

@st.composite
def _cantor_parts(draw):
    m = draw(st.integers(2, 5))
    c = draw(st.just(1.0 / m) | st.floats(1e-3, 1.0 / m))
    lo = draw(st.floats(1.0, 1.9))
    return sets.CantorLike(lo, draw(st.floats(lo + 0.01, 2.0)), m, c)


@settings(max_examples=150, deadline=None)
@given(st.lists(_cantor_parts(), min_size=1, max_size=2), st.lists(st.floats(0.95, 2.05), min_size=1, max_size=25),
       st.data())
def test_cursor_matches_root_descent(parts, seeds, data):
    # one cursor answers sorted, reversed and shuffled probe sequences of
    # branch ends, gap points and their neighbours, each query alone and the
    # two alternating on the branches they share
    args = [(s.lo, s.hi, s.branches, s.contraction) for s in parts]

    def first(x):
        return min(cantor_first_geq(*a, x) for a in args)

    def last(x):
        return max(cantor_last_leq(*a, x) for a in args)

    probes = []
    for x in seeds:
        u, v = first(x), last(x)
        ends = [y for y in (u, v) if math.isfinite(y)]
        for y in [x, *ends] + ([0.5 * (u + v)] if len(ends) == 2 else []):
            probes += [math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf)]
    shuffled = data.draw(st.permutations(probes))
    descriptor = parts[0] if len(parts) == 1 else sets.UnionSet(tuple(parts))
    first_geq, last_leq = sets.cursor(sets.flatten(descriptor))
    for sequence in (sorted(probes), sorted(probes, reverse=True), shuffled):
        assert [first_geq(x) for x in sequence] == [first(x) for x in sequence]
        assert [last_leq(x) for x in sequence] == [last(x) for x in sequence]
    for i, x in enumerate(shuffled):
        assert (first_geq, last_leq)[i % 2](x) == (first, last)[i % 2](x)
