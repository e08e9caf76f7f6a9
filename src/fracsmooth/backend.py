"""The covering kernel: the maxima of greedy covering counts over grids of
windows, in plain Python.

Importing this module loads no NumPy.  ``j0_array``, ``j1_array`` and
``oscillatory_sum`` are the array functions of the earlier NumPy backend,
kept under their names: the first two call the one Bessel evaluator in
``bessel``, and the direct phase sum, which the package no longer calls,
is the tests' independent oracle for the FFT-built wave profile table.
Each imports NumPy only when called.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter

from .records import record
from .sets import cursor

# the benchmark records this name in each run's environment
BACKEND = "python"

# spacing of the doubles in [1, 2)
_ULP = 2.0**-52


@record(frozen=True)
class Grids:
    """Windows of one length per grid, never built.

    Part (off, length, k_lo, k_hi) holds the windows [x, x + length] with
    x = off + k * length, k = k_lo..k_hi; the parts follow one another.
    """

    parts: tuple

    def __len__(self):
        return sum(k_hi - k_lo + 1 for _, _, k_lo, k_hi in self.parts)


def cover_counts(types, params, pool, windows, delta) -> list:
    """(count maximum, start of the first window attaining it) for each part
    of ``windows``, a ``Grids``: the greedy covering counts of set /\\ window
    over the part's windows, in order of k, reduced as they are counted.

    Every count is the one ``sets._greedy_count`` returns: anchor at the
    first set point p >= x, then at first_point_geq(nextafter(p + delta))
    while p <= x + length.  A part whose windows all miss the set gives
    (0, its first start).  The grids are counted part by part, without
    building them, on two invariants:

    * Exact steps in [1, 2].  Every double there is a multiple of 2^-52, so
      when delta is too, p + delta is exact below 2 and nextafter adds
      2^-52 (from 2 on the sweep is past every set point).  On a single
      interval the sweep therefore visits p0 + i (delta + 2^-52), which is
      counted in integers instead of stepped through; and every window of
      a part that lies inside the interval has the same count, so only the
      first of that run and the few windows across its ends are counted.
    * Sweeps merge.  The step p -> next anchor depends on p and delta only,
      not on the window, and sweeps from different window starts land on the
      same anchor after every gap wider than delta.  One dict of steps serves
      every window of the call, and one of first points every window start
      (the dyadic starts of one level recur at the next); both are dropped
      when the call returns.  Within a part, a window that holds no set
      point skips, by index arithmetic, to the first window ending at or
      after the next set point p, so only windows that meet the set run a
      sweep.  That window starts at or before p, so its sweep starts at p
      with no point query.  The point queries left go through one
      ``sets.cursor``, so each resumes the Cantor descents of the last.
    """
    delta = float(delta)
    if len(types) == 1 and types[0] == 0 and 0.0 < delta <= 1.0 and (delta / _ULP).is_integer():
        interval = (params[0][0], params[0][1], int(delta / _ULP) + 1)
        count_part = functools.partial(_interval_part, interval)
    else:
        count_part = functools.partial(_swept_part, _sweeper((types, params, pool), delta))
    return [count_part(*part) for part in windows.parts]


def _interval_count(lo, hi, unit, a, b) -> int:
    """Closed form of the greedy count of [lo, hi] /\\ [a, b] inside [1, 2].

    The window meets the interval in [p0, top]; both ends lie in [1, 2] when
    p0 <= top, so top - p0 is an exact multiple of 2^-52.
    """
    p0, top = max(a, lo), min(b, hi)
    return int((top - p0) * 2.0**52) // unit + 1 if p0 <= top else 0


def _interval_part(interval, off, length, k_lo, k_hi) -> tuple:
    lo, hi = interval[:2]
    ks = range(k_lo, k_hi + 1)
    if (length / _ULP).is_integer():
        # windows k_in..k_out-1 lie inside the interval, and (x + length) - x
        # is exactly length for every such x: they share one count, so the
        # first of them stands for the run
        k_in = bisect_left(ks, lo, key=lambda k: off + k * length)
        k_out = bisect_right(ks, hi, key=lambda k: off + k * length + length)
        ks = chain(ks[:k_in + 1], ks[max(k_in + 1, k_out):])
    starts = (off + k * length for k in ks)
    return max(((_interval_count(*interval, x, x + length), x) for x in starts), key=itemgetter(0))


def _sweeper(flat, delta):
    """sweep(x, hi, p) -> (greedy count of set /\\ [x, hi], first set point >= x),
    with the step and first-point caches and the one point-query cursor of a
    cover_counts call; a caller that knows the first set point p >= x passes
    it."""
    step, first = {}, {}
    first_geq = cursor(flat)[0]

    def sweep(x, hi, p=None):
        if p is None:
            p = first.get(x)
        if p is None:
            p = first[x] = first_geq(x)
        q, count = p, 0
        while q <= hi:
            count += 1
            nxt = step.get(q)
            if nxt is None:
                nxt = step[q] = first_geq(math.nextafter(q + delta, math.inf))
            q = nxt
        return count, p

    return sweep


def _swept_part(sweep, off, length, k_lo, k_hi) -> tuple:
    best, first = 0, k_lo
    k, known = k_lo, None
    while k <= k_hi:
        x = off + k * length
        count, p = sweep(x, x + length, known)
        known = None
        if count:
            if count > best:
                best, first = count, k
            k += 1
        elif p == math.inf or k == k_hi:
            break
        else:
            # windows of this part that end before p hold no set point: go to
            # the first that does not, from an estimate corrected both ways
            k_next = max(k + 1, math.ceil((p - off) / length) - 1)
            while k_next > k + 1 and off + (k_next - 1) * length + length >= p:
                k_next -= 1
            while k_next <= k_hi and off + k_next * length + length < p:
                k_next += 1
            k = k_next
            # that window starts in (x, p], where p is still the first set point
            if off + k * length <= p:
                known = p
    return best, off + first * length


def j0_array(u):
    """Bessel J0 on a float array; series for u <= 12, Hankel expansion beyond."""
    from .bessel import j_array

    return j_array(0.0, u)


def j1_array(u):
    """Bessel J1 on a float array."""
    from .bessel import j_array

    return j_array(1.0, u)


def oscillatory_sum(omegas, nodes, amp):
    """sum_k amp[k] * exp(i * omega * nodes[k]) for each omega.

    ``amp`` already contains quadrature weights and all smooth factors.
    """
    from ._numpy import np

    omegas = np.asarray(omegas, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.float64)
    amp = np.asarray(amp, dtype=np.float64)
    out = np.empty(len(omegas), dtype=np.complex128)
    block = max(1, int(4_000_000 // max(1, len(nodes))))
    for start in range(0, len(omegas), block):
        ph = np.multiply.outer(omegas[start:start + block], nodes)
        out[start:start + block] = np.cos(ph) @ amp + 1j * (np.sin(ph) @ amp)
    return out
