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

import math

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
    (0, its first start).  One scanner counts each part without building
    its windows:

    * Sweeps merge.  The step p -> next anchor depends on p and delta only,
      so one dict of steps serves every window of the call, and one of first
      points every window start (the dyadic starts of one level recur at the
      next); both are dropped when the call returns.  The point queries go
      through one ``sets.cursor``, so each resumes the Cantor descents of
      the last.  A single interval is swept in closed form (``_sweeper``).
    * Windows that miss the set are skipped: such a window jumps, by index
      arithmetic, to the first window ending at or after the next set point
      p, which starts at or before p, so its sweep needs no point query.
    * A part stops at the most a window can hold.  Each next anchor lies at
      or above nextafter(p + delta), so anchors lie more than delta apart
      and no window of length L holds more than max(1, ceil(L/delta)): the
      first window reaching that cap is the part's maximum and first
      maximiser.  The cap applies where its arithmetic is exact (``_cap``),
      as on every family window; on an interval it stops at the first
      window inside.
    """
    delta = float(delta)
    sweep = _sweeper((types, params, pool), delta)
    return [_swept_part(sweep, _cap(delta, *part), *part) for part in windows.parts]


def _cap(delta, off, length, k_lo, k_hi):
    """max(1, ceil(length / delta)) where length and delta are powers of two
    and the windows lie inside [0, 2] on the grid of length / 2 >= 2^-52,
    whose points are doubles, so that every window is exactly length long;
    inf elsewhere."""
    half = 0.5 * length
    if (math.frexp(length)[0] == math.frexp(delta)[0] == 0.5 and half >= _ULP and (off / half).is_integer()
            and off + k_lo * length >= 0.0 and off + (k_hi + 1) * length <= 2.0):
        return max(1, math.ceil(length / delta))
    return math.inf


def _sweeper(flat, delta):
    """sweep(x, hi, p) -> (greedy count of set /\\ [x, hi], first set point >= x),
    with the step and first-point caches and the one point-query cursor of a
    cover_counts call; a caller that knows the first set point p >= x passes
    it.  On a single interval with delta a multiple of 2^-52 the sweep is
    closed form: every double in [1, 2] is a multiple of 2^-52, so p + delta
    is exact below 2 and nextafter adds 2^-52 (from 2 on the sweep is past
    every set point), and the anchors p + i (delta + 2^-52) are counted.
    """
    types, params, _ = flat
    if len(types) == 1 and types[0] == 0 and 0.0 < delta <= 1.0 and (delta / _ULP).is_integer():
        lo, end = params[0][:2]
        unit = int(delta / _ULP) + 1

        def sweep_interval(x, hi, p=None):
            # the window meets the interval in [p, top], both in [1, 2] when p <= top
            p, top = (max(x, lo) if x <= end else math.inf), min(hi, end)
            return (int((top - p) * 2.0**52) // unit + 1 if p <= top else 0), p

        return sweep_interval
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


def _swept_part(sweep, cap, off, length, k_lo, k_hi) -> tuple:
    best, first = 0, k_lo
    k, known = k_lo, None
    while k <= k_hi:
        x = off + k * length
        count, p = sweep(x, x + length, known)
        known = None
        if count:
            if count > best:
                best, first = count, k
                if count >= cap:
                    break
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
