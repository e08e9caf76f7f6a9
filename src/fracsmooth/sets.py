"""Symbolic fractal subsets of [1, 2] and their exact 1-D covering machinery.

Five generators are supported: full intervals, finite point sets, Cantor-type
self-similar sets, polynomially decaying sequences {1} u {1 + n^(-a)}, and
finite unions of these.  All quantitative operations (rendering, greedy
delta-covers, maximal separated subsets) are driven by two exact primitives,
the first set point >= x and the last set point <= x, so covering counts are
never perturbed by an intermediate rasterization.  A sweep asks them on one
``cursor``, whose Cantor queries resume from the branches of the one before;
``first_point_geq`` and ``last_point_leq`` ask once, on a fresh cursor.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from functools import partial

from .errors import InvalidResolutionError, InvalidSetError, OutOfRangeError
from .records import record

_INF = math.inf

# Descent stops once a Cantor branch is narrower than this; the residual
# ambiguity is far below any resolution the package operates at.
_CANTOR_EPS = 1e-14

# Tail points of a polynomial sequence closer to the accumulation point than
# this are treated as a continuum.
_POLY_TAIL_EPS = 1e-12


@record(frozen=True)
class FullInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (1.0 <= self.lo < self.hi <= 2.0):
            raise InvalidSetError(f"interval [{self.lo}, {self.hi}] not inside [1, 2]")


@record(frozen=True)
class FinitePoints:
    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise InvalidSetError("FinitePoints needs at least one point")
        if any(not (1.0 <= p <= 2.0) for p in pts):
            raise InvalidSetError("points must lie in [1, 2]")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InvalidSetError("points must be sorted and distinct")
        object.__setattr__(self, "points", pts)


@record(frozen=True)
class CantorLike:
    lo: float
    hi: float
    branches: int
    contraction: float

    def __post_init__(self):
        if not (1.0 <= self.lo < self.hi <= 2.0):
            raise InvalidSetError(f"base [{self.lo}, {self.hi}] not inside [1, 2]")
        if self.branches < 2:
            raise InvalidSetError("need at least two branches")
        if not (0.0 < self.contraction and self.branches * self.contraction <= 1.0):
            raise InvalidSetError("need 0 < c and m*c <= 1 so children stay disjoint")

    @property
    def similarity_dimension(self) -> float:
        return math.log(self.branches) / math.log(1.0 / self.contraction)


@record(frozen=True)
class PolySequence:
    exponent: float

    def __post_init__(self):
        if not self.exponent > 0.0:
            raise InvalidSetError("exponent must be positive")

    @property
    def minkowski_dimension(self) -> float:
        return 1.0 / (self.exponent + 1.0)


@record(frozen=True)
class UnionSet:
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise InvalidSetError("union of no sets")
        for m in self.members:
            if not isinstance(m, (FullInterval, FinitePoints, CantorLike, PolySequence, UnionSet)):
                raise InvalidSetError(f"not a set descriptor: {m!r}")
        object.__setattr__(self, "members", tuple(self.members))


# ---------------------------------------------------------------------------
# JSON schema: {"type": "cantor" | "polyseq" | "interval" | "points" | "union"}
# ---------------------------------------------------------------------------

def to_json_dict(s) -> dict:
    if isinstance(s, FullInterval):
        return {"type": "interval", "interval": [s.lo, s.hi]}
    if isinstance(s, FinitePoints):
        return {"type": "points", "points": list(s.points)}
    if isinstance(s, CantorLike):
        return {
            "type": "cantor",
            "base_interval": [s.lo, s.hi],
            "branches": s.branches,
            "contraction": s.contraction,
        }
    if isinstance(s, PolySequence):
        return {"type": "polyseq", "exponent": s.exponent}
    if isinstance(s, UnionSet):
        return {"type": "union", "sets": [to_json_dict(m) for m in s.members]}
    raise InvalidSetError(f"not a set descriptor: {s!r}")


def from_json_dict(d: dict):
    try:
        kind = d["type"]
    except (TypeError, KeyError):
        raise InvalidSetError("set JSON must be an object with a 'type' field")
    try:
        if kind == "interval":
            lo, hi = d["interval"]
            return FullInterval(float(lo), float(hi))
        if kind == "points":
            return FinitePoints(tuple(float(p) for p in d["points"]))
        if kind == "cantor":
            lo, hi = d["base_interval"]
            return CantorLike(float(lo), float(hi), int(d["branches"]), float(d["contraction"]))
        if kind == "polyseq":
            return PolySequence(float(d["exponent"]))
        if kind == "union":
            return UnionSet(tuple(from_json_dict(m) for m in d["sets"]))
    except InvalidSetError:
        raise
    except KeyError as exc:
        raise InvalidSetError(f"{kind!r} set needs the field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidSetError(f"malformed {kind!r} set: {exc}") from None
    raise InvalidSetError(f"unknown set type {kind!r}")


def dumps(s) -> str:
    return json.dumps(to_json_dict(s), sort_keys=True)


def loads(text: str | bytes):
    try:
        d = json.loads(text)
    except ValueError as exc:
        raise InvalidSetError(f"set JSON does not parse: {exc}") from None
    return from_json_dict(d)


def load_file(path):
    with open(path, "rb") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# Flattened primitive form: tuples of plain Python numbers, which the point
# queries below index far faster than NumPy arrays.
#
# type codes: 0 interval (lo, hi), 1 cantor (lo, hi, m, c),
#             2 polyseq (a), 3 points (pool offset, count)
# ---------------------------------------------------------------------------

def flatten(s):
    types, params, pool = [], [], []

    def add(node):
        if isinstance(node, FullInterval):
            types.append(0)
            params.append((float(node.lo), float(node.hi), 0.0, 0.0))
        elif isinstance(node, CantorLike):
            types.append(1)
            params.append((float(node.lo), float(node.hi), float(node.branches), float(node.contraction)))
        elif isinstance(node, PolySequence):
            types.append(2)
            params.append((float(node.exponent), 0.0, 0.0, 0.0))
        elif isinstance(node, FinitePoints):
            types.append(3)
            params.append((float(len(pool)), float(len(node.points)), 0.0, 0.0))
            pool.extend(node.points)
        elif isinstance(node, UnionSet):
            for m in node.members:
                add(m)
        else:
            raise InvalidSetError(f"not a set descriptor: {node!r}")

    add(s)
    return tuple(types), tuple(params), tuple(pool)


# ---------------------------------------------------------------------------
# Exact point queries on the flattened form, through resumable cursors.
# ---------------------------------------------------------------------------

def _cantor_first_geq(stack, m, c, x):
    """Smallest point >= x of the Cantor part whose base interval is stack[0].

    ``stack`` holds the branches (lo, hi) of the part's last descent, the
    base first.  The query pops the branches that do not hold x in (lo, hi]
    and descends from the deepest one left, pushing each branch it enters.
    The branches holding x are the ones a descent from the base enters, with
    the bounds of the same arithmetic, so the answer does not depend on the
    queries before it.
    """
    lo, hi = stack[0]
    if x <= lo:
        return lo
    if not x <= hi:
        return _INF
    lo, hi = stack[-1]
    while not lo < x <= hi:
        stack.pop()
        lo, hi = stack[-1]
    while hi - lo > _CANTOR_EPS:
        width = hi - lo
        gap_step = width * (1.0 - c) / (m - 1)
        child_len = width * c
        for k in range(m):
            u = lo + k * gap_step
            # the last child ends at its parent's end: u + child_len can round
            # below it, and the parent's end would drop out of the set
            v = u + child_len if k < m - 1 else hi
            if x <= u:
                return u
            if x <= v:
                break
        lo, hi = u, v
        stack.append((lo, hi))
    return x


def _cantor_last_leq(stack, m, c, x):
    """Largest point <= x of the Cantor part: ``_cantor_first_geq`` mirrored,
    on the branches holding x in [lo, hi)."""
    lo, hi = stack[0]
    if x >= hi:
        return hi
    if not x >= lo:
        return -_INF
    lo, hi = stack[-1]
    while not lo <= x < hi:
        stack.pop()
        lo, hi = stack[-1]
    while hi - lo > _CANTOR_EPS:
        width = hi - lo
        gap_step = width * (1.0 - c) / (m - 1)
        child_len = width * c
        for k in range(m - 1, -1, -1):
            u = lo + k * gap_step
            v = u + child_len if k < m - 1 else hi
            if x >= v:
                return v
            if x >= u:
                break
        lo, hi = u, v
        stack.append((lo, hi))
    return x


def _interval_first_geq(lo, hi, x):
    return lo if x <= lo else (x if x <= hi else _INF)


def _interval_last_leq(lo, hi, x):
    return hi if x >= hi else (x if x >= lo else -_INF)


def _poly_first_geq(a, x):
    if x <= 1.0:
        return 1.0
    if x > 2.0:
        return _INF
    t = x - 1.0
    if t <= _POLY_TAIL_EPS:
        # tail below resolvable scale: treat as continuum
        return x
    n_est = t ** (-1.0 / a)
    if n_est > 2**40:
        return x
    n0 = int(n_est)
    best = _INF
    for n in range(max(1, n0 - 3), n0 + 4):
        p = 1.0 + float(n) ** (-a)
        if p >= x and p < best:
            best = p
    return best


def _poly_last_leq(a, x):
    if x < 1.0:
        return -_INF
    if x >= 2.0:
        return 2.0
    t = x - 1.0
    if t <= _POLY_TAIL_EPS:
        return 1.0
    n_est = t ** (-1.0 / a)
    if n_est > 2**40:
        return x
    n0 = int(n_est)
    best = 1.0
    for n in range(max(1, n0 - 3), n0 + 4):
        p = 1.0 + float(n) ** (-a)
        if p <= x and p > best:
            best = p
    return best


def _points_first_geq(pool, off, end, x):
    idx = bisect_left(pool, x, off, end)
    return pool[idx] if idx < end else _INF


def _points_last_leq(pool, off, end, x):
    idx = bisect_right(pool, x, off, end)
    return pool[idx - 1] if idx > off else -_INF


def cursor(flat) -> tuple:
    """(first_geq, last_leq) on the flattened set ``flat``: x -> the smallest
    set point >= x (+inf when none) and x -> the largest set point <= x
    (-inf when none).

    Each Cantor part keeps the stack of branches of its last descent, which
    both queries share, and resumes from the deepest branch holding x: the
    queries of one sweep share most of their path from the base.  A fresh
    cursor descends from the base.  Every answer is exact and does not depend
    on the queries before it.
    """
    types, params, pool = flat
    parts = []
    for code, p in zip(types, params):
        if code == 0:
            args = (p[0], p[1])
            parts.append((partial(_interval_first_geq, *args), partial(_interval_last_leq, *args)))
        elif code == 1:
            args = ([(p[0], p[1])], int(p[2]), p[3])
            parts.append((partial(_cantor_first_geq, *args), partial(_cantor_last_leq, *args)))
        elif code == 2:
            parts.append((partial(_poly_first_geq, p[0]), partial(_poly_last_leq, p[0])))
        else:
            args = (pool, int(p[0]), int(p[0]) + int(p[1]))
            parts.append((partial(_points_first_geq, *args), partial(_points_last_leq, *args)))
    if len(parts) == 1:
        return parts[0]
    firsts, lasts = zip(*parts)

    def first_geq(x):
        best = _INF
        for query in firsts:
            cand = query(x)
            if cand < best:
                best = cand
        return best

    def last_leq(x):
        best = -_INF
        for query in lasts:
            cand = query(x)
            if cand > best:
                best = cand
        return best

    return first_geq, last_leq


def first_point_geq(flat, x) -> float:
    """Smallest set point >= x, or +inf when none exists: one query on a
    fresh cursor."""
    return cursor(flat)[0](x)


def last_point_leq(flat, x) -> float:
    """Largest set point <= x, or -inf when none exists: one query on a
    fresh cursor."""
    return cursor(flat)[1](x)


def bounds(s) -> tuple:
    flat = flatten(s)
    return first_point_geq(flat, -_INF), last_point_leq(flat, _INF)


# ---------------------------------------------------------------------------
# Rendering, covering numbers, separated subsets.
# ---------------------------------------------------------------------------

@record(frozen=True)
class IntervalList:
    """Sorted disjoint closed intervals covering a set at resolution delta.

    Every interval has length <= delta, starts and ends at set points, and
    consecutive intervals are strictly separated.
    """

    intervals: tuple  # of (lo, hi) pairs
    resolution: float

    def __len__(self):
        return len(self.intervals)


@record(frozen=True)
class Discretization:
    """Maximal separated subset at scale 2^-j (points differ by > 2^-j)."""

    points: tuple
    scale: int

    def __len__(self):
        return len(self.points)


_MAX_TILES = 40_000_000


def _anchors(flat, x, delta, hi=_INF):
    """Greedy anchors in [x, hi]: the first set point >= x, then each first set
    point beyond the last anchor + delta, all queried on one cursor; more
    than _MAX_TILES of them raise."""
    first_geq = cursor(flat)[0]
    p, n = first_geq(x), 0
    while p <= hi and p != _INF:
        n += 1
        if n > _MAX_TILES:
            raise InvalidResolutionError("resolution too fine for this set")
        yield p
        p = first_geq(math.nextafter(p + delta, _INF))


def render(s, delta: float) -> IntervalList:
    """Greedy minimal cover of the set by closed delta-intervals.

    Each emitted interval is trimmed to the span of set points it covers, so
    the result doubles as an exact carrier for covering counts.
    """
    if not (0.0 < delta <= 1.0):
        raise InvalidResolutionError(f"delta must be in (0, 1], got {delta}")
    flat = flatten(s)
    last_leq = cursor(flat)[1]
    tiles = tuple((p, last_leq(p + delta)) for p in _anchors(flat, -_INF, delta))
    return IntervalList(tiles, delta)


def covering_number(s, window, delta: float) -> int:
    """Minimal number of closed delta-intervals covering set /\\ window.

    The greedy sweep anchoring each interval at the leftmost uncovered set
    point is optimal in one dimension.
    """
    if not (0.0 < delta <= 1.0):
        raise InvalidResolutionError(f"delta must be in (0, 1], got {delta}")
    w_lo, w_hi = float(window[0]), float(window[1])
    if w_lo > w_hi:
        raise OutOfRangeError(f"empty window [{w_lo}, {w_hi}]")
    # a nan end fails both comparisons
    if not (0.0 <= w_lo and w_hi <= 3.0):
        raise OutOfRangeError(f"window must lie inside [0, 3], got [{w_lo}, {w_hi}]")
    flat = flatten(s)
    return _greedy_count(flat, w_lo, w_hi, delta)


def _greedy_count(flat, w_lo, w_hi, delta) -> int:
    return sum(1 for _ in _anchors(flat, w_lo, delta, w_hi))


def discretize(s, j: int) -> Discretization:
    """Greedy maximal 2^-j separated subset, chosen left to right."""
    if j < 0:
        raise OutOfRangeError(f"j must be >= 0, got {j}")
    return Discretization(tuple(_anchors(flatten(s), -_INF, 2.0 ** (-j))), j)
