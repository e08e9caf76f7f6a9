"""Piecewise-linear functions sampled on uniform grids, in plain Python.

The grid and the interpolation are those of ``numpy.linspace`` and
``numpy.interp``, bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_right

from .errors import FracsmoothError
from .records import record


def linspace(lo: float, hi: float, n: int) -> tuple:
    """n >= 2 uniform nodes from lo to hi: lo + i * step, and hi exactly last."""
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n - 1)) + (hi,)


@record(frozen=True)
class SampledFunction:
    """Real function on [lo, hi], sampled uniformly, linearly interpolated."""

    lo: float
    hi: float
    values: tuple

    def __post_init__(self):
        try:
            vals = tuple(map(float, self.values))
        except (TypeError, ValueError):
            raise FracsmoothError("values must be a flat sequence of numbers") from None
        if len(vals) < 2:
            raise FracsmoothError("need at least two nodes")
        if not all(map(math.isfinite, vals)):
            raise FracsmoothError("values must be finite")
        if not self.lo < self.hi:
            raise FracsmoothError("empty domain")
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def grid(self) -> tuple:
        return linspace(self.lo, self.hi, len(self.values))

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (len(self.values) - 1)

    def __call__(self, x):
        """Interpolated value at x, or a tuple of them for a sequence x.

        Inside [x_j, x_j+1) the value is slope * (x - x_j) + f_j; a node
        returns its own value, and x beyond either end the end value.
        """
        if not hasattr(x, "__iter__"):
            return self._at(float(x))
        return tuple(self._at(float(v)) for v in x)

    def _at(self, x: float) -> float:
        grid, vals = self.grid, self.values
        if math.isnan(x):
            return x
        j = bisect_right(grid, x) - 1
        if j < 0:
            return vals[0]
        if j >= len(grid) - 1:
            return vals[-1]
        if grid[j] == x:
            return vals[j]
        slope = (vals[j + 1] - vals[j]) / (grid[j + 1] - grid[j])
        return slope * (x - grid[j]) + vals[j]

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        lines = ["x,value"]
        lines += [f"{x!r},{v!r}" for x, v in zip(self.grid, self.values)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "SampledFunction":
        rows = [ln for ln in text.strip().splitlines()[1:] if ln]
        try:
            xs, vs = zip(*(map(float, r.split(",")) for r in rows))
        except ValueError:
            raise FracsmoothError("CSV needs a header, then rows of two numbers x,value") from None
        steps = [b - a for a, b in zip(xs, xs[1:])]
        # numpy.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)
        if len(xs) < 2 or not all(abs(s - steps[0]) <= 1e-12 + 1e-9 * abs(steps[0]) for s in steps):
            raise FracsmoothError("CSV grid must be uniform")
        return cls(xs[0], xs[-1], vs)

    def to_json(self) -> str:
        return json.dumps(
            {"lo": self.lo, "hi": self.hi, "values": list(self.values)}, sort_keys=True
        )


def common_grid(fns) -> tuple:
    """Shared uniform grid: intersection domain at the finest step."""
    lo = max(f.lo for f in fns)
    hi = min(f.hi for f in fns)
    if not lo < hi:
        raise FracsmoothError("domains do not overlap")
    step = min(f.step for f in fns)
    n = int(round((hi - lo) / step)) + 1
    return linspace(lo, hi, max(n, 2))
