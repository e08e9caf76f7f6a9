"""Piecewise-linear functions sampled on uniform grids."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FracsmoothError


@dataclass(frozen=True)
class SampledFunction:
    """Real function on [lo, hi], sampled uniformly, linearly interpolated."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) < 2:
            raise FracsmoothError("need at least two nodes")
        if not np.all(np.isfinite(vals)):
            raise FracsmoothError("values must be finite")
        if not self.lo < self.hi:
            raise FracsmoothError("empty domain")
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, len(self.values))

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (len(self.values) - 1)

    def __call__(self, x):
        return np.interp(x, self.grid, self.values)

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        lines = ["x,value"]
        lines += [f"{float(x)!r},{float(v)!r}" for x, v in zip(self.grid, self.values)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "SampledFunction":
        rows = [ln for ln in text.strip().splitlines()[1:] if ln]
        try:
            xs, vs = zip(*(map(float, r.split(",")) for r in rows))
        except ValueError:
            raise FracsmoothError("CSV needs a header, then rows of two numbers x,value") from None
        xs = np.asarray(xs)
        steps = np.diff(xs)
        if len(xs) < 2 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise FracsmoothError("CSV grid must be uniform")
        return cls(xs[0], xs[-1], np.asarray(vs))

    def to_json(self) -> str:
        return json.dumps(
            {"lo": self.lo, "hi": self.hi, "values": list(self.values)}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "SampledFunction":
        d = json.loads(text)
        return cls(d["lo"], d["hi"], np.asarray(d["values"]))


def common_grid(fns) -> np.ndarray:
    """Shared uniform grid: intersection domain at the finest step."""
    lo = max(f.lo for f in fns)
    hi = min(f.hi for f in fns)
    if not lo < hi:
        raise FracsmoothError("domains do not overlap")
    step = min(f.step for f in fns)
    n = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, max(n, 2))
