"""The kernel bench script calls package internals by name; each case must
still run, so that a signature change fails here instead of in the script."""

import importlib.util
import math
from pathlib import Path

import pytest

from fracsmooth import sets, wave

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_cases_run(bench):
    params = wave.WaveParams(d=3, j=10)
    times, grid = bench.shell_grid(params, 8)
    assert grid.shape == (8, 17)
    cases = [
        (bench.cold_window_table, sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0), 8),
        (bench.cold_profile_table, 3, 0),
        (bench.cold_data_norm, 2, 6, 2.0),
        (bench.cold_inner_disc, 3, 8, 1.5),
        (bench.cold_far_radii, 3, 10, 1.5),
        (bench.window_shells, params, times, grid, 2.5),
    ]
    for fn, *args in cases:
        t = bench.timeit(fn, *args, repeat=1)
        assert math.isfinite(t) and t >= 0.0, fn.__name__
    assert len(bench.cold_profile_table(3, 0)[1]) == 32769
