#!/usr/bin/env python3
"""Benchmark: cold window-count tables, the wave profile table, data norms
and the direct field quadrature at inner-disc and at far radii.

Each window-count table is one batched covering sweep over every level,
in plain Python, at j = 12, 14 and 18 (about 2^(j+2) windows, never built):
the interval is counted in closed form, one count for every window inside
it, and the other sets by a walk over each grid with a shared step cache
that skips the windows missing the set.  Each profile table F_0 .. F_K of
d = 2, 3 and 4 is built cold, one FFT of a fixed length checked against
its error budget; the case prints each table's entry count and the peak
RSS after the builds, and runs first, so that no later case sets that peak.
The d = 2 data norm is mostly Hankel-term profile lookups.  The d = 3,
j = 13 data norm is the heaviest call of the sharpness slopes; its inner
disc r <= 2^(-j+2), 49 radii through ``propagate`` at t = 0, sums the
kernel's power series as sigma-moments by the trapezoid rule in sigma, on
nodes sized to the frequency 2^j t_ref instead of evaluating the kernel per
radius and node.  The same disc at the focus t = t_ref (d = 2, j = 10) has
the fewest nodes.  Far radii (33 in [0.45, 0.55] at j = 10, t = 1.5)
evaluate the radial kernel on blocks of radii x nodes through the one
Bessel evaluator.  One window of the sharpness slopes (512 shells of 17 radii, d = 3, j = 13) is one
``field_row_fast`` lookup over the (times x radii) grid and one
``shell_lp_norm`` reduction; its profile table is built before the timing,
so the case times the lookups.  Best of three cold runs each (the data
norms with their cache cleared):

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import resource
import time

import numpy as np

from fracsmooth import sets, spectra, wave


def timeit(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def cold_window_table(descriptor, j):
    spectra._window_table.cache_clear()
    spectra._window_table(descriptor, j)


def cold_profile_table(d, m):
    wave._profile_table.cache_clear()
    return wave._profile_table(d, m)


def cold_data_norm(d, j, p, t_ref=1.0):
    wave.data_norm.cache_clear()
    wave._profile_table.cache_clear()
    wave._hankel_series.cache_clear()
    wave._kernel_series.cache_clear()
    wave.data_norm(wave.WaveParams(d=d, j=j, t_ref=t_ref), p)


def cold_inner_disc(d, j, t_ref, t=0.0):
    wave._kernel_series.cache_clear()
    params = wave.WaveParams(d=d, j=j, t_ref=t_ref)
    wave.propagate(params, t, np.linspace(0.0, params.min_asymptotic_r, 49))


def cold_far_radii(d, j, t):
    wave._kernel_series.cache_clear()
    wave.propagate(wave.WaveParams(d=d, j=j), t, np.linspace(0.45, 0.55, 33))


def shell_grid(params, n):
    """n sorted times in [1.25, 1.5] and, for each, 17 radii across its shell."""
    times = np.sort(np.random.default_rng(0).uniform(1.25, 1.5, n))
    rho = times - params.t_ref
    half = 2.0 ** (-params.j - 5)
    return times, np.linspace(rho - half, rho + half, 17, axis=1)


def window_shells(params, times, grid, p):
    rows = wave.field_row_fast(params, times, grid)
    wave.shell_lp_norm(rows, p, (grid[:, 0], grid[:, -1]))


def main():
    for d in (2, 3, 4):
        for m in range(len(wave._hankel_series(0.5 * (d - 2))[0]) + 1):
            t = timeit(cold_profile_table, d, m)
            entries = len(cold_profile_table(d, m)[1])
            print(f"{f'profile_table d={d} F_{m}':<32} {t*1e3:9.2f} ms  {entries} entries")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak RSS after the tables':<32} {rss:9.2f} MB")
    for label, s in [
        ("interval", sets.FullInterval(1.0, 2.0)),
        ("cantor 2,1/3", sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)),
        ("polyseq a=1", sets.PolySequence(1.0)),
        ("union", sets.UnionSet((sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0),
                                 sets.CantorLike(1.6, 2.0, 3, 0.2)))),
    ]:
        for j in (12, 14, 18):
            t = timeit(cold_window_table, s, j)
            print(f"{f'window table {label} j={j}':<32} {t*1e3:9.2f} ms")
    t = timeit(cold_data_norm, 2, 6, 2.0)
    print(f"{'data_norm d=2 j=6 p=2':<32} {t*1e3:9.2f} ms")
    t = timeit(cold_data_norm, 3, 13, 3.0, 1.5)
    print(f"{'data_norm d=3 j=13 p=3':<32} {t*1e3:9.2f} ms")
    params = wave.WaveParams(d=3, j=13, t_ref=1.0)
    times, grid = shell_grid(params, 512)
    wave._profile_table(params.d)
    t = timeit(window_shells, params, times, grid, 2.5)
    print(f"{'window d=3 j=13, 512 shells':<32} {t*1e3:9.2f} ms")
    t = timeit(cold_inner_disc, 3, 13, 1.5)
    print(f"{'inner disc d=3 j=13, 49 radii':<32} {t*1e3:9.2f} ms")
    t = timeit(cold_inner_disc, 2, 10, 1.0, 1.0)
    print(f"{'inner disc d=2 j=10 at focus':<32} {t*1e3:9.2f} ms")
    for d in (2, 3, 4, 5):
        t = timeit(cold_far_radii, d, 10, 1.5)
        print(f"{f'far radii d={d} j=10, 33 radii':<32} {t*1e3:9.2f} ms")


if __name__ == "__main__":
    main()
