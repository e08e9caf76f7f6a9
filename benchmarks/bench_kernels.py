#!/usr/bin/env python3
"""Benchmark: cold window-count tables, the wave profile table, data norms
and the direct field quadrature at inner-disc and at far radii.

Each window-count table is one batched covering sweep over every level;
the interval is counted in closed form, the other sets by the greedy sweep
with a shared step cache.  The profile table is one FFT, and the d = 2 data
norm mostly Hankel-term profile lookups.  The d = 3, j = 13 data norm is the
heaviest call of the sharpness slopes; its inner disc r <= 2^(-j+2), 49
radii through ``propagate``, sums the kernel's power series as sigma-moments
instead of evaluating the kernel per radius and node.  Far radii (33 in
[0.45, 0.55] at j = 10, t = 1.5) evaluate the radial kernel on blocks of
radii x nodes through the one Bessel evaluator.  Best of three cold runs
each:

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

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
    spectra._window_maxima_cached.cache_clear()
    spectra._window_maxima_cached(descriptor, j, 2)


def cold_profile_table(d):
    wave._profile_cache.clear()
    wave._profile_table(d, wave.BumpSpec())


def cold_data_norm(d, j, p, t_ref=1.0):
    wave._profile_cache.clear()
    wave._hankel_series.cache_clear()
    wave._kernel_series.cache_clear()
    wave.data_norm(wave.WaveParams(d=d, j=j, t_ref=t_ref), p)


def cold_inner_disc(d, j, t_ref):
    wave._kernel_series.cache_clear()
    params = wave.WaveParams(d=d, j=j, t_ref=t_ref)
    wave.propagate(params, 0.0, np.linspace(0.0, params.min_asymptotic_r, 49))


def cold_far_radii(d, j, t):
    wave._kernel_series.cache_clear()
    wave.propagate(wave.WaveParams(d=d, j=j), t, np.linspace(0.45, 0.55, 33))


def main():
    for label, s in [
        ("interval", sets.FullInterval(1.0, 2.0)),
        ("cantor 2,1/3", sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)),
        ("polyseq a=1", sets.PolySequence(1.0)),
        ("union", sets.UnionSet((sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0),
                                 sets.CantorLike(1.6, 2.0, 3, 0.2)))),
    ]:
        for j in (12, 14):
            t = timeit(cold_window_table, s, j)
            print(f"{f'window table {label} j={j}':<32} {t*1e3:9.2f} ms")
    for d in (2, 3):
        t = timeit(cold_profile_table, d)
        print(f"{f'profile_table d={d}':<32} {t*1e3:9.2f} ms")
    t = timeit(cold_data_norm, 2, 6, 2.0)
    print(f"{'data_norm d=2 j=6 p=2':<32} {t*1e3:9.2f} ms")
    t = timeit(cold_data_norm, 3, 13, 3.0, 1.5)
    print(f"{'data_norm d=3 j=13 p=3':<32} {t*1e3:9.2f} ms")
    t = timeit(cold_inner_disc, 3, 13, 1.5)
    print(f"{'inner disc d=3 j=13, 49 radii':<32} {t*1e3:9.2f} ms")
    for d in (2, 3, 4, 5):
        t = timeit(cold_far_radii, d, 10, 1.5)
        print(f"{f'far radii d={d} j=10, 33 radii':<32} {t*1e3:9.2f} ms")


if __name__ == "__main__":
    main()
