#!/usr/bin/env python3
"""Benchmark: compiled extension vs pure NumPy kernels.

Also times a cold build of the wave profile table, which has a single NumPy
(FFT) path, next to the direct phase sum it replaced, and a cold d = 2 data
norm, whose Bessel remainder is mostly Hankel-term profile lookups.  Run
after building the extension in place:

    python setup.py build_ext --inplace
    python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from fracsmooth import _pykernels, sets, wave

try:
    from fracsmooth import _ckernels
except ImportError:
    _ckernels = None


def timeit(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench(name, args, repeat=3):
    t_py = timeit(getattr(_pykernels, name), *args, repeat=repeat)
    if _ckernels is None:
        print(f"{name:<18} python {t_py*1e3:9.2f} ms   (extension not built)")
        return
    t_c = timeit(getattr(_ckernels, name), *args, repeat=repeat)
    print(f"{name:<18} python {t_py*1e3:9.2f} ms   compiled {t_c*1e3:9.2f} ms   speedup {t_py/t_c:5.1f}x")


def cold_profile_table(d):
    wave._profile_cache.clear()
    wave._profile_table(d, wave.BumpSpec())


def cold_data_norm(d, j, p):
    wave._profile_cache.clear()
    wave._hankel_series.cache_clear()
    wave.data_norm(wave.WaveParams(d=d, j=j, t_ref=1.0), p)


def main():
    rng = np.random.default_rng(0)

    u = rng.uniform(0.0, 1000.0, 1_000_000)
    bench("j0_array", (u,))
    bench("j1_array", (u,))

    omegas = rng.uniform(-512.0, 512.0, 4096)
    nodes = rng.uniform(0.5, 2.0, 4096)
    amp = rng.normal(size=4096)
    bench("oscillatory_sum", (omegas, nodes, amp))
    for d in (2, 3):
        t = timeit(cold_profile_table, d)
        print(f"{f'profile_table d={d}':<18} numpy  {t*1e3:9.2f} ms   (cold build)")
    t = timeit(cold_data_norm, 2, 6, 2.0)
    print(f"{'data_norm d=2 j=6':<18} numpy  {t*1e3:9.2f} ms   (cold tables, p=2)")

    j = 12
    delta = 2.0**-j
    for label, s in [
        ("full interval", sets.FullInterval(1.0, 2.0)),
        ("cantor 2,1/3", sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)),
        ("poly a=1", sets.PolySequence(1.0)),
    ]:
        flat = sets.flatten(s)
        lows = []
        for m in range(j + 1):
            length = 2.0**-m
            ks = np.arange(0, int(np.ceil(2.0 / length)) + 1)
            lows.append(ks * length)
            lows.append(ks * length + 0.5 * length)
        w_lo = np.concatenate(lows)
        w_hi_all = []
        idx = 0
        for m in range(j + 1):
            length = 2.0**-m
            n = len(np.arange(0, int(np.ceil(2.0 / length)) + 1))
            w_hi_all.append(w_lo[idx:idx + 2 * n] + length)
            idx += 2 * n
        w_hi = np.concatenate(w_hi_all)
        print(f"-- cover_counts, {label}, {len(w_lo)} windows, j={j}")
        bench("cover_counts", (flat[0], flat[1], flat[2], w_lo, w_hi, delta), repeat=2)


if __name__ == "__main__":
    main()
