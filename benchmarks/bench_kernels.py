#!/usr/bin/env python3
"""Benchmark: process start-up and cold wave processes, a whole sharpness
check at large scales, cold window-count tables, the wave profile table,
data norms, the direct field quadrature at inner-disc and at far radii, and
the perfbench workloads end to end.

Fresh processes are timed first, run one after another: the bare
interpreter (``python -c pass``) and the same without ``site``
(``python -S -c pass``), so that the environment's ``site`` cost is not
read as the package's, a bare ``import numpy`` (the control:
NumPy imported before the package keeps OpenBLAS's default threads),
``import fracsmooth.cli, fracsmooth.harness``, a whole ``set-info`` on
union at j = 12, the same import with ``fracsmooth.wave``, a whole
``wave-sim`` at d = 2, j = 10 and one cold ``data_norm`` at d = 2, j = 6
(the two heaviest jobs of the benchmark's wave-fields workload), each the
median and quartiles of 15 processes.  Then three processes each of
``verify-sharpness`` on cantor at d = 3, p = 2.5, j = 8..18 and j = 8..22,
whose peaks are set by their data norms and window tables, three each of
one ``data_norm`` at d = 3, p = 2.5, j = 6 and j = 22, whose peaks should
differ by little since the norm walks only the radii near the light cone,
and three each of ``verify-duality`` on cantor at j = 20..22 and on union at
j = 22, whose full window tables make them the covering side at large
scales.  A small helper (``python -S``, about 9 MB) starts each one and
reads its peak resident set and its CPU time (user plus system, over all
its threads) from ``wait4``, so that both are the process's own and not
those of this script, whose pages a child started from it would count.
The record says
whether ``PYTHONDONTWRITEBYTECODE`` was set and whether ``src/fracsmooth``
had a ``__pycache__``, since compiling the package from source costs each
process tens of milliseconds.  That cost is then split by module for two
process types, covering (``verify-duality``) and wave (``wave-sim``): each
package module such a process imports gets its lines, the seconds of a
cold ``compile()`` of its source in this process, and its ``-X importtime``
self time in fresh processes that import a copy of the package source
without bytecode, so that every self time includes compiling the module.
A line that a change deletes then shows up as compile time saved.

Each window-count table is one batched covering sweep over every level,
in plain Python, at j = 12, 14 and 18 (about 2^(j+2) windows, never built),
keeping one count maximum per grid: one walk over each grid with a shared
step cache (closed-form steps on the interval) skips the windows missing
the set and stops at the first window holding max(1, L/delta) points, the
most a window of length L can hold.  The full tables of cantor and union
are also built at j = 22, and those of cantor, polyseq and union at j = 13
to level 8 only, the levels from which the sharpness slopes choose their
window at that scale.  The cantor, polyseq and union jobs of the benchmark's slope-sweep workload (d = 3, j = 8..13)
then run in this process with their window tables cold, their data norms
and profile table warm from an untimed first run: the covering side of a
slope job.  The distinct data norms of all four slope-sweep jobs (25 at
j = 8..13) then run with their cache cleared and the table warm: the wave
side of a slope job that the shells do not share.  Each profile table F_0 .. F_K of
d = 2, 3 and 4 is built cold: an a-priori bound on its error, from the
derivative norms of its integrand, checked against its budget, then one FFT
of a fixed length.  The bounds of d = 2's seven tables are also timed alone,
their derivative norms cold.
The d = 2 data norm is mostly Hankel-term profile lookups.  The d = 3,
j = 13 data norm is the heaviest call of the sharpness slopes; its inner
disc r <= 2^(-j+2), 49 radii through ``propagate`` at t = 0, sums the
kernel's power series as sigma-moments by one trapezoid rule in sigma, on
nodes sized to the frequency 2^j t_ref instead of evaluating the kernel per
radius and node, and bounds that rule's aliasing error in advance from the
derivative norms of bump(sigma) sigma^(d-1).  The d = 3, j = 18 data norm
walks about 1.4M radii in blocks.  The same disc at the focus t = t_ref
(d = 2, j = 10) has the fewest nodes.  Far radii (33 in [0.45, 0.55] at
j = 10, t = 1.5) evaluate the radial kernel on blocks of radii x nodes
through the one Bessel evaluator, under the same one rule and bound.  The
inner-disc and far-radius cases run with the kernel series and the
derivative norms cold.  One window of the sharpness slopes (512 shells of 17 radii, d = 3, j = 13) is one
``field_row_fast`` lookup over the (times x radii) grid and one
``shell_lp_norm`` reduction; its profile table is built before the timing,
so the case times the lookups.  Three cold runs each (the data norms with
their cache cleared); the best is printed.  One more cold run of each,
untimed, under ``tracemalloc`` gives the case's own ``traced_peak_mb``,
the peak of what Python and NumPy allocate during the call; the process's
``ru_maxrss``, recorded too as ``peak_rss_mb``, never falls, so after the
largest case it says nothing about the later ones.

Then each workload of ``BENCHMARK.json`` runs through ``perfbench/run.py``
in its own process at the seeds PERFBENCH_SEEDS and ``--seconds 32``, and
once more with ``--trace 1``: the record keeps each end-to-end metric's
median, quartiles and spread over the seeds, and the traced run's per-layer
metrics.  These take about fifteen minutes on 2 cores.  Then the tier-1
suite runs once, and the record keeps its wall time, its outcome counts and
its seconds per test file from ``--durations=0``.

This script imports the package before NumPy, so the in-process cases run
with the BLAS threads that the package's NumPy loader chooses, as every
fracsmooth process does.

Every case goes into one JSON record with its sizes and all its samples,
beside the context: nproc, the git revision, the Python and NumPy versions
and the bytecode state.  Each case and each workload metric is printed
beside the same one of the newest ``BENCH_*.json`` committed at the
repository root, with the ratio of the two.  Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py --out BENCH_<n>.json

``--small`` runs each in-process case once at small sizes, each process
twice, ``verify-sharpness`` at j = 8..12, the data norm at j = 6 and
``verify-duality`` at j = 10..12 and 12, each module process twice, and
neither perfbench runs nor the tier-1 suite, to check the script and its
record quickly.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# the package before NumPy, so that its loader sets the BLAS threads of the
# in-process cases as it does in every fracsmooth process
from fracsmooth import harness, sets, spectra, wave

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

STARTUP = [
    ("interpreter", ["-c", "pass"]),
    # without site, which this environment's .pth files make the larger part
    ("interpreter -S", ["-S", "-c", "pass"]),
    # the control: NumPy imported first keeps OpenBLAS's default threads
    ("import numpy", ["-c", "import numpy"]),
    ("import cli+harness", ["-c", "import fracsmooth.cli, fracsmooth.harness"]),
    ("set-info union j=12", ["-m", "fracsmooth", "set-info", "--set", "perfbench/sets/union.json", "--j", "12"]),
    ("import cli+harness+wave", ["-c", "import fracsmooth.cli, fracsmooth.harness, fracsmooth.wave"]),
    ("wave-sim d=2 j=10", ["-m", "fracsmooth", "wave-sim", "--d", "2", "--j", "10", "--times", "1.45,1.62,1.38"]),
    # as the benchmark's library job runs it: the CLI and harness imported first
    ("data_norm d=2 j=6", ["-c", "import fracsmooth.cli, fracsmooth.harness; from fracsmooth import wave; "
                                 "wave.data_norm(wave.WaveParams(d=2, j=6), 2.0)"]),
]

# one data norm alone in a fresh process, at scale j
DATA_NORM = "from fracsmooth import wave; wave.data_norm(wave.WaveParams(d=3, j={j}), 2.5)"

# whole commands at large scales, each timed like STARTUP but in its own
# number of runs: (label, argv, runs), and their --small stand-ins (j = 8..11
# would fail the check: four scales fit a slope 0.24 below the prediction)
LARGE = [
    ("verify-sharpness cantor d=3 p=2.5 j=8..18",
     ["-m", "fracsmooth", "verify-sharpness", "--set", "perfbench/sets/cantor.json", "--d", "3", "--p", "2.5",
      "--jmin", "8", "--jmax", "18"], 3),
    ("verify-sharpness cantor d=3 p=2.5 j=8..22",
     ["-m", "fracsmooth", "verify-sharpness", "--set", "perfbench/sets/cantor.json", "--d", "3", "--p", "2.5",
      "--jmin", "8", "--jmax", "22"], 3),
    *[(f"data_norm d=3 j={j} p=2.5", ["-c", DATA_NORM.format(j=j)], 3) for j in (6, 22)],
    ("verify-duality cantor j=20..22",
     ["-m", "fracsmooth", "verify-duality", "--set", "perfbench/sets/cantor.json", "--jmin", "20", "--jmax", "22"], 3),
    ("verify-duality union j=22",
     ["-m", "fracsmooth", "verify-duality", "--set", "perfbench/sets/union.json", "--jmin", "22", "--jmax", "22"], 3),
]
LARGE_SMALL = [
    ("verify-sharpness cantor d=3 p=2.5 j=8..12",
     ["-m", "fracsmooth", "verify-sharpness", "--set", "perfbench/sets/cantor.json", "--d", "3", "--p", "2.5",
      "--jmin", "8", "--jmax", "12"], 2),
    ("data_norm d=3 j=6 p=2.5", ["-c", DATA_NORM.format(j=6)], 2),
    ("verify-duality cantor j=10..12",
     ["-m", "fracsmooth", "verify-duality", "--set", "perfbench/sets/cantor.json", "--jmin", "10", "--jmax", "12"], 2),
    ("verify-duality union j=12",
     ["-m", "fracsmooth", "verify-duality", "--set", "perfbench/sets/union.json", "--jmin", "12", "--jmax", "12"], 2),
]

# one process per process type whose package modules are compiled and
# imported module by module: (type, argv)
MODULE_PROCESSES = [
    ("covering", ["-m", "fracsmooth", "verify-duality", "--set", "perfbench/sets/cantor.json", "--jmin", "10",
                  "--jmax", "12"]),
    ("wave", ["-m", "fracsmooth", "wave-sim", "--d", "2", "--j", "10", "--times", "1.45,1.62,1.38"]),
]

# perfbench runs per workload: these seeds at --seconds PERFBENCH_SECONDS
# with --trace 0, then one run with --trace 1 at the first seed
PERFBENCH_SEEDS = (1, 2, 3)
PERFBENCH_SECONDS = 32

# Starts argv[1:] with its output discarded, waits for it with wait4 and
# prints its wall seconds, peak resident set in kB and CPU seconds (user plus
# system, over all its threads); a nonzero exit status fails the helper.
HELPER = (
    "import os, sys, time\n"
    "null = os.open(os.devnull, os.O_WRONLY)\n"
    "t0 = time.perf_counter()\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, null, 1)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(time.perf_counter() - t0, usage.ru_maxrss, usage.ru_utime + usage.ru_stime)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n"
)

# the covering-heavy jobs of the benchmark's slope-sweep workload: (set, p),
# and all four of its jobs
SLOPE_JOBS = [("cantor", 2.5), ("polyseq", 3.0), ("union", 2.5)]
SLOPE_SWEEP = [("interval", 4.0), *SLOPE_JOBS]

SETS = [
    ("interval", sets.FullInterval(1.0, 2.0)),
    ("cantor 2,1/3", sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)),
    ("polyseq a=1", sets.PolySequence(1.0)),
    ("union", sets.UnionSet((sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0),
                             sets.CantorLike(1.6, 2.0, 3, 0.2)))),
]

# full window tables at the largest scale built in process: (set label, j);
# --small builds them at j = 10
LARGE_TABLES = [("cantor 2,1/3", 22), ("union", 22)]


def samples(fn, *args, repeat=3):
    """Wall seconds of ``repeat`` calls of fn(*args)."""
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        out.append(time.perf_counter() - t0)
    return out


def summary(seconds):
    """min, quartiles and median of a list of samples."""
    q1, med, q3 = statistics.quantiles(seconds, n=4, method="inclusive") if len(seconds) > 1 else seconds * 3
    return {"min_s": min(seconds), "q1_s": q1, "median_s": med, "q3_s": q3, "samples_s": seconds}


def src_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def startup_runs(commands, runs):
    """(wall seconds, peak RSS in MB, CPU seconds) of ``runs`` fresh
    processes per (name, argv) command, each started by HELPER, the commands
    taken in turn so that drift spreads over all of them."""
    env = src_env()
    seconds = {name: [] for name, _ in commands}
    rss = {name: [] for name, _ in commands}
    cpu = {name: [] for name, _ in commands}
    for _ in range(runs):
        for name, argv in commands:
            proc = subprocess.run([sys.executable, "-S", "-c", HELPER, sys.executable, *argv], cwd=ROOT, env=env,
                                  check=True, capture_output=True, text=True)
            wall, maxrss_kb, cpu_s = proc.stdout.split()
            seconds[name].append(float(wall))
            rss[name].append(int(maxrss_kb) / 1024.0)
            cpu[name].append(float(cpu_s))
    return seconds, rss, cpu


def import_self_times(argv, runs):
    """{module: self seconds per run} of the package modules that ``runs``
    fresh processes running argv import, read from ``-X importtime``.  Each
    imports a copy of ``src/fracsmooth`` without ``__pycache__`` and writes
    no bytecode, so each self time includes compiling the module."""
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src" / "fracsmooth", Path(tmp) / "fracsmooth",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        for _ in range(runs):
            proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=ROOT, env=env, check=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            for self_us, name in re.findall(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(fracsmooth\S*)$",
                                            proc.stderr, re.M):
                times.setdefault(name, []).append(int(self_us) * 1e-6)
    return times


def module_costs(process, argv, runs):
    """One process type's record: for each package module its processes
    import, in import order, its lines, its cold ``compile()`` seconds and
    its ``-X importtime`` self seconds, each the median of ``runs``."""
    modules = []
    for name, self_s in import_self_times(argv, runs).items():
        path = ROOT / "src" / Path(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        source = path.read_text()
        compile_s = samples(compile, source, str(path), "exec", repeat=runs)
        modules.append({"module": name, "lines": len(source.splitlines()),
                        "compile_s": statistics.median(compile_s), "compile_samples_s": compile_s,
                        "import_self_s": statistics.median(self_s), "import_self_samples_s": self_s})
    return {"process": process, "argv": argv, "runs": runs, "modules": modules}


def module_lines(entry, old):
    """Printed lines of one process type: each module's compile and self
    time beside the same module of ``old`` (or None), then their sums."""
    def rows(e):
        total = {key: sum(m[key] for m in e["modules"]) for key in ("lines", "compile_s", "import_self_s")}
        return {**{m["module"]: m for m in e["modules"]}, "total": total}

    def text(m):
        return f"compile {m['compile_s']*1e3:7.2f} ms self {m['import_self_s']*1e3:7.2f} ms {m['lines']:5d} lines"

    old_rows = rows(old) if old else {}
    lines = []
    for name, m in rows(entry).items():
        line = f"{'module ' + entry['process'] + ' ' + name:<50} {text(m)}"
        lines.append(line + (f" | {text(old_rows[name])}" if name in old_rows else "   (not in the committed record)"))
    return lines


def traced_peak_mb(fn, *args):
    """Peak of the memory that Python and NumPy allocate during one call of
    fn(*args), in MB, as ``tracemalloc`` counts it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cold_window_table(descriptor, j, top):
    spectra._window_tables.clear()
    spectra._window_table(descriptor, j, top)


def family_windows(descriptor, top):
    """Number of family windows a table counts at levels 0..top."""
    lo, hi = sets.bounds(descriptor)
    return sum(len(spectra.family_starts(lo, hi, 2.0 ** (-m))) for m in range(top + 1))


def slope_jobs(configs):
    """The sharpness slopes of ``configs`` with every window table cold; the
    profile table and the data norms stay warm from an earlier run."""
    spectra._window_tables.clear()
    for config in configs:
        harness.run_sharpness_slope(config)


def slope_data_norms(configs):
    """(params, p) of each distinct data norm that the sharpness slopes of
    ``configs`` take, in their order, read from ``wave.data_norm``'s calls."""
    seen = []
    real = wave.data_norm
    wave.data_norm = lambda params, p: seen.append((params, p)) or real(params, p)
    try:
        for config in configs:
            harness.run_sharpness_slope(config)
    finally:
        wave.data_norm = real
    return list(dict.fromkeys(seen))


def warm_data_norms(norms):
    """Every data norm of ``norms`` with the norm cache cleared and the
    profile table warm."""
    wave.data_norm.cache_clear()
    for params, p in norms:
        wave.data_norm(params, p)


def cold_profile_table(d, m):
    wave._profile_table.cache_clear()
    wave._derivative_norms.cache_clear()
    return wave._profile_table(d, m)


def cold_tail_bounds(powers):
    """The two bounds each table build checks, at y_max - step and at 3 y_max,
    with the derivative norms cold."""
    wave._derivative_norms.cache_clear()
    y_max = 0.25 * wave._PROFILE_FFT * wave._PROFILE_STEP
    for power in powers:
        wave._tail_bound(power, y_max - wave._PROFILE_STEP)
        wave._tail_bound(power, 3.0 * y_max)


def cold_data_norm(d, j, p, t_ref=1.0):
    wave.data_norm.cache_clear()
    wave._profile_table.cache_clear()
    wave._derivative_norms.cache_clear()
    wave._hankel_series.cache_clear()
    wave._kernel_series.cache_clear()
    wave.data_norm(wave.WaveParams(d=d, j=j, t_ref=t_ref), p)


def cold_inner_disc(d, j, t_ref, t=0.0):
    wave._kernel_series.cache_clear()
    wave._derivative_norms.cache_clear()
    params = wave.WaveParams(d=d, j=j, t_ref=t_ref)
    wave.propagate(params, t, np.linspace(0.0, params.min_asymptotic_r, 49))


def cold_far_radii(d, j, t):
    wave._kernel_series.cache_clear()
    wave._derivative_norms.cache_clear()
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


def kernel_cases(small):
    """(label, sizes, function, args) of each in-process case, profile tables
    first; each is set up only when reached (the shell grid loads
    numpy.random), so no later case's set-up counts in an earlier peak RSS."""
    for d in (3,) if small else (2, 3, 4):
        for m in range(1 if small else len(wave._hankel_series(0.5 * (d - 2))[0]) + 1):
            yield (f"profile_table d={d} F_{m}", {"d": d, "m": m, "fft": wave._PROFILE_FFT},
                   cold_profile_table, (d, m))
    powers = [0.5 - m for m in range(len(wave._hankel_series(0.0)[0]) + 1)]
    yield (f"tail bound d=2 F_0..F_{len(powers) - 1}",
           {"d": 2, "powers": len(powers), "order": wave._BOUND_ORDER, "nodes": wave._BOUND_NODES},
           cold_tail_bounds, (powers,))
    for label, s in SETS:
        for j in (8,) if small else (12, 14, 18):
            yield (f"window table {label} j={j}", {"set": label, "j": j, "windows": family_windows(s, j)},
                   cold_window_table, (s, j, j))
    for label, j in LARGE_TABLES:
        s, j = dict(SETS)[label], 10 if small else j
        yield (f"window table {label} j={j}", {"set": label, "j": j, "windows": family_windows(s, j)},
               cold_window_table, (s, j, j))
    j, top = (8, 3) if small else (13, 8)
    for label, s in SETS[1:]:
        yield (f"window table {label} j={j} top={top}",
               {"set": label, "j": j, "top": top, "windows": family_windows(s, top)},
               cold_window_table, (s, j, top))
    j_max = 11 if small else 13
    configs = [harness.ExperimentConfig(sets.load_file(ROOT / "perfbench" / "sets" / f"{name}.json"), d=3, p=p,
                                        j_min=8, j_max=j_max) for name, p in SLOPE_JOBS]
    slope_jobs(configs)
    yield (f"slope jobs cantor+polyseq+union j=8..{j_max}, warm", {"d": 3, "j": [8, j_max], "jobs": len(configs)},
           slope_jobs, (configs,))
    sweep = slope_data_norms([harness.ExperimentConfig(sets.load_file(ROOT / "perfbench" / "sets" / f"{name}.json"),
                                                       d=3, p=p, j_min=8, j_max=j_max) for name, p in SLOPE_SWEEP])
    yield (f"slope data norms d=3 j=8..{j_max}, warm table", {"d": 3, "j": [8, j_max], "norms": len(sweep)},
           warm_data_norms, (sweep,))
    norms = [(2, 6, 2.0, 1.0)] + ([] if small else [(3, 13, 3.0, 1.5), (3, 18, 2.5, 1.0)])
    for d, j, p, t_ref in norms:
        yield (f"data_norm d={d} j={j} p={p:g}", {"d": d, "j": j, "p": p, "t_ref": t_ref},
               cold_data_norm, (d, j, p, t_ref))
    j, n = (10, 8) if small else (13, 512)
    params = wave.WaveParams(d=3, j=j, t_ref=1.0)
    times, grid = shell_grid(params, n)
    yield (f"window d=3 j={j}, {n} shells", {"d": 3, "j": j, "shells": n, "radii": grid.shape[1], "p": 2.5},
           window_shells, (params, times, grid, 2.5))
    for d, j, t_ref, t in [(3, 8 if small else 13, 1.5, 0.0), (2, 10, 1.0, 1.0)]:
        label = f"inner disc d={d} j={j}" + (" at focus" if t == t_ref else ", 49 radii")
        yield (label, {"d": d, "j": j, "t_ref": t_ref, "t": t, "radii": 49},
               cold_inner_disc, (d, j, t_ref, t))
    for d in (3,) if small else (2, 3, 4, 5):
        yield (f"far radii d={d} j=10, 33 radii", {"d": d, "j": 10, "t": 1.5, "radii": 33},
               cold_far_radii, (d, 10, 1.5))


def context():
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src", "benchmarks")
    return {
        "revision": git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "pycache": (ROOT / "src" / "fracsmooth" / "__pycache__").is_dir(),
    }


def newest_committed():
    """(name, record) of the committed BENCH_<n>.json with the largest n, or
    (None, None) when there is none."""
    proc = subprocess.run(["git", "ls-tree", "--name-only", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    names = [n for n in proc.stdout.split() if n.startswith("BENCH_") and n.endswith(".json") and n[6:-5].isdigit()]
    if not names:
        return None, None
    name = max(names, key=lambda n: int(n[6:-5]))
    text = subprocess.run(["git", "show", f"HEAD:{name}"], cwd=ROOT, capture_output=True, text=True).stdout
    return name, json.loads(text)


def fresh_process(case):
    return case["name"].startswith(("startup ", "process "))


def case_key(case):
    """(seconds, memory in MB) printed for a case: the median and the peak
    RSS of fresh processes, the best and the traced peak of in-process runs."""
    if fresh_process(case):
        return case["median_s"], case.get("peak_rss_mb")
    return case["min_s"], case.get("traced_peak_mb")


def cpu_text(case):
    """A fresh process's median CPU time, blank for in-process cases and for
    records older than BENCH_23.json."""
    cpu = case.get("cpu_median_s")
    return " " * 16 if cpu is None else f" cpu {cpu*1e3:8.2f} ms"


def compare_line(case, old):
    """One printed line: the case beside the same case of ``old`` (or None)."""
    seconds, mem = case_key(case)
    line = f"{case['name']:<50} {seconds*1e3:10.2f} ms {mem:7.1f} MB{cpu_text(case)}"
    if old is None:
        return line + "   (not in the committed record)"
    old_seconds, old_mem = case_key(old)
    # older records have no peak RSS for their fresh processes and no traced
    # peak for their in-process cases
    old_mem_text = " " * 10 if old_mem is None else f"{old_mem:7.1f} MB"
    line += f" | {old_seconds*1e3:10.2f} ms {old_mem_text}{cpu_text(old)} | x{seconds / old_seconds:.2f}"
    if old_mem is not None:
        line += f", {mem - old_mem:+.1f} MB"
    if "cpu_median_s" in case and "cpu_median_s" in old:
        line += f", cpu x{case['cpu_median_s'] / old['cpu_median_s']:.2f}"
    return line


def perfbench_run(workload, seed, trace):
    """The record that ``perfbench/run.py`` writes for one run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace), "--out", str(out)],
                       cwd=ROOT, check=True, capture_output=True, text=True)
        return json.loads(out.read_text())


def perfbench_summary(workload, runs, traced):
    """One workload's record: each end-to-end metric's median, quartiles and
    spread (quartile distance over median) over the untraced ``runs``, and
    the per-layer metrics of the ``traced`` run."""
    metrics = {}
    for name in runs[0]["end_to_end"]:
        values = [run["end_to_end"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": runs[0]["end_to_end"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "samples": values}
    return {"workload": workload, "seeds": [run["environment"]["seed"] for run in runs],
            "seconds": PERFBENCH_SECONDS, "end_to_end": metrics,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()}}


def perfbench_lines(entry, old):
    """Printed lines of one workload: each metric's median and spread beside
    the same workload of ``old`` (or None)."""
    lines = []
    for name, m in entry["end_to_end"].items():
        line = f"perfbench {entry['workload']} {name:<12} {m['median']:10.4g} {m['unit']:<5} ±{m['spread']:.3f}"
        if old is not None:
            o = old["end_to_end"][name]
            line += f" | {o['median']:10.4g} {o['unit']:<5} ±{o['spread']:.3f}"
        lines.append(line)
    return lines


def tier1_run():
    """One run of the tier-1 suite, as ROADMAP.md gives it, with per-test
    durations: its wall seconds, exit code, outcome counts and seconds per
    test file."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "--durations=0", "--durations-min=0"], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - t0, "exit_code": proc.returncode, **tier1_summary(proc.stdout)}


def tier1_summary(text):
    """Outcome counts from pytest's last line, and the seconds per test file
    summed over the setup, call and teardown lines of ``--durations=0``,
    slowest file first."""
    files = {}
    for line in text.splitlines():
        m = re.match(r"([0-9.]+)s (?:setup|call|teardown) +([^:\s]+)::", line)
        if m:
            files[m[2]] = files.get(m[2], 0.0) + float(m[1])
    last = text.strip().splitlines()[-1] if text.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed)", last)}
    return {"counts": counts, "files_s": dict(sorted(files.items(), key=lambda kv: -kv[1]))}


def tier1_line(entry, old):
    """The printed line of the tier-1 run beside that of ``old`` (or None)."""
    def text(run):
        return f"{run['wall_s']:10.2f} s  " + ", ".join(f"{n} {kind}" for kind, n in run["counts"].items())

    line = f"{'tier-1 suite':<50} {text(entry)}"
    if old is None:
        return line + "   (not in the committed record)"
    return line + f" | {text(old)} | x{entry['wall_s'] / old['wall_s']:.2f}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the JSON record here")
    ap.add_argument("--small", action="store_true", help="small sizes, one sample per case, two runs per process")
    args = ap.parse_args(argv)
    runs = 2 if args.small else 15
    record = {"context": context(), "cases": [], "modules": [], "perfbench": []}
    old_name, old_record = newest_committed()
    old_cases = {c["name"]: c for c in old_record["cases"]} if old_record else {}
    print(f"{'case':<50}{'this run':>42} | {old_name or 'no committed BENCH_*.json':>39} | ratio, RSS change")

    groups = [("startup", STARTUP, runs)]
    groups += [("process", [(name, cmd)], n) for name, cmd, n in (LARGE_SMALL if args.small else LARGE)]
    for prefix, commands, n in groups:
        timings, peaks, cpu = startup_runs(commands, n)
        for name, cmd in commands:
            case = {"name": f"{prefix} {name}", "sizes": {"argv": cmd, "runs": n}, **summary(timings[name]),
                    "peak_rss_mb": statistics.median(peaks[name]), "peak_rss_samples_mb": peaks[name],
                    "cpu_median_s": statistics.median(cpu[name]), "cpu_samples_s": cpu[name]}
            record["cases"].append(case)
            print(compare_line(case, old_cases.get(case["name"])))
    old_modules = {m["process"]: m for m in (old_record or {}).get("modules", [])}
    for process, argv in MODULE_PROCESSES:
        entry = module_costs(process, argv, runs)
        record["modules"].append(entry)
        for line in module_lines(entry, old_modules.get(process)):
            print(line)
    for label, sizes, fn, fn_args in kernel_cases(args.small):
        seconds = samples(fn, *fn_args, repeat=1 if args.small else 3)
        if fn is cold_profile_table:
            sizes["entries"] = len(wave._profile_table(*fn_args)[1])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        case = {"name": label, "sizes": sizes, **summary(seconds), "peak_rss_mb": rss,
                "traced_peak_mb": traced_peak_mb(fn, *fn_args)}
        record["cases"].append(case)
        print(compare_line(case, old_cases.get(label)))
    old_perfbench = {w["workload"]: w for w in (old_record or {}).get("perfbench", [])}
    for workload in () if args.small else json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        runs_e2e = [perfbench_run(name, seed, 0) for seed in PERFBENCH_SEEDS]
        traced = perfbench_run(name, PERFBENCH_SEEDS[0], 1)
        entry = perfbench_summary(name, runs_e2e, traced)
        record["perfbench"].append(entry)
        for line in perfbench_lines(entry, old_perfbench.get(name)):
            print(line)
    # never under --small, which the suite itself runs
    record["tier1"] = None if args.small else tier1_run()
    if record["tier1"]:
        print(tier1_line(record["tier1"], (old_record or {}).get("tier1")))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return record


if __name__ == "__main__":
    main()
