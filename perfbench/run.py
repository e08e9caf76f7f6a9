#!/usr/bin/env python3
"""fracsmooth benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload spectral-sweep --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each job starts only after the previous one ends.  A round runs
the workload's whole fixed job list; rounds repeat while the job time
measured so far plus the longest round stays within ``--seconds`` (there is
always one round).  Outputs are checked after the last round, outside the
timed section.  When a run has only one round, one job is run once more
after it, untimed, so that every run compares a rerun's stdout.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every job runs with spans around the package's public
functions and the last line carries the per-layer metrics.  ``--out PATH``
also writes the full record: environment, sizes, per-job times and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from child import TRACE_MARK  # noqa: E402

IMPORT_ONLY = "import fracsmooth.cli, fracsmooth.harness"
SETUP_PERIOD_S = 4.0  # one import timing per this much of the run, in the gaps between jobs
SETUP_MIN = 12  # import timings per run at least
RUN_LIMIT_S = 170.0  # every invocation ends within three minutes
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FRACSMOOTH_BACKEND")

# slowest_job_s is computed and recorded but not gated: one job of a few
# seconds swung by a quarter between runs on a 2-core machine.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("proc.import_s", "s"), ("proc.cpu_s", "s"), ("proc.cpu_util", "ratio"),
    ("cli.self_s", "s"),
    ("backend.cover_counts.calls", "count"), ("backend.cover_counts.windows", "count"),
    ("backend.cover_counts.greedy_steps", "count"), ("backend.cover_counts.self_s", "s"),
    ("backend.cover_counts.steps_per_s", "1/s"),
    ("backend.oscillatory_sum.calls", "count"), ("backend.oscillatory_sum.terms", "count"),
    ("backend.oscillatory_sum.self_s", "s"), ("backend.oscillatory_sum.terms_per_s", "1/s"),
    ("backend.bessel_arrays.elements", "count"), ("backend.bessel_arrays.self_s", "s"),
    ("sets.covering_number.calls", "count"), ("sets.covering_number.greedy_steps", "count"),
    ("sets.covering_number.self_s", "s"),
    ("sets.discretize.calls", "count"), ("sets.discretize.points", "count"),
    ("sets.discretize.self_s", "s"),
    ("spectra.phi_at_scale.calls", "count"), ("spectra.window_tables.built", "count"),
    ("spectra.window_tables.hit_ratio", "ratio"), ("spectra.self_s", "s"),
    ("harness.choose_window.self_s", "s"), ("harness.choose_window.covering_calls", "count"),
    ("harness.run_duality.self_s", "s"), ("harness.run_sharpness_slope.self_s", "s"),
    ("legendre.self_s", "s"), ("exponents.self_s", "s"),
    ("wave.main_terms_grid.calls", "count"), ("wave.main_terms_grid.radii", "count"),
    ("wave.main_terms_grid.self_s", "s"),
    ("wave.propagate.calls", "count"), ("wave.propagate.radii", "count"),
    ("wave.propagate.self_s", "s"), ("wave.propagate.err_rel_max", "rel"),
    ("wave.data_norm.calls", "count"), ("wave.data_norm.self_s", "s"),
    ("wave.shell_lp_norm.self_s", "s"),
    ("bessel.radial_kernel.calls", "count"), ("bessel.radial_kernel.elements", "count"),
    ("bessel.radial_kernel.self_s", "s"),
    ("bessel.bessel_remainder.calls", "count"), ("bessel.bessel_remainder.elements", "count"),
    ("bessel.bessel_remainder.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.spans", "count"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, timeout: float) -> dict:
    """Run one process to the end; its wall time and rusage come from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out = {}
    readers = [threading.Thread(target=lambda k=k, s=s: out.__setitem__(k, s.read()))
               for k, s in (("stdout", proc.stdout), ("stderr", proc.stderr))]
    for r in readers:
        r.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall_s": wall,
        "rc": proc.returncode,
        "stdout": out["stdout"].decode("utf-8", "replace"),
        "stderr": out["stderr"].decode("utf-8", "replace"),
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def time_imports(n: int, deadline: float) -> list:
    """Wall times of n fresh interpreters that import the CLI and the harness."""
    times = []
    for _ in range(n):
        res = spawn([sys.executable, "-c", IMPORT_ONLY], deadline - time.perf_counter())
        if res["rc"] != 0:
            raise RuntimeError(f"cannot import fracsmooth from {SRC}: {res['stderr'].strip()}")
        times.append(res["wall_s"])
    return times


def sample_setup(setup: list, t0: float, deadline: float) -> None:
    """Take the import timings that are due by now: one per SETUP_PERIOD_S
    since t0.  Called in every gap between processes, so the samples for
    setup_s are spread over the whole run rather than one moment of it."""
    due = 1 + int((time.perf_counter() - t0) / SETUP_PERIOD_S)
    setup.extend(time_imports(max(0, due - len(setup)), deadline))


def run_proc(proc, trace: bool, deadline: float) -> dict:
    spec = {"trace": trace}
    if proc.is_cli:
        spec["cli"] = proc.jobs[0].argv
    else:
        spec["jobs"] = [job.call for job in proc.jobs]
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    res = spawn(cmd, max(1.0, deadline - time.perf_counter()))
    last_err = res["stderr"].rstrip("\n").rsplit("\n", 1)[-1]
    res["trace"] = json.loads(last_err[len(TRACE_MARK):]) if trace and last_err.startswith(TRACE_MARK) else None
    if proc.is_cli:
        res["jobs"] = [{"id": proc.jobs[0].id, "seconds": res["wall_s"], "stdout": res["stdout"]}]
    elif res["rc"] == 0:
        res["jobs"] = json.loads(res["stdout"].rstrip("\n").rsplit("\n", 1)[-1])["jobs"]
        if len(proc.jobs) == 1:
            res["jobs"][0]["seconds"] = res["wall_s"]
    else:
        res["jobs"] = []
    return res


def run_round(procs, trace: bool, deadline: float, setup: list, t0: float) -> dict:
    """Run every process once, with import timings in the gaps between
    processes, outside the job timings."""
    results, jobs_s = [], 0.0
    for proc in procs:
        sample_setup(setup, t0, deadline)
        start = time.perf_counter()
        results.append(run_proc(proc, trace, deadline))
        jobs_s += time.perf_counter() - start
    sample_setup(setup, t0, deadline)
    return {"span_s": jobs_s, "procs": results}


def rerun_cheapest(procs, rnd, deadline: float):
    """Run the job that was quickest in rnd once more in a fresh process,
    untimed, so that its stdout can be compared with the timed run's."""
    seconds = {j["id"]: j["seconds"] for res in rnd["procs"] for j in res["jobs"]}
    job = min((job for proc in procs for job in proc.jobs),
              key=lambda job: seconds.get(job.id, float("inf")))
    proc = workloads.Proc([job])
    return proc, run_proc(proc, False, deadline)


def check_outputs(ran) -> list:
    """Every job of every (process, result) pair in ran against its check,
    its exit code and its first output in this invocation.  Returns one
    record per attempted job."""
    first_stdout, records = {}, []
    for proc, res in ran:
        done = {j["id"]: j for j in res["jobs"]}
        for job in proc.jobs:
            rec = {"id": job.id, "error": None}
            got = done.get(job.id)
            if res["rc"] != 0 or got is None:
                tail = res["stderr"].strip().splitlines()[-1:] or [""]
                rec["error"] = f"exit code {res['rc']}: {tail[0]}"
            else:
                prior = first_stdout.setdefault(job.id, got["stdout"])
                if got["stdout"] != prior:
                    rec["error"] = "stdout differs from the first run of this job"
                else:
                    try:
                        rec["error"] = job.check(job, got["stdout"])
                    except (ValueError, KeyError, IndexError, TypeError, RuntimeError) as exc:
                        rec["error"] = f"unreadable output: {exc!r}"
            records.append(rec)
    return records


def summarize(values) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n > 10:
        k = n - 10
        out["percentile"] = round(100.0 * k / n, 3)
        out["percentile_value"] = values[k - 1]
    return out


def round_times(rnd) -> dict:
    procs = rnd["procs"]
    return {
        "wall_s": sum(r["wall_s"] for r in procs),
        "slowest_job_s": max((j["seconds"] for r in procs for j in r["jobs"]), default=0.0),
        "maxrss_mb": max(r["maxrss_mb"] for r in procs),
        "cpu_s": sum(r["cpu_s"] for r in procs),
    }


def layer_metrics(rnd) -> dict:
    """Per-layer metrics of one traced round."""
    agg = {}
    for res in rnd["procs"]:
        for job in ((res["trace"] or {}).get("jobs") or {}).values():
            for name, rec in job.items():
                dst = agg.setdefault(name, {"parents": {}})
                for key, value in rec.items():
                    if key == "parents":
                        for pname, n in value.items():
                            dst["parents"][pname] = dst["parents"].get(pname, 0) + n
                    elif key.endswith("_max"):
                        dst[key] = max(dst.get(key, 0.0), value)
                    else:
                        dst[key] = dst.get(key, 0) + value

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum(rec.get("self_s", 0.0) for name, rec in agg.items() if name.startswith(layer + "."))

    def rate(n, s):
        return n / s if s > 0 else 0.0

    times = round_times(rnd)
    wall, cpu = times["wall_s"], times["cpu_s"]
    imports = [res["trace"]["import_s"] for res in rnd["procs"] if res["trace"]]
    table_fns = ("spectra.phi_at_scale", "spectra.assouad_spectrum_empirical",
                 "spectra.window_count_maxima")
    lookups = sum(get(n, "calls") for n in table_fns)
    built = sum(get(n, "tables_built") for n in table_fns)
    m = {
        "proc.import_s": statistics.median(imports) if imports else 0.0,
        "proc.cpu_s": cpu,
        "proc.cpu_util": cpu / wall,
        "cli.self_s": layer_self("cli"),
        "spectra.phi_at_scale.calls": get("spectra.phi_at_scale", "calls"),
        "spectra.window_tables.built": built,
        "spectra.window_tables.hit_ratio": 1.0 - built / lookups if lookups else 0.0,
        "spectra.self_s": layer_self("spectra"),
        "harness.choose_window.covering_calls":
            agg.get("sets.covering_number", {}).get("parents", {}).get("harness.choose_window", 0),
        "legendre.self_s": layer_self("legendre"),
        "exponents.self_s": layer_self("exponents"),
        "backend.bessel_arrays.elements":
            get("backend.j0_array", "elements") + get("backend.j1_array", "elements"),
        "backend.bessel_arrays.self_s":
            get("backend.j0_array", "self_s") + get("backend.j1_array", "self_s"),
        "trace.wall_s": wall,
        "trace.spans": sum(rec.get("calls", 0) for rec in agg.values()),
    }
    for metric, _unit in PER_LAYER:
        if metric in m:
            continue
        name, key = metric.rsplit(".", 1)
        if key == "steps_per_s":
            m[metric] = rate(get(name, "greedy_steps"), get(name, "self_s"))
        elif key == "terms_per_s":
            m[metric] = rate(get(name, "terms"), get(name, "self_s"))
        else:
            m[metric] = get(name, key)
    return m


def job_sizes(procs, rnd) -> dict:
    """Inputs per job, plus the sizes a traced round observed."""
    sizes = {}
    for proc, res in zip(procs, rnd["procs"]):
        traced = (res["trace"] or {}).get("jobs") or {}
        for job in proc.jobs:
            rec = dict(job.sizes)
            spans = traced.get("cli" if proc.is_cli else job.id)
            if spans:
                rec["windows"] = spans.get("backend.cover_counts", {}).get("windows", 0)
                rec["covering_calls"] = spans.get("sets.covering_number", {}).get("calls", 0)
                rec["profile_nodes"] = spans.get("backend.oscillatory_sum", {}).get("nodes_max", 0)
                rec["profile_terms"] = spans.get("backend.oscillatory_sum", {}).get("terms", 0)
                rec["radii"] = (spans.get("wave.main_terms_grid", {}).get("radii", 0)
                                + spans.get("wave.propagate", {}).get("radii", 0))
                rec["quadrature_elements"] = (spans.get("bessel.radial_kernel", {}).get("elements", 0)
                                              + spans.get("bessel.bessel_remainder", {}).get("elements", 0))
            sizes[job.id] = rec
    return sizes


def environment(seed: int) -> dict:
    import numpy
    import fracsmooth.backend

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": fracsmooth.backend.BACKEND,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full record as JSON here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    if not (SRC / "fracsmooth" / "__init__.py").is_file():
        print(f"error: no fracsmooth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    procs = workloads.build(args.workload, args.seed)
    rounds, setup = [], []
    try:
        time_imports(1, deadline)  # untimed: fills the bytecode cache
        t0 = time.perf_counter()
        while True:
            rounds.append(run_round(procs, trace, deadline, setup, t0))
            measured = sum(r["span_s"] for r in rounds)
            longest = max(r["span_s"] for r in rounds)
            if measured + longest > args.seconds or time.perf_counter() + longest > deadline:
                break
        setup.extend(time_imports(max(0, SETUP_MIN - len(setup)), deadline))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ran = [(proc, res) for rnd in rounds for proc, res in zip(procs, rnd["procs"])]
    rerun = None
    if len(rounds) == 1:
        rerun = rerun_cheapest(procs, rounds[0], deadline)
        ran.append(rerun)
    checks = check_outputs(ran)
    failed = sum(1 for c in checks if c["error"])
    per_round = [round_times(r) for r in rounds]
    job_seconds = {}
    for rnd in rounds:
        for res in rnd["procs"]:
            for j in res["jobs"]:
                job_seconds.setdefault(j["id"], []).append(j["seconds"])

    values = {
        "wall_s": statistics.median(t["wall_s"] for t in per_round),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(t["maxrss_mb"] for t in per_round),
        "ok_frac": (len(checks) - failed) / len(checks),
    }
    e2e = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        layers = [layer_metrics(r) for r in rounds]
        metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = e2e

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "rounds": len(rounds),
        "rerun": rerun[0].jobs[0].id if rerun else None,
        "attempted": len(checks),
        "failed": failed,
        "failed_frac": failed / len(checks),
        "failures": [c for c in checks if c["error"]],
        "end_to_end": e2e,
        "timings": {
            "wall_s": summarize([t["wall_s"] for t in per_round]),
            "slowest_job_s": summarize([t["slowest_job_s"] for t in per_round]),
            "setup_s": summarize(setup),
            "jobs": {k: summarize(v) for k, v in job_seconds.items()},
        },
        "sizes": job_sizes(procs, rounds[0]),
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"backend {record['environment']['backend']}  trace {args.trace}")
    for c in record["failures"]:
        print(f"FAILED {c['id']}: {c['error']}")
    print(f"failed_frac {record['failed_frac']:.4f} ({failed}/{len(checks)} jobs)  "
          f"slowest_job_s {record['timings']['slowest_job_s']['median']:.6g} s")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
