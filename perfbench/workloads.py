"""The benchmark's workloads: job lists made from a seed, and output checks.

A workload is a list of processes; each process runs one CLI command or
one or more library jobs.  The seed picks the wave-sim times, the radii the
wave check recomputes, the harness ``--seed`` values and the order of the
processes.  Sizes never depend on the seed, so neither does the cost.

Every check returns an error message, or None when the output passes.  The
checks compare against independent paths (``wave.propagate``, the
Plancherel norm, the report's own verdict), never against stored hashes, so
a later change that legitimately moves the last bits still passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

SETS_DIR = "perfbench/sets"
FIVE_SETS = ("interval", "points", "cantor", "polyseq", "union")

# verify-sharpness --tol default; the slope jobs apply the same verdict
SLOPE_TOL = 0.2
# criterion 6: decomposition path against direct quadrature
WAVE_RTOL = 1e-5
# criterion 8: p = 2 data norm against the Plancherel oracle
NORM_RTOL = 1e-3
WAVE_CHECK_RADII = 3


@dataclass
class Job:
    id: str
    check: object            # (job, stdout text) -> error message or None
    argv: list | None = None  # CLI arguments, for a CLI job
    call: dict | None = None  # library call spec for perfbench/child.py
    sizes: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


@dataclass
class Proc:
    jobs: list

    @property
    def is_cli(self) -> bool:
        return self.jobs[0].argv is not None


def _set_path(name: str) -> str:
    return f"{SETS_DIR}/{name}.json"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _summary_fields(text: str) -> dict:
    """``# k1,v1,k2,v2,...`` trailing summary line of a CSV report."""
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("# "):
        raise ValueError("no summary line")
    parts = last[2:].split(",")
    return dict(zip(parts[0::2], parts[1::2]))


def check_duality(job, text):
    s = _summary_fields(text)
    dev, tol = float(s["max_deviation"]), float(s["tolerance"])
    rows = len(text.splitlines()) - 2
    if rows != job.extra["rows"]:
        return f"{rows} rows, expected {job.extra['rows']}"
    return None if dev <= tol else f"max_deviation {dev} > tolerance {tol}"


def check_bookkeeping(job, text):
    s = _summary_fields(text)
    return None if s.get("pass") == "True" else f"bookkeeping verdict {s.get('pass')}"


def check_set_info(job, text):
    info = json.loads(text)
    lo, hi = info["bounds"]
    if not 1.0 <= lo <= hi <= 2.0:
        return f"bounds {lo}, {hi} outside [1, 2]"
    for key in ("dim_minkowski_estimate", "dim_quasi_assouad_estimate"):
        if not 0.0 <= info[key] <= 1.0:
            return f"{key} = {info[key]} outside [0, 1]"
    return None


def check_spectrum(job, text):
    lines = text.splitlines()
    if lines[0] != "j,theta,value,estimate,analytic,deviation":
        return f"header {lines[0]!r}"
    if len(lines) - 1 != job.extra["rows"]:
        return f"{len(lines) - 1} rows, expected {job.extra['rows']}"
    for line in lines[1:]:
        value = float(line.split(",")[2])
        if not 0.0 <= value <= 1.0 + 1e-12:
            return f"spectrum value {value} outside [0, 1]"
    return None


def check_exponent_table(job, text):
    lines = text.splitlines()
    if not lines[0].startswith("d,p,q,s_p,"):
        return f"header {lines[0]!r}"
    if len(lines) - 1 != job.extra["rows"]:
        return f"{len(lines) - 1} rows, expected {job.extra['rows']}"
    return None


def check_wave_sim(job, text):
    """Recompute a few radii of every row with direct quadrature."""
    import numpy as np
    from fracsmooth import wave

    rows = {}
    for line in text.splitlines()[1:]:
        t, r, re_u, im_u = (float(x) for x in line.split(","))
        rows.setdefault(t, []).append((r, complex(re_u, im_u)))
    times = job.extra["times"]
    if sorted(rows) != sorted(times):
        return f"times {sorted(rows)} != {sorted(times)}"
    params = wave.WaveParams(d=job.extra["d"], j=job.extra["j"], t_ref=job.extra["t_ref"])
    for t, picks in zip(times, job.extra["check_index"]):
        row = rows[t]
        if len(row) != job.extra["radii_per_time"]:
            return f"t={t}: {len(row)} radii"
        radii = np.asarray([row[i][0] for i in picks])
        got = np.asarray([row[i][1] for i in picks])
        ref = wave.propagate(params, t, radii).values
        err = float(np.abs(got - ref).max()) / float(np.abs(ref).max())
        if not err <= WAVE_RTOL:
            return f"t={t}: relative difference {err:.2e} from propagate"
    return None


def check_data_norm(job, text):
    from fracsmooth import wave

    num = float(text)
    c = job.call
    ref = wave.data_norm_plancherel(wave.WaveParams(d=c["d"], j=c["j"], t_ref=c["t_ref"]))
    rel = abs(num - ref) / ref
    return None if rel <= NORM_RTOL else f"data_norm off Plancherel by {rel:.2e}"


def check_slope(job, text):
    s = _summary_fields(text)
    slope, predicted = float(s["slope"]), float(s["predicted"])
    if not math.isfinite(slope) or abs(slope - predicted) > SLOPE_TOL:
        return f"slope {slope} vs predicted {predicted}: deviation above {SLOPE_TOL}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _cli(job_id, argv, check, sizes, **extra):
    return Proc([Job(job_id, check, argv=argv, sizes=sizes, extra=extra)])


def spectral_sweep(rng: random.Random) -> list:
    """Pipeline (a) only: covering counts, window tables, Legendre duality.

    The five sets span the cost of a point query: O(1) for the interval, a
    deep descent for the Cantor set, an index range for the sequence.  The
    j = 12..14 job shows the 4x cost per +2 in j of the window scan.  Scales
    stop at j = 12 (14 for that job) so that one run holds five or more
    rounds, whose median rides out a slow spell of the machine.
    """
    procs = []
    for name in FIVE_SETS:
        procs.append(_cli(
            f"verify-duality.{name}.j10-12",
            ["verify-duality", "--set", _set_path(name), "--jmin", "10", "--jmax", "12",
             "--seed", str(rng.randrange(1000))],
            check_duality, {"j": [10, 12]}, rows=3 * 33))
    procs.append(_cli(
        "verify-duality.cantor.j12-14",
        ["verify-duality", "--set", _set_path("cantor"), "--jmin", "12", "--jmax", "14",
         "--seed", str(rng.randrange(1000))],
        check_duality, {"j": [12, 14]}, rows=3 * 33))
    procs.append(_cli("set-info.union.j12", ["set-info", "--set", _set_path("union"), "--j", "12"],
                      check_set_info, {"j": [12, 12]}))
    procs.append(_cli("spectrum.polyseq.j12", ["spectrum", "--set", _set_path("polyseq"), "--j", "12"],
                      check_spectrum, {"j": [12, 12]}, rows=12 - 3))
    procs.append(_cli(
        "verify-bookkeeping.cantor.j12",
        ["verify-bookkeeping", "--set", _set_path("cantor"), "--j", "12",
         "--seed", str(rng.randrange(1000))],
        check_bookkeeping, {"j": [12, 12]}))
    procs.append(_cli("exponents.cantor.j12", ["exponents", "--set", _set_path("cantor"), "--j", "12"],
                      check_exponent_table, {"j": [12, 12]}, rows=45))
    rng.shuffle(procs)
    return procs


def _wave_sim(rng, d, j, n_times):
    # cone radii rho = t - t_ref in [0.3, 0.7]: every row takes the profile
    # path (rho > 2^(-j+2)) and the d != 3 remainder cost barely moves
    times = [round(1.0 + rng.uniform(0.3, 0.7), 6) for _ in range(n_times)]
    picks = [sorted(rng.sample(range(33), WAVE_CHECK_RADII)) for _ in times]
    return _cli(
        f"wave-sim.d{d}.j{j}",
        ["wave-sim", "--d", str(d), "--j", str(j), "--t-ref", "1.0",
         "--times", ",".join(repr(t) for t in times)],
        check_wave_sim, {"j": [j, j], "radii": 33 * n_times},
        d=d, j=j, t_ref=1.0, times=times, check_index=picks, radii_per_time=33)


def wave_fields(rng: random.Random) -> list:
    """Pipeline (b) only, each job in a fresh process with a cold profile table.

    The d = 3 job has no remainder term, so it moves with the profile table
    alone; the d = 2 jobs add the remainder, and the norm the inner propagate.
    """
    norm = {"call": "data_norm", "d": 2, "j": 6, "p": 2.0, "t_ref": 1.0}
    procs = [
        _wave_sim(rng, 3, 8, 2),
        _wave_sim(rng, 2, 10, 3),
        Proc([Job("data_norm.d2.j6", check_data_norm, call=dict(norm, id="data_norm.d2.j6"),
                  sizes={"j": [6, 6]})]),
    ]
    rng.shuffle(procs)
    return procs


SLOPE_CASES = (("interval", 4.0), ("cantor", 2.5), ("polyseq", 3.0), ("union", 2.5))
SLOPE_J = (8, 13)


def slope_sweep(rng: random.Random) -> list:
    """One interpreter runs every sharpness-slope job: the profile table is
    built by the first job and looked up by all later shells.

    The order is fixed because the first job pays for the table; a seeded
    order would make the per-job times depend on the seed.
    """
    jobs = []
    for name, p in SLOPE_CASES:
        job_id = f"sharpness_slope.{name}.p{p:g}"
        call = {"id": job_id, "call": "sharpness_slope", "set": _set_path(name), "d": 3, "p": p,
                "jmin": SLOPE_J[0], "jmax": SLOPE_J[1], "seed": rng.randrange(1000)}
        jobs.append(Job(job_id, check_slope, call=call, sizes={"j": list(SLOPE_J)}))
    return [Proc(jobs)]


WORKLOADS = {
    "spectral-sweep": spectral_sweep,
    "wave-fields": wave_fields,
    "slope-sweep": slope_sweep,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(seed))
