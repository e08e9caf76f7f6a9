#!/usr/bin/env python3
"""Steadiness check: run one workload N times with different seeds and
print, for every end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload wave-fields --runs 10 [--first-seed 1]

A spread within a third of the bound leaves room for a second set of runs
on another day to agree with the first.  Exits with code 1 when any spread
is above its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import summarize  # noqa: E402


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} jobs failed a check")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    steady = True
    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}  tail")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < m["bound"] / 3 else "within bound" if spread <= m["bound"] else "TOO WIDE"
        steady = steady and verdict != "TOO WIDE"
        tail = summarize(vals)
        tail = (f"p{tail['percentile']:g}={tail['percentile_value']:.4g}" if "percentile" in tail
                else f"n={tail['n']}: no percentile has ten runs beyond it")
        print(f"{m['name']:16s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.4f} {m['bound']:6.3f}  "
              f"{verdict}; {tail}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
