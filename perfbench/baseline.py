#!/usr/bin/env python3
"""Record a baseline: one untraced and one traced run of every workload.

    python3 perfbench/baseline.py

Runs with seed 0 and writes ``perfbench/results/<workload>.json`` with both
full records and the tracing overhead, traced wall_s minus untraced wall_s.
End-to-end numbers are always read from the untraced record.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run(workload: str, seconds: int, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    record = json.loads(out.read_text())
    out.unlink()
    return record


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for w in bench["workloads"]:
        name = w["name"]
        tmp = out_dir / f".{name}.partial.json"
        untraced = run(name, bench["run_seconds"], 0, tmp)
        traced = run(name, bench["run_seconds"], 1, tmp)
        wall = untraced["end_to_end"]["wall_s"]["value"]
        traced_wall = traced["end_to_end"]["wall_s"]["value"]
        overhead = {"untraced_wall_s": wall, "traced_wall_s": traced_wall,
                    "overhead_s": traced_wall - wall, "overhead_frac": (traced_wall - wall) / wall}
        (out_dir / f"{name}.json").write_text(json.dumps(
            {"workload": name, "untraced": untraced, "traced": traced, "trace_overhead": overhead},
            indent=1, sort_keys=True) + "\n")
        print(f"{name}: wall_s {wall:.3f} s untraced, {traced_wall:.3f} s traced, "
              f"overhead {overhead['overhead_s']:+.3f} s ({100 * overhead['overhead_frac']:+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
