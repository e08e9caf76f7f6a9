"""The benchmark wraps and reads package names by string; each must exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import fracsmooth.backend

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_wrapped_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.WRAPPED.items()
        for name in names
        if not hasattr(importlib.import_module(f"fracsmooth.{module}"), name)
    ]
    assert missing == []
    assert hasattr(fracsmooth.backend, "BACKEND")


def test_traced_child_counts_the_kernel():
    # a kernel signature change that breaks the benchmark's counters fails here
    root = SPANS.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    spec = {"trace": True, "cli": ["set-info", "--set", "perfbench/sets/union.json", "--j", "8"]}
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, cwd=root, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    mark = "@@perfbench-trace@@ "
    trace = json.loads(proc.stderr.splitlines()[-1].removeprefix(mark))
    assert trace["jobs"]["cli"]["backend.cover_counts"]["windows"] > 0


def test_untraced_child_runs_the_library_jobs():
    # the benchmark's two library calls, through the signatures they use
    root = SPANS.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    spec = {"trace": False, "jobs": [
        {"id": "norm", "call": "data_norm", "d": 3, "j": 6, "t_ref": 1.0, "p": 2.5},
        {"id": "slope", "call": "sharpness_slope", "set": "perfbench/sets/interval.json",
         "d": 3, "p": 4.0, "jmin": 8, "jmax": 12, "seed": 7},
    ]}
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, cwd=root, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    jobs = json.loads(proc.stdout.splitlines()[-1])["jobs"]
    assert [job["id"] for job in jobs] == ["norm", "slope"]
    assert float(jobs[0]["stdout"]) > 0.0
    lines = jobs[1]["stdout"].splitlines()
    assert lines[0].startswith("j,log2_Q") and len(lines) == 1 + 5 + 1
