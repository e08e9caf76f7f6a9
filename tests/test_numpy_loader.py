"""NumPy loads through ``fracsmooth._numpy`` alone: with one OpenBLAS thread
unless the caller chose a count or imported NumPy first, and with the
environment left as it was."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracsmooth

SRC = Path(fracsmooth.__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints whether the imports left os.environ unchanged, the variables the
# loader reads, and the process's thread count (OpenBLAS starts all but one)
THREADS = (
    "import json, os; before = dict(os.environ); {imports}; "
    "print(json.dumps([dict(os.environ) == before, {{k: os.environ.get(k) for k in {names!r}}}, "
    "len(os.listdir('/proc/self/task'))]))"
)


def _run(imports, **thread_env):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = THREADS.format(imports=imports, names=THREAD_VARS)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_wave_loads_numpy_with_one_blas_thread():
    unchanged, seen, threads = _run("import fracsmooth.wave")
    assert unchanged and seen == dict.fromkeys(THREAD_VARS) and threads == 1


@pytest.mark.parametrize("name", THREAD_VARS)
def test_caller_thread_count_wins(name):
    # the same count as a plain NumPy import under that setting: OpenBLAS
    # keeps its worker, up to the cores it may use
    control = _run("import numpy", **{name: "2"})
    assert control[2] == min(2, len(os.sched_getaffinity(0)))
    assert _run("import fracsmooth.wave", **{name: "2"}) == control


def test_numpy_imported_first_is_left_alone():
    control = _run("import numpy")
    assert _run("import numpy, fracsmooth.wave") == control
    assert control[:2] == [True, dict.fromkeys(THREAD_VARS)]


def test_only_the_loader_imports_numpy():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.append(path.name)
    assert set(importers) == {"_numpy.py"}
