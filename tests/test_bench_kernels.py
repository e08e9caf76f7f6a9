"""The kernel bench script calls package internals by name; each case must
still run, so that a signature change fails here instead of in the script,
and the JSON record it writes keeps its schema."""

import importlib.util
import json
import math
import statistics
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"

CONTEXT = {
    "revision": (str, type(None)),
    "uncommitted_changes": (bool, type(None)),
    "nproc": int,
    "python": str,
    "numpy": str,
    "pythondontwritebytecode": bool,
    "pycache": bool,
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_cases_run(bench, tmp_path, capsys):
    out = tmp_path / "bench.json"
    record = bench.main(["--small", "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert json.loads(out.read_text()) == record
    assert set(record) == {"context", "cases", "modules", "perfbench", "tier1"}
    # --small makes no perfbench runs and does not run the suite
    assert record["perfbench"] == [] and record["tier1"] is None
    assert set(record["context"]) == set(CONTEXT)
    for key, kind in CONTEXT.items():
        assert isinstance(record["context"][key], kind), key
    assert record["context"]["nproc"] >= 1
    names = [case["name"] for case in record["cases"]]
    assert names[:len(bench.STARTUP)] == [f"startup {name}" for name, _ in bench.STARTUP]
    assert names[len(bench.STARTUP):len(bench.STARTUP) + len(bench.LARGE_SMALL)] == \
        [f"process {name}" for name, _, _ in bench.LARGE_SMALL]
    for prefix in ("profile_table", "tail bound", "window table", "data_norm", "window d=3", "inner disc", "far radii",
                   "slope jobs", "slope data norms"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert any(name.startswith("window table") and " top=" in name for name in names)
    # the interpreter with and without site, and the full cantor and union
    # tables at j = 22 (j = 10 under --small)
    assert {"startup interpreter", "startup interpreter -S"} <= set(names)
    assert {"window table cantor 2,1/3 j=10", "window table union j=10"} <= set(names)
    assert bench.LARGE_TABLES == [("cantor 2,1/3", 22), ("union", 22)]
    # the data norms of all four slope-sweep jobs, and the whole cantor check
    # at j = 8..22 among the full run's processes
    assert next(case for case in record["cases"] if case["name"].startswith("slope data norms"))["sizes"]["norms"] > 4
    large = [name for name, _, _ in bench.LARGE]
    assert "verify-sharpness cantor d=3 p=2.5 j=8..22" in large
    # one fresh data norm at j = 22 beside the same at j = 6, whose peak RSS
    # the j = 22 one should stay near
    assert {"data_norm d=3 j=6 p=2.5", "data_norm d=3 j=22 p=2.5"} <= set(large)
    assert "process data_norm d=3 j=6 p=2.5" in names
    # per process type, each package module it imports with its lines, cold
    # compile() seconds and -X importtime self seconds, one line each and
    # one for their sums; covering processes import no wave module
    assert [entry["process"] for entry in record["modules"]] == [name for name, _ in bench.MODULE_PROCESSES]
    module_printed = [line for line in printed if line.startswith("module ")]
    assert len(module_printed) == sum(len(entry["modules"]) + 1 for entry in record["modules"])
    for entry, must in zip(record["modules"], ({"fracsmooth.cli", "fracsmooth.spectra"}, {"fracsmooth.wave"})):
        assert set(entry) == {"process", "argv", "runs", "modules"} and entry["runs"] == 2
        names = [m["module"] for m in entry["modules"]]
        assert must <= set(names) and len(set(names)) == len(names)
        assert ("fracsmooth.wave" in names) is (entry["process"] == "wave")
        for m in entry["modules"]:
            assert set(m) == {"module", "lines", "compile_s", "compile_samples_s", "import_self_s",
                              "import_self_samples_s"}, m["module"]
            assert m["lines"] > 0
            for key in ("compile", "import_self"):
                assert len(m[f"{key}_samples_s"]) == 2 and all(t >= 0.0 for t in m[f"{key}_samples_s"])
                assert m[f"{key}_s"] == statistics.median(m[f"{key}_samples_s"])
            assert m["compile_s"] > 0.0
        assert any(line.startswith(f"module {entry['process']} total ") for line in module_printed)
    # each case printed on one line beside the same case of the newest
    # committed record, with the ratio of the two
    old_name, old_record = bench.newest_committed()
    old_names = {case["name"] for case in old_record["cases"]} if old_record else set()
    assert old_name is None or old_name in printed[0]
    printed = [line for line in printed if not line.startswith("module ")]
    assert len(printed) == 1 + len(record["cases"])
    for case, line in zip(record["cases"], printed[1:]):
        assert line.startswith(case["name"] + " ")
        if case["name"] in old_names:
            assert " | x" in line, line
        else:
            assert line.endswith("(not in the committed record)"), line
    for case in record["cases"]:
        startup = bench.fresh_process(case)
        keys = {"name", "sizes", "min_s", "q1_s", "median_s", "q3_s", "samples_s", "peak_rss_mb"}
        fresh = {"peak_rss_samples_mb", "cpu_median_s", "cpu_samples_s"}
        assert set(case) == keys | (fresh if startup else {"traced_peak_mb"}), case["name"]
        assert case["peak_rss_mb"] > 0.0
        if startup:
            assert len(case["peak_rss_samples_mb"]) == len(case["cpu_samples_s"]) == 2
            assert case["cpu_median_s"] == statistics.median(case["cpu_samples_s"]) > 0.0
        else:
            # each in-process case's own peak, below the process's
            assert 0.0 < case["traced_peak_mb"] < case["peak_rss_mb"], case["name"]
        seconds = case["samples_s"]
        assert len(seconds) == (2 if startup else 1) and all(math.isfinite(t) and t > 0.0 for t in seconds)
        assert case["min_s"] == min(seconds)
        assert case["min_s"] <= case["q1_s"] <= case["median_s"] <= case["q3_s"] <= max(seconds)
        assert isinstance(case["sizes"], dict) and case["sizes"]
        if startup:
            assert case["sizes"]["runs"] == 2
        if case["name"].startswith("profile_table"):
            assert case["sizes"]["entries"] == 32769
        if case["name"].startswith("window table"):
            assert case["sizes"]["windows"] > 0


def test_perfbench_summary(bench):
    def run(seed, wall, rss):
        e2e = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
        return {"environment": {"seed": seed}, "end_to_end": e2e}

    runs = [run(1, 2.0, 30.0), run(2, 1.0, 31.0), run(3, 4.0, 30.5)]
    traced = {"metrics": {"wave.main_terms_grid.calls": {"value": 7, "unit": "count"}}}
    entry = bench.perfbench_summary("slope-sweep", runs, traced)
    assert entry["workload"] == "slope-sweep" and entry["seeds"] == [1, 2, 3]
    assert entry["seconds"] == bench.PERFBENCH_SECONDS == 32
    wall = entry["end_to_end"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (1.5, 2.0, 3.0)
    assert wall["spread"] == 0.75 and wall["samples"] == [2.0, 1.0, 4.0] and wall["unit"] == "s"
    assert entry["end_to_end"]["peak_rss_mb"]["median"] == 30.5
    assert entry["traced"] == {"wave.main_terms_grid.calls": 7}
    assert len(bench.PERFBENCH_SEEDS) >= 3
    json.dumps(entry)
    lines = bench.perfbench_lines(entry, None)
    assert [line.split()[:3] for line in lines] == [["perfbench", "slope-sweep", "wall_s"],
                                                    ["perfbench", "slope-sweep", "peak_rss_mb"]]
    assert all(" | " in line for line in bench.perfbench_lines(entry, entry))


def test_tier1_summary(bench):
    text = "\n".join([
        "........ [100%]",
        "============================= slowest durations ==============================",
        "1.50s call     tests/test_wave.py::test_a[2]",
        "0.25s setup    tests/test_wave.py::test_a[2]",
        "0.00s teardown tests/test_wave.py::test_a[2]",
        "0.75s call     tests/test_cli.py::test_b",
        "3 failed, 616 passed, 1 skipped in 45.67s",
    ])
    entry = {"wall_s": 46.0, "exit_code": 1, **bench.tier1_summary(text)}
    assert entry["counts"] == {"failed": 3, "passed": 616, "skipped": 1}
    assert entry["files_s"] == {"tests/test_wave.py": 1.75, "tests/test_cli.py": 0.75}
    assert list(entry["files_s"]) == ["tests/test_wave.py", "tests/test_cli.py"]
    assert bench.tier1_summary("") == {"counts": {}, "files_s": {}}
    assert bench.tier1_line(entry, None).endswith("(not in the committed record)")
    assert bench.tier1_line(entry, entry).endswith(" | x1.00")
    json.dumps(entry)
