"""One job process of the benchmark.

    python3 perfbench/child.py '<spec JSON>'

The spec is ``{"trace": bool, "cli": [argv...]}`` for a CLI job or
``{"trace": bool, "jobs": [{"id": ..., "call": ..., ...}, ...]}`` for library
jobs run one after the other in this interpreter.  A CLI job writes the
command's own stdout and exits with its code.  Library jobs print one JSON
line ``{"jobs": [{"id", "seconds", "stdout"}, ...]}``.  With tracing on, the
last stderr line is ``TRACE_MARK`` followed by the per-job span summaries.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "@@perfbench-trace@@ "


def _slope(spec):
    from fracsmooth import harness, sets

    config = harness.ExperimentConfig(
        sets.load_file(spec["set"]), d=spec["d"], p=spec["p"],
        j_min=spec["jmin"], j_max=spec["jmax"], seed=spec["seed"],
    )
    return harness.run_sharpness_slope(config).to_csv()


def _data_norm(spec):
    from fracsmooth import wave

    params = wave.WaveParams(d=spec["d"], j=spec["j"], t_ref=spec["t_ref"])
    return repr(wave.data_norm(params, spec["p"])) + "\n"


CALLS = {"sharpness_slope": _slope, "data_norm": _data_norm}


def main(spec) -> int:
    t0 = time.perf_counter()
    import fracsmooth.cli
    import fracsmooth.harness
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import importlib

        from spans import WRAPPED, Tracer

        tracer = Tracer()
        tracer.install({m: importlib.import_module(f"fracsmooth.{m}") for m in WRAPPED})

    if "cli" in spec:
        job_ids = ["cli"]
        if tracer is not None:
            tracer.job = "cli"
        rc = fracsmooth.cli.cli(spec["cli"])
        sys.stdout.flush()
    else:
        rc, results, job_ids = 0, [], []
        for job in spec["jobs"]:
            job_ids.append(job["id"])
            if tracer is not None:
                tracer.job = job["id"]
            start = time.perf_counter()
            out = CALLS[job["call"]](job)
            results.append({"id": job["id"], "seconds": time.perf_counter() - start, "stdout": out})
        print(json.dumps({"jobs": results}))
    if tracer is not None:
        summaries = {job: tracer.summary(job) for job in job_ids}
        sys.stderr.write(TRACE_MARK + json.dumps({"import_s": import_s, "jobs": summaries}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
