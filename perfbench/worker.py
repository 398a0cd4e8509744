"""One cold repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '<spec JSON>'

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The spec
names the workload, the seed and a mode:

  probe     make the inputs and stop (a set-up time sample)
  run       time the task untraced
  trace     time the task with the tracer installed and write its spans
  cli-shim  run one `stacksort.cli.main(argv)` under the tracer (cli-tour)

The last line of stdout is one JSON object.  `ready` is the monotonic clock
(shared by all processes on the machine) just before the first timed
operation, so run.py can measure set-up from the moment it started us.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from time import perf_counter

import tracer
import workloads


def peak_rss_kb() -> int:
    """Largest resident set of this process and of any child it has waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def cli_shim(spec: dict) -> int:
    from stacksort import cli

    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(spec["argv"])
    finally:
        t.uninstall()
        sys.stdout.flush()
        t.dump(spec["trace_out"])
    return code


def run(spec: dict) -> dict:
    workload, mode = spec["workload"], spec["mode"]
    import stacksort

    inputs = workloads.build_inputs(workload, spec["seed"], spec.get("parallelism"))
    result: dict = {"package_version": stacksort.__version__}
    if mode == "probe":
        result["ready"] = time.monotonic()
        return result

    rec = workloads.Recorder()
    t = None
    if mode == "trace" and workload != "cli-tour":
        t = tracer.Tracer()
        t.install(exclude=tuple(spec.get("exclude", ())))
    with tempfile.TemporaryDirectory(dir=spec["out_dir"]) as cache_dir:
        result["ready"] = time.monotonic()
        start = perf_counter()
        if workload == "census":
            workloads.run_census(inputs, rec)
        elif workload == "preimages":
            workloads.run_preimages(inputs, rec)
        elif workload == "avoiders":
            result["extra"] = workloads.run_avoiders(inputs, rec)
        else:
            shim = [sys.executable, os.path.abspath(__file__)] if mode == "trace" else None
            walls = workloads.run_cli_tour(inputs, rec, dict(os.environ),
                                           os.path.join(cache_dir, "memo.json"), shim,
                                           spec.get("trace_out"))
        result["solve_s"] = perf_counter() - start
    result["peak_rss_kb"] = peak_rss_kb()
    result["ops"] = rec.ops
    if t is not None:
        t.uninstall()
        result["trace"] = t.dump(os.path.join(spec["trace_out"], "spans"))
    elif mode == "trace":
        shims = []
        for i in range(len(walls)):
            with open(os.path.join(spec["trace_out"], f"cli-{i}.json"), encoding="utf-8") as fh:
                shims.append(json.load(fh))
        result["trace"] = tracer.merge(shims)
        main_s = [s["spans"]["cli.main"]["total_s"] for s in shims]
        result["trace"]["cli"] = {
            "commands": len(walls),
            "main_s": sum(main_s) / len(walls),
            "process_overhead_s": sum(w - m for w, m in zip(walls, main_s)) / len(walls),
        }
    return result


def main() -> int:
    if sys.flags.optimize:
        print("error: run without -O; the library's theorem checks are asserts", file=sys.stderr)
        return 3
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "cli-shim":
        return cli_shim(spec)
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
