"""The stacksort benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 33 --trace 0

Run from anywhere; paths are taken relative to this file, whose parent must
hold the library's source in src/.  Nothing is installed or built: workers
import the package from src/ through PYTHONPATH.

Every repetition of a workload's task runs in a fresh interpreter
(worker.py), so each one starts from the cold state a CLI user starts from.
With --trace 0 the run measures the end-to-end metrics: a few set-up probes,
then repetitions until --seconds is used up (at least three).  With --trace 1
it runs the task once untraced and once traced and reports the per-layer
metrics and the tracing overhead.  Every output is checked against the
references in data/ (made by make_reference.py).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A full record goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

PROBES = 5  # set-up-only launches per run, so set-up has enough samples everywhere
MIN_REPS = 3
MAX_REPS = 100
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "solve_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "experiments.census_s": "s",
    "experiments.census_words": "count",
    "experiments.words_per_s": "1/s",
    "experiments.parallel_efficiency": "ratio",
    "experiments.report_s": "s",
    "words.next_word_calls": "count",
    "words.next_word_s": "s",
    "words.contains_pattern_calls": "count",
    "words.contains_pattern_s": "s",
    "words.enumerate_words_yields": "count",
    "sorting.sort_via_stack_calls": "count",
    "sorting.sort_via_stack_s": "s",
    "sorting.distance_calls": "count",
    "hooks.count_preimages_s": "s",
    "hooks.enumerate_vhc_s": "s",
    "hooks.configs": "count",
    "hooks.build_preimage_trees_s": "s",
    "hooks.preimages_per_config": "ratio",
    "trees.in_order_calls": "count",
    "trees.in_order_s": "s",
    "counting.brute_count_avoiders_s": "s",
    "counting.avoider_yield": "ratio",
    "counting.recurrence_s": "s",
    "counting.memo_save_s": "s",
    "counting.memo_load_s": "s",
    "cli.main_s": "s",
    "cli.process_overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# Layer metrics each workload must exercise; the traced run fails if one reads zero.
ASSIGNED = {
    "census": ["experiments.census_s", "experiments.census_words", "experiments.words_per_s",
               "experiments.parallel_efficiency", "words.next_word_calls", "words.next_word_s"],
    "preimages": ["hooks.count_preimages_s", "hooks.enumerate_vhc_s", "hooks.configs",
                  "hooks.build_preimage_trees_s", "hooks.preimages_per_config",
                  "trees.in_order_calls", "trees.in_order_s"],
    "avoiders": ["words.contains_pattern_calls", "words.contains_pattern_s",
                 "words.enumerate_words_yields", "counting.brute_count_avoiders_s",
                 "counting.avoider_yield", "counting.recurrence_s"],
    "cli-tour": ["experiments.census_s", "experiments.census_words", "experiments.report_s",
                 "sorting.sort_via_stack_calls", "sorting.sort_via_stack_s",
                 "sorting.distance_calls", "counting.memo_save_s", "counting.memo_load_s",
                 "cli.main_s", "cli.process_overhead_s"],
}

NOTES = [
    "README defect: `stacksort vhc 212 --filter L --show-coloring --format json` exits 2, "
    "because global flags such as --format must come before the subcommand; the tour "
    "passes --format json first.",
    "The benchmark does not install the package, so the tour runs "
    "`PYTHONPATH=src python -m stacksort.cli` instead of the `stacksort` entry point.",
]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PYTHONPATH", "STACKSORT_CACHE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def call_worker(spec: dict, deadline: float) -> dict:
    """Run one worker process to completion; add its set-up and wall times."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {spec['mode']} of {spec['workload']}")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps({**spec, "out_dir": str(OUT)})],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:  # time limit, ^C or SIGTERM: stop the worker's whole group
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{spec['mode']} of {spec['workload']} ran past the time limit") from None
        raise
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = ended - spawned
    return result


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list]:
    """Set-up probes, then cold repetitions until `seconds` is used up."""
    start = time.monotonic()
    base = {"workload": workload, "seed": seed}
    probes = [call_worker({**base, "mode": "probe"}, deadline) for _ in range(PROBES)]
    reps: list[dict] = []
    while len(reps) < MAX_REPS:
        if reps:
            expected = statistics.median(r["wall_s"] for r in reps)
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed + expected > seconds:
                break
            if time.monotonic() + expected > deadline:
                break
        reps.append(call_worker({**base, "mode": "run"}, deadline))
    lat_ms = [1e3 * op["lat"] for r in reps for op in r["ops"]]
    setups = [r["setup_s"] for r in probes + reps]
    metrics = {
        "solve_s": (statistics.median(r["solve_s"] for r in reps), len(reps)),
        "op_p50_ms": (percentile(lat_ms, 50), len(lat_ms)),
        "op_p90_ms": (percentile(lat_ms, 90), len(lat_ms)),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reps) / 1024, len(reps)),
        "setup_s": (statistics.median(setups), len(setups)),
    }
    return metrics, probes + reps


def layer_metrics(summary: dict) -> dict:
    spans, counters = summary["spans"], summary["counters"]

    def get(name: str, field: str):
        return spans.get(name, {}).get(field, 0)

    census_s = get("experiments.census", "self_s")
    census_words = counters.get("census_words", 0)
    configs = get("hooks.enumerate_vhc", "yields")
    preimages = counters.get("preimages", 0) + get("hooks.build_preimage_trees", "yields")
    enumerated = get("words.enumerate_words", "yields")
    cli = summary.get("cli", {})
    return {
        "experiments.census_s": census_s,
        "experiments.census_words": census_words,
        "experiments.words_per_s": census_words / census_s if census_s else 0.0,
        "experiments.parallel_efficiency": 0.0,
        "experiments.report_s": get("experiments.report", "self_s"),
        "words.next_word_calls": get("words.next_word", "calls"),
        "words.next_word_s": get("words.next_word", "self_s"),
        "words.contains_pattern_calls": get("words.contains_pattern", "calls"),
        "words.contains_pattern_s": get("words.contains_pattern", "self_s"),
        "words.enumerate_words_yields": enumerated,
        "sorting.sort_via_stack_calls": get("sorting.sort_via_stack", "calls"),
        "sorting.sort_via_stack_s": get("sorting.sort_via_stack", "self_s"),
        "sorting.distance_calls": get("sorting.distance", "calls"),
        "hooks.count_preimages_s": get("hooks.count_preimages", "self_s"),
        "hooks.enumerate_vhc_s": get("hooks.enumerate_vhc", "self_s"),
        "hooks.configs": configs,
        "hooks.build_preimage_trees_s": get("hooks.build_preimage_trees", "self_s"),
        "hooks.preimages_per_config": preimages / configs if configs else 0.0,
        "trees.in_order_calls": get("trees.in_order", "calls"),
        "trees.in_order_s": get("trees.in_order", "self_s"),
        "counting.brute_count_avoiders_s": get("counting.brute_count_avoiders", "self_s"),
        "counting.avoider_yield": counters.get("avoiders", 0) / enumerated if enumerated else 0.0,
        "counting.recurrence_s": get("counting.recurrence", "self_s"),
        "counting.memo_save_s": get("counting.memo_save", "self_s"),
        "counting.memo_load_s": get("counting.memo_load", "self_s"),
        "cli.main_s": cli.get("main_s", 0.0),
        "cli.process_overhead_s": cli.get("process_overhead_s", 0.0),
    }


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, list]:
    """The task untraced and traced; per-layer metrics and the tracing overhead."""
    trace_dir = OUT / f"trace-{workload}-seed{seed}"
    base = {"workload": workload, "seed": seed}

    def traced(name: str, **extra) -> dict:
        out = trace_dir / name
        out.mkdir(parents=True, exist_ok=True)
        return call_worker({**base, "mode": "trace", "trace_out": str(out), **extra}, deadline)

    if workload == "census":
        # Spans recorded in forked pool workers are lost, so next_word is
        # traced in a serial census; the 2-worker census wraps only the census.
        parallel = traced("parallel", exclude=["words.next_word"])
        plain = call_worker({**base, "mode": "run", "parallelism": 1}, deadline)
        serial = traced("serial", parallelism=1)
        metrics = layer_metrics(parallel["trace"])
        serial_metrics = layer_metrics(serial["trace"])
        for name in ("words.next_word_calls", "words.next_word_s"):
            metrics[name] = serial_metrics[name]
        metrics["experiments.parallel_efficiency"] = plain["solve_s"] / (2 * parallel["solve_s"])
        runs = [parallel, plain, serial]
    else:
        plain = call_worker({**base, "mode": "run"}, deadline)
        serial = traced("task")
        metrics = layer_metrics(serial["trace"])
        runs = [plain, serial]
    metrics["trace.overhead_frac"] = serial["solve_s"] / plain["solve_s"] - 1
    zero = [name for name in ASSIGNED[workload] if not metrics[name]]
    if zero:
        raise BenchError(f"traced {workload} run: assigned layers read zero: {', '.join(zero)}")
    return metrics, runs


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if sys.flags.optimize:
        print("error: run without -O; the library's theorem checks are asserts", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "stacksort" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'stacksort'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            layers, runs = measure_traced(args.workload, args.seed, deadline)
            report = {name: (layers[name], 1) for name in PER_LAYER}
            units = PER_LAYER
        else:
            report, runs = measure(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ref = workloads.load_reference(args.workload)
    failed, attempted = checker.tally(args.workload, runs, ref)
    if not attempted:
        print("error: no operation ran", file=sys.stderr)
        return 1
    failed_frac = failed / attempted
    if not args.trace:
        report["ok_frac"] = (1 - failed_frac, attempted)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs)} worker processes, {attempted} operations")
    for name, (value, samples) in report.items():
        print(f"  {name:34s} {value:14.6f} {units[name]:6s} ({samples} samples)")
    print(f"  {'failed_frac':34s} {failed_frac:14.6f} {'ratio':6s} ({failed} of {attempted})")
    for run in runs:
        for op in run.get("ops", ()):
            if not op["ok"]:
                print(f"  FAILED {op['key']}: {op.get('error', 'wrong result')}", file=sys.stderr)

    metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in report.items()}
    record = {
        "workload": args.workload,
        "workloads": workloads.WORKLOADS,  # generator parameters and rationale of each
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "package_version": runs[0]["package_version"],
        "git_commit": git_commit(),
        "notes": NOTES,
        "metrics": {name: {"value": value, "unit": units[name], "samples": samples}
                    for name, (value, samples) in report.items()},
        "failed_frac": failed_frac,
        "attempted": attempted,
        "failed": failed,
        "processes": [{**{k: r[k] for k in ("setup_s", "wall_s", "solve_s", "peak_rss_kb") if k in r},
                       "op_latency_s": [op["lat"] for op in r.get("ops", ())]} for r in runs],
    }
    with open(OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
