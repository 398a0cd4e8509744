"""The four workloads: inputs made from a seed, and the task each repetition times.

Every repetition runs in a fresh interpreter (see worker.py), so it pays what
a CLI user pays on every invocation: the in-process census cache
(`experiments._census_cache`), the recurrence memo and the preimage shape
cache all start empty.  The library receives only the generated inputs.

The library is imported inside the functions that call it, because run.py
imports this module without src/ on its path.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

PATTERN_SETS = {"231": [(2, 3, 1)], "231,221": [(2, 3, 1), (2, 2, 1)]}

WORKLOADS = {
    "census": {
        "params": {"length": 8, "parallelism": 2},
        "why": "cold distance_census(8) on 2 workers: the dominant Tier-1 cost and the "
               "target of the census engine work; the seed does not change the task",
    },
    "preimages": {
        "params": {
            "count_lengths": [10, 11, 12, 13],
            "count_pool_per_length": 90,
            "list_lengths": [7, 8, 9, 10],
            "list_pool_per_length": 15,
            "block": 3,
            "always_listed": "1..10",
        },
        "why": "independent count_preimages and in_order_preimages queries on both "
               "operators, varying length, ties and fertility, with some words that "
               "have no preimage; listing is about a third of the time",
    },
    "avoiders": {
        "params": {"brute_sums": [6, 7], "extra_content": [2, 2, 2, 2, 2],
                   "pattern_sets": list(PATTERN_SETS), "recurrence_max_sum": 14},
        "why": "brute_count_avoiders over every content of sum 6-7 and (2,2,2,2,2), "
               "the contains_pattern hotspot, checked against the recurrences run "
               "cold up to sum 14; the seed shuffles the order",
    },
    "cli-tour": {
        "params": {"commands": "README CLI tour plus a cold and a warm --cache run",
                   "process": "fresh python -m stacksort.cli per command"},
        "why": "the README tour as fresh CLI processes, the only workload that "
               "exercises cli, process start and the --cache memo file; the seed "
               "shuffles the order",
    },
}

def load_reference(workload: str) -> dict:
    with open(DATA / f"{workload.replace('-', '_')}.json", encoding="utf-8") as fh:
        return json.load(fh)


def word_text(w) -> str:
    """Unambiguous text of a word (letters may exceed 9)."""
    return ",".join(map(str, w))


def listing_digest(preimages) -> dict:
    """Size and sha256 of a preimage list, independent of its order."""
    lines = sorted(word_text(u) for u in preimages)
    return {"n": len(lines), "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def census_digest(result) -> dict:
    exceptional = "\n".join(f"{word_text(w)}:{df}:{ds}" for w, df, ds in result.exceptional)
    return {
        "total": result.total,
        "exceptional_count": len(result.exceptional),
        "gap_histogram": {str(g): n for g, n in result.gap_histogram.items()},
        "exceptional_sha256": hashlib.sha256(exceptional.encode()).hexdigest(),
    }


def recurrence_digest(rows) -> str:
    text = "\n".join(f"{word_text(c)}:{fast}:{slow}" for c, fast, slow in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class Recorder:
    """Times each operation of a task and keeps its output for the checker."""

    def __init__(self) -> None:
        self.ops: list[dict] = []

    def op(self, key: str, fn, *args, post=None, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, the task goes on
            self.ops.append({"key": key, "lat": perf_counter() - start,
                             "error": f"{type(exc).__name__}: {exc}"})
            return None
        lat = perf_counter() - start
        self.ops.append({"key": key, "lat": lat, "out": post(result) if post else result})
        return result


# ---------------------------------------------------------------------------
# Inputs


def pick_stratified(entries: list[dict], block: int, rng: random.Random) -> list[dict]:
    """One entry from each block of `block` consecutive entries in cost order.

    Every run keeps the whole cost range, the slow tail included, while the
    seed still chooses the words; the task's total cost then varies little
    from seed to seed.
    """
    ordered = sorted(entries, key=lambda e: (e["cost_ms"], e["word"]))
    return [rng.choice(ordered[i:i + block]) for i in range(0, len(ordered), block)]


def build_inputs(workload: str, seed: int, parallelism: int | None = None) -> dict:
    rng = random.Random(seed)
    params = WORKLOADS[workload]["params"]
    if workload == "census":
        return {"length": params["length"],
                "parallelism": params["parallelism"] if parallelism is None else parallelism}
    if workload == "preimages":
        ref = load_reference("preimages")
        ops = []
        for length in params["count_lengths"]:
            pool = [e for e in ref["count"] if len(e["word"]) == length]
            for entry in pick_stratified(pool, params["block"], rng):
                ops += [("count", tuple(entry["word"]), v) for v in ("fast", "slow")]
        for length in params["list_lengths"]:
            pool = [e for e in ref["list"] if len(e["word"]) == length and not e["always"]]
            for entry in pick_stratified(pool, params["block"], rng):
                ops += [("list", tuple(entry["word"]), v) for v in ("fast", "slow")]
        for entry in ref["list"]:
            if entry["always"]:
                ops += [("list", tuple(entry["word"]), v) for v in ("fast", "slow")]
        rng.shuffle(ops)
        return {"ops": ops}
    if workload == "avoiders":
        from stacksort import positive_compositions

        contents = [c for s in params["brute_sums"] for c in positive_compositions(s)]
        contents.append(tuple(params["extra_content"]))
        ops = [(c, name) for c in contents for name in PATTERN_SETS]
        rng.shuffle(ops)
        sums = range(1, params["recurrence_max_sum"] + 1)
        return {"ops": ops, "compositions": {s: list(positive_compositions(s)) for s in sums}}
    if workload == "cli-tour":
        ref = load_reference("cli-tour")
        commands = [c["args"] for c in ref["commands"]]
        rng.shuffle(commands)
        # The warm --cache run must follow the cold one that writes the file.
        cold, warm = sorted(rng.sample(range(len(commands) + 2), 2))
        commands.insert(cold, ref["cache_command"])
        commands.insert(warm, ref["cache_command"])
        return {"commands": commands}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Tasks


def run_census(inputs: dict, rec: Recorder) -> None:
    from stacksort import experiments

    rec.op(f"census {inputs['length']}", experiments.distance_census, inputs["length"],
           parallelism=inputs["parallelism"], post=census_digest)


def run_preimages(inputs: dict, rec: Recorder) -> None:
    from stacksort import hooks
    from stacksort.sorting import SortVariant

    for kind, w, v in inputs["ops"]:
        key = f"{kind} {word_text(w)} {v}"
        if kind == "count":
            rec.op(key, hooks.count_preimages, w, SortVariant(v), limit=len(w))
        else:
            rec.op(key, hooks.in_order_preimages, w, SortVariant(v), post=listing_digest)


def run_avoiders(inputs: dict, rec: Recorder) -> dict:
    from stacksort import counting

    for c, name in inputs["ops"]:
        rec.op(f"brute {word_text(c)} {name}", counting.brute_count_avoiders, c,
               PATTERN_SETS[name])
    counting.clear_memo()
    values = {}
    for s, contents in inputs["compositions"].items():
        rows = rec.op(f"recurrence {s}", lambda cs: [(c, counting.count_fast_sortable(c),
                                                       counting.count_slow_sortable(c))
                                                      for c in cs],
                      contents, post=recurrence_digest)
        for c, fast, slow in rows or ():
            values[word_text(c)] = [fast, slow]
    # Each brute count is checked against these by the checker.
    return {"recurrence": {word_text(c): values.get(word_text(c)) for c, _ in inputs["ops"]}}


def cli_argv(args: list[str], cache: str) -> list[str]:
    return [a.replace("{cache}", cache) for a in args]


def run_cli_tour(inputs: dict, rec: Recorder, env: dict, cache: str, shim: list[str] | None,
                 trace_dir: str | None = None) -> list[float]:
    """Run each tour command as a fresh process; with `shim`, through the tracing shim.

    Returns, per command, the wall time of its process (for process overhead).
    """
    walls = []
    for i, args in enumerate(inputs["commands"]):
        argv = cli_argv(args, cache)
        if shim is None:
            cmd = [sys.executable, "-m", "stacksort.cli", *argv]
        else:
            spec = {"mode": "cli-shim", "argv": argv, "trace_out": str(Path(trace_dir, f"cli-{i}"))}
            cmd = [*shim, json.dumps(spec)]

        def run():
            start = perf_counter()
            try:
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
            finally:
                walls.append(perf_counter() - start)
            return {"code": proc.returncode, "stdout": proc.stdout}

        rec.op(" ".join(args), run)
    return walls
