"""Check each timed operation's output against the stored references.

An operation fails when it raised, when its output differs from the
reference, or when the reference has no entry for it.  On `avoiders` a brute
count must also equal the recurrence value computed in the same repetition.
"""

from __future__ import annotations

from workloads import word_text


def expected_outputs(workload: str, ref: dict) -> dict:
    """Operation key -> the output the reference expects."""
    if workload == "census":
        return {f"census {ref['length']}": {k: v for k, v in ref.items() if k != "length"}}
    if workload == "preimages":
        expected = {}
        for kind, entries in (("count", ref["count"]), ("list", ref["list"])):
            for entry in entries:
                for v in ("fast", "slow"):
                    expected[f"{kind} {word_text(entry['word'])} {v}"] = entry[v]
        return expected
    if workload == "avoiders":
        return {**ref["brute"], **ref["recurrence"]}
    if workload == "cli-tour":
        expected = {" ".join(c["args"]): {"code": 0, "stdout": c["golden"]} for c in ref["commands"]}
        expected[" ".join(ref["cache_command"])] = {"code": 0, "stdout": ref["cache_golden"]}
        return expected
    raise ValueError(f"unknown workload {workload!r}")


def _agrees_with_recurrence(key: str, out, extra: dict) -> bool:
    _, content, patterns = key.split(" ")
    values = extra["recurrence"].get(content)
    return values is not None and out == values[0 if patterns == "231" else 1]


def count_failures(workload: str, ops: list[dict], extra: dict, ref: dict) -> int:
    """Mark every op with `ok` and return how many failed."""
    expected = expected_outputs(workload, ref)
    failed = 0
    for op in ops:
        key = op["key"]
        ok = "error" not in op and key in expected and op["out"] == expected[key]
        if ok and workload == "avoiders" and key.startswith("brute "):
            ok = _agrees_with_recurrence(key, op["out"], extra)
        op["ok"] = ok
        failed += not ok
    return failed


def tally(workload: str, runs: list[dict], ref: dict) -> tuple[int, int]:
    """(failed, attempted) over the operations of every worker result in `runs`."""
    failed = attempted = 0
    for run in runs:
        ops = run.get("ops", [])
        failed += count_failures(workload, ops, run.get("extra", {}), ref)
        attempted += len(ops)
    return failed, attempted
