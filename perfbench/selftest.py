"""Self-test of the benchmark's checker: injected wrong results must be counted.

    python3 perfbench/selftest.py

Feeds the checker a wrong census total, a wrong preimage count and a wrong
line of golden CLI output, each beside correct results, and asserts that
exactly the wrong ones are counted as failed.
"""

from __future__ import annotations

import unittest

import checker
from workloads import load_reference, word_text


def tally(workload: str, ops: list[dict], extra: dict | None = None) -> tuple[int, int]:
    return checker.tally(workload, [{"ops": ops, "extra": extra or {}}], load_reference(workload))


class CheckerSelfTest(unittest.TestCase):
    def test_census_total(self):
        ref = load_reference("census")
        right = {k: v for k, v in ref.items() if k != "length"}
        wrong = {**right, "total": right["total"] - 1}
        ops = [{"key": "census 8", "lat": 1.0, "out": right},
               {"key": "census 8", "lat": 1.0, "out": wrong}]
        self.assertEqual(tally("census", ops), (1, 2))

    def test_preimage_count(self):
        entry = next(e for e in load_reference("preimages")["count"] if e["fast"] > 0)
        key = f"count {word_text(entry['word'])} fast"
        ops = [{"key": key, "lat": 0.01, "out": entry["fast"]},
               {"key": key, "lat": 0.01, "out": entry["fast"] + 1},
               {"key": key, "lat": 0.01, "error": "RuntimeError: injected"},
               {"key": "count 9,9,9 fast", "lat": 0.01, "out": 0}]
        self.assertEqual(tally("preimages", ops), (3, 4))

    def test_golden_line(self):
        command = load_reference("cli-tour")["commands"][0]
        key = " ".join(command["args"])
        lines = command["golden"].splitlines(keepends=True)
        lines[-1] = "9" + lines[-1]
        ops = [{"key": key, "lat": 0.1, "out": {"code": 0, "stdout": command["golden"]}},
               {"key": key, "lat": 0.1, "out": {"code": 0, "stdout": "".join(lines)}},
               {"key": key, "lat": 0.1, "out": {"code": 1, "stdout": command["golden"]}}]
        self.assertEqual(tally("cli-tour", ops), (2, 3))

    def test_brute_count_disagreeing_with_recurrence(self):
        key, value = next(iter(load_reference("avoiders")["brute"].items()))
        content, patterns = key.split(" ")[1:]
        slot = 0 if patterns == "231" else 1
        agree, disagree = [0, 0], [0, 0]
        agree[slot], disagree[slot] = value, value + 1
        ops = [{"key": key, "lat": 0.01, "out": value}]
        self.assertEqual(tally("avoiders", ops, {"recurrence": {content: agree}}), (0, 1))
        self.assertEqual(tally("avoiders", ops, {"recurrence": {content: disagree}}), (1, 1))


if __name__ == "__main__":
    unittest.main()
