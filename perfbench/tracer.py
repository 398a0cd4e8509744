"""Spans around calls into the library, recorded from outside it.

A span is (name, start, end, parent): one call of a wrapped function, or one
`next()` of a wrapped generator.  Spans are kept in four parallel arrays (24
bytes a span) so that hot leaf calls such as `next_word` can be recorded one
by one, and are written out when the traced process ends.

Wrapping is binding-aware.  `from .words import next_word` gives
`stacksort.experiments` a name of its own for the function, and the census
calls it through that name, so replacing `stacksort.words.next_word` alone
would miss every call.  `install` therefore replaces the original object
under every name that any loaded `stacksort` module binds it to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  Several functions may share a span name
# when they form one layer metric.
TARGETS = (
    ("stacksort.experiments", "distance_census", "experiments.census"),
    ("stacksort.experiments", "find_exceptional", "experiments.report"),
    ("stacksort.experiments", "gap_census", "experiments.report"),
    ("stacksort.experiments", "scan_conjectures", "experiments.report"),
    ("stacksort.experiments", "fertility_demo", "experiments.report"),
    ("stacksort.experiments", "report_json", "experiments.report"),
    ("stacksort.words", "next_word", "words.next_word"),
    ("stacksort.words", "contains_pattern", "words.contains_pattern"),
    ("stacksort.words", "enumerate_words", "words.enumerate_words"),
    ("stacksort.sorting", "sort_via_stack", "sorting.sort_via_stack"),
    ("stacksort.sorting", "distance", "sorting.distance"),
    ("stacksort.hooks", "count_preimages", "hooks.count_preimages"),
    ("stacksort.hooks", "enumerate_vhc", "hooks.enumerate_vhc"),
    ("stacksort.hooks", "build_preimage_trees", "hooks.build_preimage_trees"),
    ("stacksort.trees", "in_order", "trees.in_order"),
    ("stacksort.counting", "brute_count_avoiders", "counting.brute_count_avoiders"),
    ("stacksort.counting", "count_fast_sortable", "counting.recurrence"),
    ("stacksort.counting", "count_slow_sortable", "counting.recurrence"),
    ("stacksort.counting", "save_memo", "counting.memo_save"),
    ("stacksort.counting", "load_memo", "counting.memo_load"),
    ("stacksort.cli", "main", "cli.main"),
)

# Outcome counters fed from return values: span name -> (counter, value of result).
RESULT_COUNTERS = {
    "experiments.census": ("census_words", lambda r: r.total),
    "hooks.count_preimages": ("preimages", lambda r: r),
    "counting.brute_count_avoiders": ("avoiders", lambda r: r),
}


class Tracer:
    """Records spans of wrapped library calls in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.yields: list[int] = []
        self.counters: dict[str, int] = {}
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.yields.append(0)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(sid)
        self.start.append(perf_counter())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        """A stand-in for fn that records a span per call (per next() for generators)."""
        nid = self._id(name)
        begin, finish = self._begin, self._finish
        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            def traced_items(gen):
                while True:
                    sid = begin(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        finish(sid)
                    yields[nid] += 1
                    yield item

            def wrapper(*args, **kwargs):
                return traced_items(fn(*args, **kwargs))

        else:
            counter = RESULT_COUNTERS.get(name)
            counters = self.counters

            def wrapper(*args, **kwargs):
                sid = begin(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(sid)
                if counter is not None:
                    key, value = counter
                    counters[key] = counters.get(key, 0) + value(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, exclude: tuple[str, ...] = ()) -> None:
        """Wrap every target under every name a loaded stacksort module binds it to."""
        for module_name, attr, name in TARGETS:
            if name in exclude:
                continue
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in list(sys.modules.values()):
                module_name_of = getattr(module, "__name__", "")
                if module_name_of != "stacksort" and not module_name_of.startswith("stacksort."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds and generator yields.

        Self time is a span's duration minus the durations of its child spans;
        spans in one thread nest, so children never overlap.
        """
        n = len(self.name_id)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        rows = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "yields": self.yields[nid]}
                for nid, name in enumerate(self.names)}
        for i in range(n):
            row = rows[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return {"spans": rows, "counters": dict(self.counters)}

    def dump(self, path: str) -> dict:
        """Write the spans to `path` and the summary to `path`.json; return the summary.

        `path` holds four arrays one after another, each with one entry per
        span: name ids (int32), parent span ids (int32, -1 for none), start
        and end times (float64 seconds, perf_counter).  The JSON file gives
        the span count and the name of each id.
        """
        summary = self.summary()
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"span_count": len(self.name_id), "names": self.names, **summary}, fh)
        return summary


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several traced processes."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "yields": 0})
            for key in acc:
                acc[key] += row[key]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}
