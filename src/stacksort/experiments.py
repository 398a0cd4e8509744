"""Exhaustive-search experiments over normalized words.

The central scan walks every normalized word of a given length, computes both
sorting distances, and aggregates the gap (fast distance minus slow distance)
into a histogram, keeping the words where the slow operator wins outright.
Everything downstream (the exceptional-word census, gap counts, conjecture
scans) reads off one such scan, which is cached per length in-process.

Scans partition the word space by content vector, so they parallelize without
changing output: partitions are merged in canonical (lexicographic content)
order regardless of worker scheduling.  Reports are plain dicts with a fixed
key order so identical inputs yield byte-identical JSON once the timing field
is dropped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context

from .hooks import (
    brute_preimages,
    build_preimage_trees,
    count_preimages_vhc,
    enumerate_vhc,
    filter_for,
)
from .sorting import SortVariant, fertility_witness
from .words import (
    SizeLimitError,
    Word,
    contains_pattern,
    format_word,
    identity,
    next_word,
    positive_compositions,
)

MAX_SCAN_LEN = 10
WITNESS_CAP = 1000


@dataclass
class CensusResult:
    """Distance-gap census of all normalized words of one length."""

    length: int
    total: int
    gap_histogram: dict[int, int]
    exceptional: list[tuple[Word, int, int]]  # (word, fast distance, slow distance)


def _census_content(c: tuple[int, ...]) -> tuple[dict[int, int], list, int]:
    """Scan one content class; hot loop, kept allocation-light on purpose."""
    ident = list(identity(c))
    cur = ident.copy()
    hist: dict[int, int] = {}
    exceptional: list[tuple[Word, int, int]] = []
    total = 0
    while True:
        total += 1
        fast_d = 0
        u = cur
        while u != ident:
            out: list[int] = []
            stack: list[int] = []
            for x in u:
                while stack and stack[-1] < x:
                    out.append(stack.pop())
                stack.append(x)
            while stack:
                out.append(stack.pop())
            u = out
            fast_d += 1
        slow_d = 0
        u = cur
        while u != ident:
            out = []
            stack = []
            for x in u:
                while stack and stack[-1] <= x:
                    out.append(stack.pop())
                stack.append(x)
            while stack:
                out.append(stack.pop())
            u = out
            slow_d += 1
        gap = fast_d - slow_d
        hist[gap] = hist.get(gap, 0) + 1
        if gap > 0:
            exceptional.append((tuple(cur), fast_d, slow_d))
        if not next_word(cur):
            return hist, exceptional, total


_census_cache: dict[int, CensusResult] = {}


def distance_census(m: int, parallelism: int = 1, limit: int = MAX_SCAN_LEN) -> CensusResult:
    """Gap census over all normalized words of length m (cached per length)."""
    if m > limit:
        raise SizeLimitError(f"length {m} exceeds limit {limit}")
    cached = _census_cache.get(m)
    if cached is not None:
        return cached
    contents = list(positive_compositions(m))
    if parallelism > 1 and len(contents) > 1:
        with get_context("fork").Pool(parallelism) as pool:
            parts = pool.map(_census_content, contents, chunksize=1)
    else:
        parts = [_census_content(c) for c in contents]
    hist: dict[int, int] = {}
    exceptional: list[tuple[Word, int, int]] = []
    total = 0
    for part_hist, part_exc, part_total in parts:
        for gap, count in part_hist.items():
            hist[gap] = hist.get(gap, 0) + count
        exceptional.extend(part_exc)
        total += part_total
    result = CensusResult(m, total, dict(sorted(hist.items())), exceptional)
    _census_cache[m] = result
    return result


def ratio_text(num: int, den: int, places: int = 6) -> str:
    """Decimal rendering of num/den to `places` places, exact until rounding."""
    scaled = round(Fraction(num, den) * 10**places)
    return f"{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def _witnesses(words: list[Word]) -> tuple[list[str], bool]:
    truncated = len(words) > WITNESS_CAP
    return [format_word(w) for w in words[:WITNESS_CAP]], truncated


def find_exceptional(m: int, parallelism: int = 1, limit: int = MAX_SCAN_LEN) -> dict:
    """Census of normalized length-m words whose fast distance exceeds the slow one."""
    start = time.perf_counter()
    census = distance_census(m, parallelism, limit)
    words = [w for w, _, _ in census.exceptional]
    witnesses, truncated = _witnesses(words)
    return {
        "experiment": "exceptional-census",
        "parameters": {"length": m},
        "normalized_words": census.total,
        "exceptional_count": len(words),
        "ratio": ratio_text(len(words), census.total),
        "witnesses": witnesses,
        "truncated": truncated,
        "elapsed_seconds": time.perf_counter() - start,
    }


def gap_census(m: int, gap: int, parallelism: int = 1, limit: int = MAX_SCAN_LEN) -> dict:
    """Count normalized length-m words with fast distance minus slow distance = gap.

    Witnesses are reported for positive gaps (the scan keeps only those words).
    """
    start = time.perf_counter()
    census = distance_census(m, parallelism, limit)
    words = [w for w, df, ds in census.exceptional if df - ds == gap] if gap > 0 else []
    witnesses, truncated = _witnesses(words)
    return {
        "experiment": "gap-census",
        "parameters": {"length": m, "gap": gap},
        "count": census.gap_histogram.get(gap, 0),
        "gap_histogram": {str(g): n for g, n in census.gap_histogram.items()},
        "witnesses": witnesses,
        "truncated": truncated,
        "elapsed_seconds": time.perf_counter() - start,
    }


def scan_conjectures(max_m: int, parallelism: int = 1, limit: int = MAX_SCAN_LEN) -> dict:
    """Desk-scale scan of the three open conjectures, up to length max_m.

    The two bounds are conjectured for words where the slow operator wins
    (elsewhere they fail trivially, e.g. on identity words), so only those
    words are tested: the gap should be at most (m-5)/2, and the fast
    distance at most twice the slow distance minus 2.  The third conjecture
    is monotonicity of the exceptional ratios; the scan reports the sequence.
    """
    start = time.perf_counter()
    gap_bound_violations: list[Word] = []
    double_bound_violations: list[Word] = []
    ratios = []
    checked = 0
    fractions = []
    for m in range(1, max_m + 1):
        census = distance_census(m, parallelism, limit)
        for w, df, ds in census.exceptional:
            checked += 1
            if 2 * (df - ds) > m - 5:
                gap_bound_violations.append(w)
            if df > 2 * ds - 2:
                double_bound_violations.append(w)
        fractions.append(Fraction(len(census.exceptional), census.total))
        ratios.append(
            {
                "length": m,
                "exceptional": len(census.exceptional),
                "normalized": census.total,
                "ratio": ratio_text(len(census.exceptional), census.total),
            }
        )
    gap_bound_violations.sort()
    double_bound_violations.sort()
    return {
        "experiment": "conjecture-scan",
        "parameters": {"max_length": max_m},
        "exceptional_checked": checked,
        "gap_length_bound": {
            "statement": "2 * (fast - slow) <= length - 5 for words with fast > slow",
            "counterexample": format_word(gap_bound_violations[0]) if gap_bound_violations else None,
            "violations": len(gap_bound_violations),
        },
        "double_slow_bound": {
            "statement": "fast <= 2 * slow - 2 for words with fast > slow",
            "counterexample": format_word(double_bound_violations[0]) if double_bound_violations else None,
            "violations": len(double_bound_violations),
        },
        "ratios": ratios,
        "ratios_nondecreasing": all(a <= b for a, b in zip(fractions, fractions[1:])),
        "elapsed_seconds": time.perf_counter() - start,
    }


def fertility_demo(m: int, brute_limit: int = 4, vhc_limit: int = 12) -> dict:
    """Preimage counts of the two witness families, by every available method.

    The permutation witness has 2m preimages, the word with the doubled 1 has
    2m+1, under both operators.  Brute force runs only for m <= brute_limit.
    """
    start = time.perf_counter()
    entries = []
    for extra_one, expected in ((False, 2 * m), (True, 2 * m + 1)):
        word = fertility_witness(m, extra_one)
        per_variant = {}
        for variant in SortVariant:
            counts: dict[str, int | None] = {
                "vhc": count_preimages_vhc(word, variant, limit=vhc_limit),
                "trees": sum(
                    1
                    for config in enumerate_vhc(word, filter_for(variant), limit=vhc_limit)
                    for _ in build_preimage_trees(word, config, variant)
                ),
                "brute": len(brute_preimages(word, variant)) if m <= brute_limit else None,
            }
            per_variant[variant.value] = counts
        entries.append(
            {
                "word": format_word(word),
                "expected": expected,
                "fast": per_variant["fast"],
                "slow": per_variant["slow"],
            }
        )
    return {
        "experiment": "fertility-demo",
        "parameters": {"m": m, "brute_limit": brute_limit},
        "words": entries,
        "elapsed_seconds": time.perf_counter() - start,
    }


def verify_exceptional_pattern_claim(m: int, parallelism: int = 1, limit: int = 9) -> dict:
    """Check that every exceptional length-m word contains an exceptional
    length-7 word as a pattern; reports the violators."""
    if m > limit:
        raise SizeLimitError(f"length {m} exceeds limit {limit}")
    start = time.perf_counter()
    base = [w for w, _, _ in distance_census(7, parallelism).exceptional]
    members = [w for w, _, _ in distance_census(m, parallelism).exceptional]
    violators = [w for w in members if not any(contains_pattern(w, p) for p in base)]
    witnesses, truncated = _witnesses(violators)
    return {
        "experiment": "exceptional-pattern-claim",
        "parameters": {"length": m},
        "members": len(members),
        "violators": len(violators),
        "witnesses": witnesses,
        "truncated": truncated,
        "elapsed_seconds": time.perf_counter() - start,
    }


def report_json(report: dict, include_timing: bool = True) -> str:
    """Serialize a report with stable field order; timing is droppable."""
    if not include_timing:
        report = {k: v for k, v in report.items() if k != "elapsed_seconds"}
    return json.dumps(report, indent=2)
