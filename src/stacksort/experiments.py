"""Exhaustive-search experiments over normalized words.

The central scan covers every normalized word of a given length, computes
both sorting distances, and aggregates the gap (fast distance minus slow
distance) into a histogram, keeping the words where the slow operator wins
outright.  It sorts no word: per content class, `image_pair_counts` gives the
(fast image, slow image) pairs with the number of words behind each, a
word's distance is one more than its image's, and `distances` walks each
distinct image once per operator.  The pairs come from one two-way split of
each word at the last copy of its largest letter.  Only the pairs where slow
wins are expanded back into their words, by running that split backwards.
Everything downstream (the exceptional-word census, gap counts, conjecture
scans) reads off one such scan, which is cached per length in-process.

Scans partition the word space by content vector, so they parallelize without
changing output: partitions are merged in canonical (lexicographic content)
order regardless of worker scheduling.  Reports are plain dicts with a fixed
key order so identical inputs yield byte-identical JSON once the timing field
is dropped.

`multiprocessing`, `fractions`, `json` and `hooks` are imported inside the
functions that use them, so a command-line run loads only what it calls.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .sorting import (
    SortVariant,
    distances,
    fertility_witness,
    sort_via_stack,
)
from .words import (
    MAX_SCAN_LEN,  # re-exported: the length bound of every scan here
    ContentVector,
    DomainError,
    InvariantError,
    SizeLimitError,
    Word,
    check_scan_length,
    contains_pattern,
    content,
    enumerate_words,
    format_word,
    positive_compositions,
)

WITNESS_CAP = 1000
FERTILITY_BRUTE_MAX = 4  # fertility_demo runs brute force for m up to this
MAX_ENUM_SUM = 12  # largest word length whose class `image_pair_counts` takes on


@dataclass
class CensusResult:
    """Distance-gap census of all normalized words of one length."""

    length: int
    total: int
    gap_histogram: dict[int, int]
    exceptional: list[tuple[Word, int, int]]  # (word, fast distance, slow distance)


def image_pair_counts(c: ContentVector) -> dict[tuple[Word, Word], int]:
    """The pairs (sort_fast(w), sort_slow(w)) over w in W_c, with multiplicities.

    Write w = A n B with n the largest letter (k copies) and B free of n, so
    that A holds the other k - 1 copies.  West's s(LnR) = s(L) s(R) n gives

        slow(w) = slow(A) slow(B) n,
        fast(w) = fast(A) without its k - 1 trailing n's, then fast(B), n^k.

    So the pair of w depends only on the pairs of A and B, and the class sums
    over every split (a, b) of the smaller letters every combination of a
    pair of A (content a with k - 1 appended) and a pair of B (content b),
    with the product of their multiplicities.  For k = 1 equal pairs add up.
    For k >= 2, slow(A) ends in n and slow(B) holds none, so the last n but
    one of the slow image marks where slow(A) ends: the slow image fixes the
    split and both pieces, and the length of A then cuts the fast image too.
    So no pair arises twice, and a repeat raises `InvariantError`.
    """
    c = _strip_zeros(tuple(c))
    if any(k < 0 for k in c):
        raise DomainError("content entries must be nonnegative")
    if sum(c) > MAX_ENUM_SUM:
        raise SizeLimitError(f"word length {sum(c)} exceeds limit {MAX_ENUM_SUM}")
    return _pair_counts(c, {})


def _pair_counts(c: ContentVector, memo: dict) -> dict[tuple[Word, Word], int]:
    """The pairs of W_c, for c without trailing zeros; `memo` keeps the pairs
    of every content met, under that same key."""
    got = memo.get(c)
    if got is not None:
        return got
    out = memo[c] = {}
    if not c:
        out[(), ()] = 1
        return out
    n, k = len(c), c[-1]
    tail, sep = (n,) * k, (n,)
    for a, b in _splits(c[:-1]):
        cut = sum(a)  # the length of fast(A) without its k - 1 trailing n's
        right = _pair_counts(_strip_zeros(b), memo).items()
        for (f, s), x in _pair_counts(_strip_zeros(a + (k - 1,)), memo).items():
            f = f[:cut]
            for (g, t), y in right:
                key = (f + g + tail, s + t + sep)
                if k > 1 and key in out:  # the slow image fixes the split: a theorem
                    raise InvariantError(f"pair {key} arises twice in W_{c}")
                out[key] = out.get(key, 0) + x * y
    return out


def _splits(c: ContentVector) -> Iterator[tuple[ContentVector, ContentVector]]:
    """Every way to share out the letters of c between two blocks, once each,
    as full-length contents (a, b) with a + b = c."""
    for a in product(*(range(x + 1) for x in c)):
        yield a, tuple(map(int.__sub__, c, a))


def _strip_zeros(c: ContentVector) -> ContentVector:
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return c[:end]


def _census_content(c: tuple[int, ...]) -> tuple[dict[int, int], list, int]:
    """Scan one content class through its (fast image, slow image) pair counts.

    A word's distance is one more than its image's (the identity's is 0, but
    it is its own image under both operators and lands at gap 0 either way),
    so a pair (f, s) adds its count at gap d_fast(f) - d_slow(s).
    `distances` walks the distinct fast images once and the distinct slow
    images once.  Only the pairs with a positive gap are expanded back into
    words, by `_words_with_pair`, and their number must equal the pairs' count.
    """
    memo: dict = {}
    pairs = _pair_counts(c, memo)
    fast_d = _image_distances([f for f, _ in pairs], SortVariant.FAST)
    slow_d = _image_distances([s for _, s in pairs], SortVariant.SLOW)
    hist: dict[int, int] = {}
    wanted: list[tuple[Word, Word]] = []
    for (f, s), count in pairs.items():
        gap = fast_d[f] - slow_d[s]
        hist[gap] = hist.get(gap, 0) + count
        if gap > 0:
            wanted.append((f, s))
    listed: dict = {}
    words = sorted((w, fast_d[f] + 1, slow_d[s] + 1) for f, s in wanted
                   for w in _words_with_pair(c, f, s, memo, listed))
    if len(words) != sum(pairs[pair] for pair in wanted):
        raise InvariantError(f"the exceptional pairs of W_{c} expand to {len(words)} words")
    return hist, words, sum(hist.values())


def _image_distances(images: list[Word], variant: SortVariant) -> dict[Word, int]:
    distinct = list(dict.fromkeys(images))
    return dict(zip(distinct, distances(distinct, variant)))


def _words_with_pair(c: ContentVector, f: Word, s: Word, memo: dict, listed: dict) -> list[Word]:
    """The words of W_c with pair (f, s), for (f, s) in memo[c], as
    `_pair_counts` left it.

    This runs the split w = A n B of `image_pair_counts` backwards.  With
    k >= 2 copies of n the last n but one of s ends slow(A); with k = 1 every
    length of A is tried.  A split gives words iff both parts' pairs are in
    the memo.  A is split again while it holds an n; the n-free parts are
    listed by `_block_words`.
    """
    n, k = len(c), c[-1]
    head = s[:-1]
    lengths = [len(head) - head[::-1].index(n)] if k > 1 else range(len(s))
    out: list[Word] = []
    for i in lengths:  # the length of A
        j = i - k + 1  # fast(A) is f[:j] and its k - 1 trailing n's
        left, right = (f[:j] + (n,) * (k - 1), s[:i]), (f[j:-k], s[i:-1])
        a, b = content(left[1]), content(right[1])
        if left not in memo[a] or right not in memo[b]:
            continue
        lefts = _words_with_pair(a, *left, memo, listed) if k > 1 else _block_words(a, listed)[left]
        rights = _block_words(b, listed)[right]
        out += [x + (n,) + y for x in lefts for y in rights]
    return out


def _block_words(b: tuple[int, ...], listed: dict) -> dict[tuple[Word, Word], list[Word]]:
    by_pair = listed.get(b)
    if by_pair is None:
        by_pair = listed[b] = {}
        for w in enumerate_words(b):
            key = (sort_via_stack(w, SortVariant.FAST), sort_via_stack(w, SortVariant.SLOW))
            by_pair.setdefault(key, []).append(w)
    return by_pair


_census_cache: dict[int, CensusResult] = {}


def distance_census(m: int, parallelism: int = 1) -> CensusResult:
    """Gap census over all normalized words of length m (cached per length).

    It runs on at most `parallelism` worker processes, and never on more than
    there are CPUs or content classes.
    """
    check_scan_length(m)
    cached = _census_cache.get(m)
    if cached is not None:
        return cached
    contents = list(positive_compositions(m))
    workers = min(parallelism, os.cpu_count() or 1, len(contents))
    if workers > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(workers) as pool:
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
    from fractions import Fraction

    scaled = round(Fraction(num, den) * 10**places)
    return f"{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def _witnesses(words: list[Word]) -> tuple[list[str], bool]:
    truncated = len(words) > WITNESS_CAP
    return [format_word(w) for w in words[:WITNESS_CAP]], truncated


def find_exceptional(m: int, parallelism: int = 1) -> dict:
    """Census of normalized length-m words whose fast distance exceeds the slow one."""
    start = time.perf_counter()
    census = distance_census(m, parallelism)
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


def gap_census(m: int, gap: int, parallelism: int = 1) -> dict:
    """Count normalized length-m words with fast distance minus slow distance = gap.

    Witnesses are reported for positive gaps (the scan keeps only those words).
    """
    start = time.perf_counter()
    census = distance_census(m, parallelism)
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


def scan_conjectures(max_m: int, parallelism: int = 1) -> dict:
    """Desk-scale scan of the three open conjectures, up to length max_m.

    The two bounds are conjectured for words where the slow operator wins
    (elsewhere they fail trivially, e.g. on identity words), so only those
    words are tested: the gap should be at most (m-5)/2, and the fast
    distance at most twice the slow distance minus 2.  The third conjecture
    is monotonicity of the exceptional ratios; the scan reports the sequence.
    """
    from fractions import Fraction

    check_scan_length(max_m)
    start = time.perf_counter()
    censuses = [distance_census(m, parallelism) for m in range(1, max_m + 1)]
    rows = [(w, c.length, df, ds) for c in censuses for w, df, ds in c.exceptional]

    def bound(statement: str, breaks) -> dict:
        violators = [w for w, m, df, ds in rows if breaks(m, df, ds)]
        example = format_word(min(violators)) if violators else None
        return {"statement": statement, "counterexample": example, "violations": len(violators)}

    fractions = [Fraction(len(c.exceptional), c.total) for c in censuses]
    return {
        "experiment": "conjecture-scan",
        "parameters": {"max_length": max_m},
        "exceptional_checked": len(rows),
        "gap_length_bound": bound("2 * (fast - slow) <= length - 5 for words with fast > slow",
                                  lambda m, df, ds: 2 * (df - ds) > m - 5),
        "double_slow_bound": bound("fast <= 2 * slow - 2 for words with fast > slow",
                                   lambda m, df, ds: df > 2 * ds - 2),
        "ratios": [
            {"length": c.length, "exceptional": len(c.exceptional), "normalized": c.total,
             "ratio": ratio_text(len(c.exceptional), c.total)}
            for c in censuses
        ],
        "ratios_nondecreasing": all(a <= b for a, b in zip(fractions, fractions[1:])),
        "elapsed_seconds": time.perf_counter() - start,
    }


def fertility_demo(m: int) -> dict:
    """Preimage counts of the two witness families, by every available method.

    The permutation witness has 2m preimages, the word with the doubled 1 has
    2m+1, under both operators.  Brute force runs only for m <= FERTILITY_BRUTE_MAX.
    """
    from .hooks import brute_preimages, count_preimages_vhc, in_order_preimages

    start = time.perf_counter()
    entries = []
    for extra_one, expected in ((False, 2 * m), (True, 2 * m + 1)):
        word = fertility_witness(m, extra_one)
        per_variant = {}
        for variant in SortVariant:
            counts: dict[str, int | None] = {
                "vhc": count_preimages_vhc(word, variant),
                "trees": len(in_order_preimages(word, variant)),
                "brute": len(brute_preimages(word, variant)) if m <= FERTILITY_BRUTE_MAX else None,
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
        "parameters": {"m": m, "brute_limit": FERTILITY_BRUTE_MAX},
        "words": entries,
        "elapsed_seconds": time.perf_counter() - start,
    }


def verify_exceptional_pattern_claim(m: int, parallelism: int = 1) -> dict:
    """Check that every exceptional length-m word (m <= MAX_SCAN_LEN) contains
    an exceptional length-7 word as a pattern; reports the violators."""
    check_scan_length(m)
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


def report_json(report: dict) -> str:
    """Serialize a report with stable field order."""
    import json

    return json.dumps(report, indent=2)
