"""Exhaustive-search experiments over normalized words.

The central scan covers every normalized word of a given length, computes
both sorting distances, and aggregates the gap (fast distance minus slow
distance) into a histogram, keeping the words where the slow operator wins
outright.  It sorts no word: per content class, `image_pair_counts` gives the
(fast image, slow image) pairs with the number of words behind each, and a
word's distance is one more than its image's.  `distances` walks each
distinct fast image once.  A slow image's distance is the West distance of
its ascending standardization, a sorted permutation, so it comes by lookup.
Where only the letter 1 repeats, the fast distances are the slow ones.  The
pairs come from one two-way split of each word at the last copy of its
largest letter.  Only the pairs where slow wins are expanded back into their
words, by running that split backwards.  Everything downstream (the
exceptional-word census, gap counts, conjecture scans) reads off one such
scan.  Each call runs its own scan and the process keeps none of it, so
what a caller does to a result changes no other.

Inside this engine words are `bytes`, which hash and slice faster than
tuples, and they leave it as tuples.  The pairs of small block contents
recur across classes, so a process keeps them for one census in `_pair_memo`.
It keeps the slow distances for one census in `_slow_memo`, one per sorted
permutation of length m met (at most 1,780 at length 8, 11,033 at length 9),
and walks only the slow images it misses.

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
from itertools import islice, product
from typing import Iterable, Iterator, NamedTuple

from .sorting import (
    SortVariant,
    distance_bound,
    distances,
    fertility_witness,
    sort_via_stack,
)
from .words import (
    MAX_ENUM_SUM,
    MAX_SCAN_LEN,  # re-exported: the length bound of every scan here
    MAX_VHC_LEN,
    ContentVector,
    DomainError,
    InvariantError,
    Word,
    check_limit,
    check_scan_length,
    content,
    enumerate_words,
    format_word,
    positive_compositions,
)

WITNESS_CAP = 1000
FERTILITY_BRUTE_MAX = 4  # fertility_demo runs brute force for m up to this


class CensusResult(NamedTuple):
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
    check_limit("word length", sum(c), MAX_ENUM_SUM)
    return {(tuple(f), tuple(s)): x for (f, s), x in _pair_counts(c, {}).items()}


def _pair_counts(c: ContentVector, memo: dict) -> dict[tuple[bytes, bytes], int]:
    """The pairs of W_c, for c without trailing zeros, as `bytes` words;
    `memo` keeps the pairs of every content met, under that same key.  A
    census passes `_pair_memo`, so later classes reuse the small blocks."""
    got = memo.get(c)
    if got is not None:
        return got
    out = memo[c] = {}
    if not c:
        out[b"", b""] = 1
        return out
    n, k = len(c), c[-1]
    sep = bytes((n,))
    tail = sep * k
    for a, b in _splits(c[:-1]):
        cut = sum(a)  # the length of fast(A) without its k - 1 trailing n's
        right = _pair_counts(_strip_zeros(b), memo).items()
        for (f, s), x in _pair_counts(_strip_zeros(a + (k - 1,)), memo).items():
            f = f[:cut]
            for (g, t), y in right:
                key = (f + g + tail, s + t + sep)
                if k == 1:
                    out[key] = out.get(key, 0) + x * y
                elif key in out:  # the slow image fixes the split: a theorem
                    raise InvariantError(f"pair {key} arises twice in W_{c}")
                else:
                    out[key] = x * y
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


# Pairs of block contents, and the slow distances of slow images under their
# ascending standardizations, kept across the classes of one census in this
# process (see `_census_content`), so one census runs at a time.
_pair_memo: dict[ContentVector, dict[tuple[bytes, bytes], int]] = {}
_slow_memo: dict[bytes, int] = {}


def _census_content(c: tuple[int, ...]) -> tuple[dict[int, int], list]:
    """Scan one content class through its (fast image, slow image) pair counts.

    A word's distance is one more than its image's (the identity's is 0, but
    it is its own image under both operators and lands at gap 0 either way),
    so a pair (f, s) adds its count at gap d_fast(f) - d_slow(s).
    `distances` walks the distinct fast images once.  A slow image's distance
    is the West distance of its ascending standardization (see
    `standardize_ascending`), so `_slow_memo` keeps it under that
    permutation for every class of the census; only the misses are walked.
    Its keys are sorted permutations of length m, so it holds at most as
    many as there are: 1,780 at length 8, 11,033 at length 9, 76,028 at
    length 10.  Every value looked up is checked against the class's slow
    bound.

    When only the letter 1 repeats (c[1:] all ones) the two operators are one
    map on W_c: an equal stack top can only be a 1, and no smaller letter
    arrives before it leaves.  So there f = s, and the fast distances are
    the slow ones.

    Only the pairs with a positive gap are expanded back into words, by
    `_words_with_pair`, and their number must equal the pairs' count.

    The pairs go into `_pair_memo`, and when the class is done only its
    contents of sum <= m - 2 stay there for the next class: the class's own
    pairs and the blocks of sum m - 1, each used by at most one other class,
    are the largest.  Every content of an earlier class that stayed has sum
    <= m - 2, so only the contents this class added are looked at.
    `distance_census` empties both memos when it returns.
    """
    memo = _pair_memo
    before = len(memo)
    pairs = _pair_counts(c, memo)
    slow_d = _slow_distances(c, (s for _, s in pairs))
    if all(k == 1 for k in c[1:]):  # f = s in every pair
        fast_d = slow_d
    else:
        fast = list(dict.fromkeys(f for f, _ in pairs))
        fast_d = dict(zip(fast, distances(fast, SortVariant.FAST)))
    hist: dict[int, int] = {}
    wanted: list[tuple[bytes, bytes]] = []
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
    keep = sum(c) - 2
    for b in [b for b in islice(reversed(memo), len(memo) - before) if sum(b) > keep]:
        del memo[b]
    return hist, [(tuple(w), df, ds) for w, df, ds in words]


def _slow_distances(c: ContentVector, images: Iterable[bytes]) -> dict[bytes, int]:
    """The slow distances of words of W_c, through `_slow_memo`.

    A word's key is its ascending standardization with 128 added to each
    value, so that no value is a letter: `table` maps each letter with one
    copy to its value, and the copies of a repeated letter take theirs one
    by one, leftmost first.
    """
    memo = _slow_memo
    table = bytearray(range(256))
    copies: list[tuple[bytes, bytes]] = []  # (letter, value) per copy of a repeated letter
    value = 128
    for i, k in enumerate(c, 1):
        if k == 1:
            table[i] = value + 1
        else:
            copies += [(bytes((i,)), bytes((value + j,))) for j in range(1, k + 1)]
        value += k
    table = bytes(table)
    keys = {}
    for s in dict.fromkeys(images):
        key = s.translate(table)
        for letter, new in copies:
            key = key.replace(letter, new, 1)
        keys[s] = key
    misses = [s for s, key in keys.items() if key not in memo]
    for s, d in zip(misses, distances(misses, SortVariant.SLOW)):
        memo[keys[s]] = d
    out = {s: memo[key] for s, key in keys.items()}
    bound = distance_bound(c, SortVariant.SLOW)
    if max(out.values()) > bound:  # a theorem: no memo entry exceeds it
        raise InvariantError(f"a slow distance in W_{c} exceeds the bound {bound}")
    return out


def _words_with_pair(c: ContentVector, f: bytes, s: bytes, memo: dict, listed: dict) -> list[bytes]:
    """The words of W_c with pair (f, s), for (f, s) in memo[c], as
    `_pair_counts` left it, all as `bytes`.

    This runs the split w = A n B of `image_pair_counts` backwards.  With
    k >= 2 copies of n the last n but one of s ends slow(A); with k = 1 every
    length of A is tried.  A split gives words iff both parts' pairs are in
    the memo.  A is split again while it holds an n; the n-free parts are
    listed by `_block_words`.
    """
    n, k = len(c), c[-1]
    sep = bytes((n,))
    lengths = [s.rindex(n, 0, -1) + 1] if k > 1 else range(len(s))
    out: list[bytes] = []
    for i in lengths:  # the length of A
        j = i - k + 1  # fast(A) is f[:j] and its k - 1 trailing n's
        left, right = (f[:j] + sep * (k - 1), s[:i]), (f[j:-k], s[i:-1])
        a, b = content(left[1]), content(right[1])
        if left not in memo[a] or right not in memo[b]:
            continue
        lefts = _words_with_pair(a, *left, memo, listed) if k > 1 else _block_words(a, listed)[left]
        rights = _block_words(b, listed)[right]
        out += [x + sep + y for x in lefts for y in rights]
    return out


def _block_words(b: tuple[int, ...], listed: dict) -> dict[tuple[bytes, bytes], list[bytes]]:
    by_pair = listed.get(b)
    if by_pair is None:
        by_pair = listed[b] = {}
        for w in map(bytes, enumerate_words(b)):
            key = (sort_via_stack(w, SortVariant.FAST), sort_via_stack(w, SortVariant.SLOW))
            by_pair.setdefault(key, []).append(w)
    return by_pair


def distance_census(m: int, parallelism: int = 1) -> CensusResult:
    """Gap census over all normalized words of length m, computed on every call.

    It runs on at most `parallelism` worker processes, and never on more than
    there are CPUs or content classes.  The process keeps nothing of it.
    """
    check_scan_length(m)
    contents = list(positive_compositions(m))
    workers = min(parallelism, os.cpu_count() or 1, len(contents))
    try:
        if workers > 1:
            from multiprocessing import get_context

            with get_context("fork").Pool(workers) as pool:
                parts = pool.map(_census_content, contents, chunksize=1)
        else:
            parts = [_census_content(c) for c in contents]
    finally:
        _pair_memo.clear()
        _slow_memo.clear()
    hist: dict[int, int] = {}
    exceptional: list[tuple[Word, int, int]] = []
    for part_hist, part_exc in parts:
        for gap, count in part_hist.items():
            hist[gap] = hist.get(gap, 0) + count
        exceptional.extend(part_exc)
    return CensusResult(m, sum(hist.values()), dict(sorted(hist.items())), exceptional)


def ratio_text(num: int, den: int) -> str:
    """Decimal rendering of num/den to 6 places, exact until rounding."""
    from fractions import Fraction

    scaled = round(Fraction(num, den) * 10**6)
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


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
    A witness longer than MAX_VHC_LEN is refused before either is built.
    """
    for n in (2 * m, 2 * m + 1):  # the witnesses' lengths
        check_limit("word length", n, MAX_VHC_LEN)
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


def report_json(report: dict) -> str:
    """Serialize a report with stable field order."""
    import json

    return json.dumps(report, indent=2)
