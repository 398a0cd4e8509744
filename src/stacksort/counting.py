"""Counting sortable words: generating trees and Fuss-Catalan values.

A word sorts to the identity in one fast pass iff it avoids the pattern 231,
and in one slow pass iff it avoids both 231 and 221, so the counters here are
equally counters of pattern-avoiding words with prescribed content.  Both walk
the paper's generating trees: the copies of each letter value in turn join,
as the new largest letter, words labelled by their sites (cut points, ends
included, with no letter before larger than one after; the empty word has
one).  All arithmetic is exact (Python integers).

Each memo holds one count per key for the process; a missing key is walked
from the empty word.  The fast count ignores zeros and is symmetric, so its
key is the sorted nonzero content; the slow count never reads the last entry
of the zero-free content, so its key is that content without it.  A count of
1 (at most one nonzero entry) is not stored.  A key summing past
MAX_TREE_DEPTH is refused (SizeLimitError) when it would be walked.  The
memos can be saved to a JSON file purely as a warm start (`json` is imported
only then).
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import add
from typing import Callable, Mapping, NamedTuple, Sequence

from .words import (
    MAX_SPACE,
    MAX_TREE_DEPTH,
    MAX_UNIFORM_LEN,
    ContentVector,
    DomainError,
    InvariantError,
    Pattern,
    SizeLimitError,
    Word,
    contains_pattern,
    enumerate_words,
    word_space_size,
)

_fast_memo: dict[ContentVector, int] = {}
_slow_memo: dict[ContentVector, int] = {}


def count_fast_sortable(c: ContentVector) -> int:
    """Number of words with content c that one fast pass sorts.

    The count walks the fast generating tree, of words avoiding 231.  k
    copies of a new largest letter extend one with L sites in two ways: all
    at the end, giving L + k sites; or the first into the r-th site, r < L,
    and j of the others (0 <= j < k) at the end, giving r + j + 1 sites in
    C(k-j-1 + L-r-1, k-j-1) ways.  An absent letter value adds nothing, and
    the count is symmetric in c.
    """
    if min(c, default=0) < 0:
        raise DomainError("content entries must be nonnegative")
    return _memoized(_fast_memo, _fast_walk, tuple(sorted(filter(None, c))))


def _fast_walk(c: ContentVector) -> int:
    """The fast count of c.  Summed over L, the binomial above is the
    (k-j)-fold suffix sum of the counts per label, read at label r + 1.
    `ways[i]` counts the words with len(ways) - i sites, so such a suffix
    sum is a prefix sum (`accumulate`) here, and a letter costs k passes.
    """
    if len(c) < 2:
        return 1
    _check_depth(c)
    ways = [1]
    for k in c:
        grown = [*ways, *[0] * k]
        sums = ways[:-1]  # the labels L >= 2, which have a site r < L
        for t in range(1, k + 1):  # t = k - j
            sums = [*accumulate(sums)]
            grown[t : t + len(sums)] = map(add, grown[t : t + len(sums)], sums)
        ways = grown
    return sum(ways)


def count_slow_sortable(c: ContentVector) -> int:
    """Number of words with content c that one slow pass sorts.

    The count walks the paper's generating tree, of words avoiding 231 and
    221, on c without its zeros.  k copies of a new largest letter extend
    one exactly when the first goes into a site and the rest at the end;
    into the r-th site, that gives r + k sites.  The copies of the last
    letter go into any site, so its entry is never read.
    """
    if min(c, default=0) < 0:
        raise DomainError("content entries must be nonnegative")
    return _memoized(_slow_memo, _slow_walk, tuple(filter(None, c))[:-1])


def _slow_walk(c: ContentVector) -> int:
    """The slow count of c + (a,) for any a; `ways` is as in `_fast_walk`."""
    _check_depth(c)
    ways = [1]
    for k in c:
        ways = [*accumulate(ways), *[0] * k]
    return sum(accumulate(ways))


def _check_depth(c: ContentVector) -> None:
    """Refuse a walk deeper than MAX_TREE_DEPTH letters: its label list and
    passes grow with the depth, as `generating_tree_level_counts` levels do."""
    if sum(c) > MAX_TREE_DEPTH:
        raise SizeLimitError(f"a walk of {sum(c)} letters exceeds limit {MAX_TREE_DEPTH}")


def _memoized(memo: dict, walk: Callable[[ContentVector], int], key: ContentVector) -> int:
    """walk(key), kept in memo unless it is 1 (a single letter value)."""
    value = memo.get(key)
    if value is None:
        value = walk(key)
        if value > 1:
            memo[key] = value
    return value


def fuss_catalan(ell: int, n: int) -> int:
    """(1/(ell*n + 1)) * C((ell+1)*n, n); counts slow-sortable ell-uniform words.

    Its digits grow with the words' length ell * n, and printing them with
    its square, so a length above MAX_UNIFORM_LEN raises SizeLimitError.
    """
    if ell < 1 or n < 0:
        raise DomainError("fuss_catalan needs ell >= 1 and n >= 0")
    if ell * n > MAX_UNIFORM_LEN:
        raise SizeLimitError(f"uniform length {ell * n} exceeds limit {MAX_UNIFORM_LEN}")
    numerator = comb((ell + 1) * n, n)
    quotient, remainder = divmod(numerator, ell * n + 1)
    if remainder:
        raise InvariantError(f"C({(ell + 1) * n}, {n}) is not divisible by {ell * n + 1}")
    return quotient


class GenTreeSpec(NamedTuple):
    """A generating tree: the axiom label and the succession rule.

    The rule maps a label to the labels of the objects it generates; it may be
    a mapping (finite rules) or a callable (unbounded label sets).
    """

    axiom: int
    rule: Mapping[int, Sequence[int]] | Callable[[int], Sequence[int]]

    def children(self, label: int) -> Sequence[int]:
        if callable(self.rule):
            return self.rule(label)
        try:
            return self.rule[label]
        except KeyError:
            raise DomainError(f"succession rule undefined for label {label}") from None


FIBONACCI_TREE = GenTreeSpec(axiom=2, rule={1: (2,), 2: (1, 2)})


def uniform_avoider_tree(ell: int) -> GenTreeSpec:
    """Generating tree of normalized ell-uniform words avoiding 231 and 221.

    Axiom ell+1; a label-m object generates children ell+1, ell+2, ..., ell+m.
    Level n therefore has the (ell+1)-Catalan count of objects.
    """
    if ell < 1:
        raise DomainError("ell must be >= 1")
    return GenTreeSpec(axiom=ell + 1, rule=lambda m: range(ell + 1, ell + m + 1))


def generating_tree_level_counts(spec: GenTreeSpec, depth: int) -> list[int]:
    """Number of nodes on each of the first `depth` levels (level 1 is the axiom).

    Only label multiplicities are tracked per level, never the nodes
    themselves.  The counts still grow in digits with the depth, and the
    labels in number, so a depth above MAX_TREE_DEPTH, or more than
    MAX_SPACE (label, child) steps in all, raises SizeLimitError.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if depth > MAX_TREE_DEPTH:
        raise SizeLimitError(f"depth {depth} exceeds limit {MAX_TREE_DEPTH}")
    level: dict[int, int] = {spec.axiom: 1}
    sizes = [1]
    steps = 0
    for _ in range(depth - 1):
        nxt: dict[int, int] = {}
        for label, count in level.items():
            children = spec.children(label)
            steps += len(children)
            if steps > MAX_SPACE:
                raise SizeLimitError(f"more than {MAX_SPACE} (label, child) steps")
            for child in children:
                nxt[child] = nxt.get(child, 0) + count
        level = nxt
        sizes.append(sum(level.values()))
    return sizes


def brute_count_avoiders(
    c: ContentVector, patterns: Sequence[Pattern], space_limit: int = MAX_SPACE
) -> int:
    """Count the words in W_c avoiding every given pattern, by exhaustion with prefix skipping.

    If w has an occurrence of a pattern ending at e, so does every later word
    of W_c sharing w[:e-1]: such a word either shares w[:e] as well, or has
    a larger letter in place of w[e-1] and w[e-1] further right.  So when a
    word contains a pattern, the walk over W_c skips the later words sharing
    w[:e-1], and still counts exactly the avoiders.  Each pattern is scanned
    once, a later one only in w[:e-1] for the end e found so far: that
    prefix holds every occurrence ending before e, so the skip is never
    later than the smallest end `contains_pattern` reports on w.
    """
    size = word_space_size(c)
    if size > space_limit:
        raise SizeLimitError(f"|W_c| = {size} exceeds limit {space_limit}")

    def reject(w: Word) -> int:
        end = 0
        for p in patterns:
            end = contains_pattern(w[: end - 1] if end else w, p) or end
        return end

    return sum(1 for _ in enumerate_words(c, reject=reject))


# ---------------------------------------------------------------------------
# Memo persistence (optional warm start; results never depend on it)


def save_memo(path: str) -> None:
    """Write the memo tables to `path` as JSON maps from contents to counts.

    The file holds one content per memo key: the fast key itself, and the
    slow key with a last entry of 1 appended.  It is written beside `path`
    under a temporary name and then renamed over it, so a failed write
    leaves the old file whole.
    """
    import json
    import os

    data = {
        "fast": {",".join(map(str, key)): str(v) for key, v in _fast_memo.items()},
        "slow": {",".join(map(str, key + (1,))): str(v) for key, v in _slow_memo.items()},
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_memo(path: str) -> None:
    """Merge a `save_memo` file into the memo tables.

    Each entry is a content and its count, checked against a fresh walk of
    the generating tree, so a loaded file cannot change a result.  Contents
    with one memo key may all appear, so files written under other keys
    load too.  A file that is not in that format, with a count the walk
    contradicts, with a slow entry holding a zero, or with an entry too large
    to walk raises ValueError (json.JSONDecodeError for bad JSON) before any
    entry is merged.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object with 'fast' and 'slow' tables")
    staged = []
    for name, memo, walk in (("fast", _fast_memo, _fast_walk), ("slow", _slow_memo, _slow_walk)):
        entries = data.get(name, {})
        if not isinstance(entries, dict):
            raise ValueError(f"the {name!r} table is not a JSON object")
        for text, value in entries.items():
            try:
                entry = tuple(int(t) for t in text.split(",") if t)
                count = int(value)
            except (TypeError, ValueError):
                raise ValueError(f"bad {name!r} entry {text!r}: {value!r}") from None
            if any(k < 0 for k in entry) or count < 0:
                raise ValueError(f"bad {name!r} entry {text!r}: {value!r}")
            if name == "slow" and 0 in entry:
                raise ValueError(f"'slow' entry {text!r} has a zero entry")
            key = tuple(sorted(filter(None, entry))) if name == "fast" else entry[:-1]
            try:
                expected = walk(key)
            except SizeLimitError as exc:
                raise ValueError(f"{name!r} entry {text!r}: {exc}") from None
            if count != expected:
                raise ValueError(f"{name!r} entry {entry} is {count}; the generating tree gives {expected}")
            if count > 1:
                staged.append((memo, key, count))
    for memo, key, count in staged:
        memo[key] = count


def clear_memo() -> None:
    _fast_memo.clear()
    _slow_memo.clear()
