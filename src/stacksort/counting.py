"""Counting sortable words: recurrences, Fuss-Catalan values, generating trees.

A word sorts to the identity in one fast pass iff it avoids the pattern 231,
and in one slow pass iff it avoids both 231 and 221, so the counters here are
equally counters of pattern-avoiding words with prescribed content.  Both
recurrences condition on how the copies of the largest letter split the word.
All arithmetic is exact (Python integers); memo tables live for the process
and can be persisted to a JSON file purely as a warm-start optimization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Callable, Mapping, Sequence

from .sorting import SortVariant, sort_via_stack
from .words import (
    ContentVector,
    DomainError,
    InvariantError,
    Pattern,
    SizeLimitError,
    Word,
    contains_pattern,
    enumerate_words,
    identity,
    word_space_size,
)

_fast_memo: dict[ContentVector, int] = {}
_slow_memo: dict[ContentVector, int] = {}


def count_fast_sortable(c: ContentVector) -> int:
    """Number of words with content c that one fast pass sorts.

    Recurrence on the second entry: either no letter 2 occurs and the 1s and
    2s fuse, or the word is split by where the last-popped 1-run ends.  Zero
    entries are meaningful and arise inside the recursion.
    """
    if any(k < 0 for k in c):
        raise DomainError("content entries must be nonnegative")
    return _fast_count(tuple(c))


def _fast_count(c: ContentVector) -> int:
    if len(c) <= 1:
        return 1
    cached = _fast_memo.get(c)
    if cached is not None:
        return cached
    rest = c[2:]
    if c[1] == 0:
        value = _fast_count((c[0],) + rest)
    else:
        value = _fast_count((c[0] + c[1],) + rest)
        value += sum(_fast_count((r, c[1] - 1) + rest) for r in range(1, c[0] + 1))
    _fast_memo[c] = value
    return value


def count_slow_sortable(c: ContentVector) -> int:
    """Number of words with content c that one slow pass sorts.

    Zero entries are stripped first: dropping an absent letter value and
    relabeling preserves avoidance counting.  The value never depends on the
    last entry of the (stripped) vector.
    """
    if any(k < 0 for k in c):
        raise DomainError("content entries must be nonnegative")
    return _slow_count(tuple(k for k in c if k))


def _slow_count(c: ContentVector) -> int:
    n = len(c)
    if n <= 1:
        return 1
    cached = _slow_memo.get(c)
    if cached is not None:
        return cached
    head = c[:-1]
    value = 2 * _slow_count(head)
    for i in range(1, n - 1):
        value += _slow_count(c[:i]) * _slow_count(c[i:-1])
    for i in range(1, n):
        for k in range(1, c[i - 1]):
            value += _slow_count(c[: i - 1] + (k,)) * _slow_count((c[i - 1] - k,) + c[i:-1])
    _slow_memo[c] = value
    return value


def fuss_catalan(ell: int, n: int) -> int:
    """(1/(ell*n + 1)) * C((ell+1)*n, n); counts slow-sortable ell-uniform words."""
    if ell < 1 or n < 0:
        raise DomainError("fuss_catalan needs ell >= 1 and n >= 0")
    numerator = comb((ell + 1) * n, n)
    quotient, remainder = divmod(numerator, ell * n + 1)
    if remainder:
        raise InvariantError(f"C({(ell + 1) * n}, {n}) is not divisible by {ell * n + 1}")
    return quotient


@dataclass(frozen=True)
class GenTreeSpec:
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
    themselves, so level sizes may grow combinatorially without cost.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    level: dict[int, int] = {spec.axiom: 1}
    sizes = [1]
    for _ in range(depth - 1):
        nxt: dict[int, int] = {}
        for label, count in level.items():
            for child in spec.children(label):
                nxt[child] = nxt.get(child, 0) + count
        level = nxt
        sizes.append(sum(level.values()))
    return sizes


def brute_count_avoiders(
    c: ContentVector, patterns: Sequence[Pattern], space_limit: int = 2_000_000
) -> int:
    """Count the words in W_c avoiding every given pattern, by exhaustion."""
    if word_space_size(c) > space_limit:
        raise SizeLimitError(f"|W_c| = {word_space_size(c)} exceeds limit {space_limit}")
    return sum(
        1
        for w in enumerate_words(c, limit=sum(c))
        if not any(contains_pattern(w, p) for p in patterns)
    )


def count_t_sortable(
    c: ContentVector, t: int, variant: SortVariant, space_limit: int = 2_000_000
) -> int:
    """Count words in W_c reaching the identity within t passes, by exhaustion."""
    if word_space_size(c) > space_limit:
        raise SizeLimitError(f"|W_c| = {word_space_size(c)} exceeds limit {space_limit}")
    target = identity(c)
    count = 0
    for w in enumerate_words(c, limit=sum(c)):
        cur = w
        steps = 0
        while steps < t and cur != target:
            cur = sort_via_stack(cur, variant)
            steps += 1
        if cur == target:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Memo persistence (optional warm start; results never depend on it)


def save_memo(path: str) -> None:
    data = {
        "fast": {",".join(map(str, k)): str(v) for k, v in _fast_memo.items()},
        "slow": {",".join(map(str, k)): str(v) for k, v in _slow_memo.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def load_memo(path: str) -> None:
    """Merge a `save_memo` file into the memo tables.

    A file that is not in that format raises ValueError (json.JSONDecodeError
    for bad JSON) and leaves the tables untouched.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object with 'fast' and 'slow' tables")
    staged = []
    for key, table in (("fast", _fast_memo), ("slow", _slow_memo)):
        entries = data.get(key, {})
        if not isinstance(entries, dict):
            raise ValueError(f"the {key!r} table is not a JSON object")
        parsed = {}
        for text, value in entries.items():
            try:
                entry = tuple(int(t) for t in text.split(",") if t)
                count = int(value)
            except (TypeError, ValueError):
                raise ValueError(f"bad {key!r} entry {text!r}: {value!r}") from None
            if any(k < 0 for k in entry) or count < 0:
                raise ValueError(f"bad {key!r} entry {text!r}: {value!r}")
            parsed[entry] = count
        staged.append((table, parsed))
    for table, parsed in staged:
        table.update(parsed)


def clear_memo() -> None:
    _fast_memo.clear()
    _slow_memo.clear()
