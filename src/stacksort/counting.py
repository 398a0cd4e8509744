"""Counting sortable words: recurrences, Fuss-Catalan values, generating trees.

A word sorts to the identity in one fast pass iff it avoids the pattern 231,
and in one slow pass iff it avoids both 231 and 221, so the counters here are
equally counters of pattern-avoiding words with prescribed content.  Both
recurrences condition on how the copies of the largest letter split the word.
All arithmetic is exact (Python integers); memo tables live for the process
and can be persisted to a JSON file purely as a warm-start optimization
(`json` is imported only then).

Each memo is keyed by what its count reads of the content, so that contents
with one count share one entry.  The fast count ignores zero entries and is
symmetric in the content, so `_fast_memo` is keyed by the sorted nonzero
entries.  The slow count is taken on the zero-free content and never reads
its last entry, so `_slow_memo` is keyed by the zero-free content without
its last entry.  A key with a count of 1 (at most one nonzero entry) is not
stored.  Each step runs on a content as it is asked for, not on a canonical
one, and each key remembers the first content its value was taken at
(`_Recurrence.contents`): the fast step on a sorted content reads many more
distinct keys than on the content asked for (3,300 against 666 for (4,)*10),
and `save_memo` writes those contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Mapping, NamedTuple, Sequence

from .words import (
    MAX_SPACE,
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

    Recurrence on the second entry: either no letter 2 occurs and the 1s and
    2s fuse, or the word is split by where the last-popped 1-run ends.  Zero
    entries are meaningful and arise inside the recursion.
    """
    if any(k < 0 for k in c):
        raise DomainError("content entries must be nonnegative")
    return _evaluate(_FAST, tuple(c))


def _fast_step(c: ContentVector, count: Callable[[ContentVector], int]) -> int:
    """One step of the fast recurrence (len(c) >= 2), reading smaller values from `count`."""
    rest = c[2:]
    if c[1] == 0:
        return count((c[0],) + rest)
    value = count((c[0] + c[1],) + rest)
    return value + sum(count((r, c[1] - 1) + rest) for r in range(1, c[0] + 1))


def _fast_key(c: ContentVector) -> ContentVector | None:
    """The memo key of c's fast count: its nonzero entries sorted, or None
    when at most one is left and the count is 1."""
    key = tuple(sorted(filter(None, c)))
    return key if len(key) > 1 else None


def count_slow_sortable(c: ContentVector) -> int:
    """Number of words with content c that one slow pass sorts.

    Zero entries are stripped first: dropping an absent letter value and
    relabeling preserves avoidance counting.  The value never depends on the
    last entry of the (stripped) vector.
    """
    if any(k < 0 for k in c):
        raise DomainError("content entries must be nonnegative")
    return _evaluate(_SLOW, tuple(k for k in c if k))


def _slow_step(c: ContentVector, count: Callable[[ContentVector], int]) -> int:
    """One step of the slow recurrence (c zero-free, len(c) >= 2), reading
    smaller values from `count`.

    c[-1] is never read.  The sum over the splits of c[i-1] has the factor
    count(c[:i-1] + (k,)) in every term, which does not depend on k; the
    count of c[:i] stands for it.
    """
    n = len(c)
    value = 2 * count(c[:-1])
    for i in range(1, n - 1):
        value += count(c[:i]) * count(c[i:-1])
    for i in range(1, n):
        if c[i - 1] > 1:
            tail = c[i:-1]
            value += count(c[:i]) * sum(count((k,) + tail) for k in range(1, c[i - 1]))
    return value


def _slow_key(c: ContentVector) -> ContentVector | None:
    """The memo key of a zero-free c's slow count: c without its last entry,
    or None when c has at most one entry and the count is 1."""
    return c[:-1] if len(c) > 1 else None


class _Recurrence(NamedTuple):
    """A memoized recurrence: its step, the memo key of a content (None for a
    count of 1), the memo, and per key the first content its value was taken at."""

    name: str
    step: Callable[[ContentVector, Callable[[ContentVector], int]], int]
    key: Callable[[ContentVector], ContentVector | None]
    memo: dict[ContentVector, int]
    contents: dict[ContentVector, ContentVector]


_FAST = _Recurrence("fast", _fast_step, _fast_key, _fast_memo, {})
_SLOW = _Recurrence("slow", _slow_step, _slow_key, _slow_memo, {})


class _Missing(Exception):
    """A subterm that a recurrence step reads is not in the memo yet."""


def _evaluate(rec: _Recurrence, c: ContentVector) -> int:
    """The recurrence's value at c, memoizing every subterm it reads under
    its key, on an explicit stack instead of Python recursion.

    A step reads its subterms through a lookup that raises _Missing for one
    whose key is not in the memo; that subterm is pushed and the step runs
    again once its key is stored.  So an aborted run stops at a subterm
    whose key is stored before the run is repeated: there are at most as
    many aborted runs as new entries.  The memo ends up holding the same
    entries as a memoized recursion with the same keys would store.
    """
    _, step, key_of, memo, contents = rec
    key = key_of(c)
    if key is None:
        return 1
    value = memo.get(key)
    if value is not None:
        return value

    def count(d: ContentVector) -> int:
        key = key_of(d)
        if key is None:
            return 1
        value = memo.get(key)
        if value is None:
            raise _Missing(d)
        return value

    pending = [c]
    while pending:
        d = pending[-1]
        try:
            value = step(d, count)
        except _Missing as exc:
            pending.append(exc.args[0])
        else:
            key = key_of(d)
            memo[key] = value
            contents.setdefault(key, d)  # the first d's step reads no count of its own key
            pending.pop()
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
    c: ContentVector, patterns: Sequence[Pattern], space_limit: int = MAX_SPACE
) -> int:
    """Count the words in W_c avoiding every given pattern, by exhaustion with prefix skipping.

    If w has an occurrence of a pattern ending at e, so does every later word
    of W_c sharing w[:e-1]: such a word either shares w[:e] as well, or has
    a larger letter in place of w[e-1] and w[e-1] further right.  So when a
    word contains a pattern, the walk over W_c skips the later words sharing
    w[:e-1] for the smallest end e that `contains_pattern` reports, and
    still counts exactly the avoiders.
    """
    size = word_space_size(c)
    if size > space_limit:
        raise SizeLimitError(f"|W_c| = {size} exceeds limit {space_limit}")

    def reject(w: Word) -> int:
        return min(filter(None, (contains_pattern(w, p) for p in patterns)), default=0)

    return sum(1 for _ in enumerate_words(c, reject=reject))


# ---------------------------------------------------------------------------
# Memo persistence (optional warm start; results never depend on it)


def save_memo(path: str) -> None:
    """Write the memo tables to `path` as JSON maps from contents to counts.

    The file holds one entry per memo key, in the order the keys were
    stored: the first content the key's value was taken at, and that value.
    A step on that content reads only keys stored before its own, so
    `load_memo` can check each entry by one step from the entries before it.

    The file is written beside `path` under a temporary name and then
    renamed over it, so a failed write leaves the old file whole.
    """
    import json
    import os

    data = {
        rec.name: {",".join(map(str, rec.contents[key])): str(v) for key, v in rec.memo.items()}
        for rec in (_FAST, _SLOW)
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

    Each entry is a content and its count; contents with one memo key may
    all appear, so files written when the memos were keyed by full content
    load too.  A file that is not in that format, whose values do not follow
    from the recurrences, or with a slow entry holding a zero (the slow step
    is the slow recurrence only on zero-free contents) raises ValueError
    (json.JSONDecodeError for bad JSON) and leaves the tables untouched.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object with 'fast' and 'slow' tables")
    staged = []
    for rec in (_FAST, _SLOW):
        entries = data.get(rec.name, {})
        if not isinstance(entries, dict):
            raise ValueError(f"the {rec.name!r} table is not a JSON object")
        parsed = {}
        for text, value in entries.items():
            try:
                entry = tuple(int(t) for t in text.split(",") if t)
                count = int(value)
            except (TypeError, ValueError):
                raise ValueError(f"bad {rec.name!r} entry {text!r}: {value!r}") from None
            if any(k < 0 for k in entry) or count < 0:
                raise ValueError(f"bad {rec.name!r} entry {text!r}: {value!r}")
            if rec is _SLOW and 0 in entry:
                raise ValueError(f"'slow' entry {text!r} has a zero entry")
            parsed[entry] = count
        staged.append((rec, _check_entries(rec, parsed)))
    for rec, checked in staged:
        for key, (c, value) in checked.items():
            rec.memo[key] = value
            rec.contents.setdefault(key, c)


def _check_entries(
    rec: _Recurrence, parsed: dict
) -> dict[ContentVector, tuple[ContentVector, int]]:
    """Per memo key, a loaded content and its count, each entry checked by
    one recurrence step.

    Entries are checked in the order of their keys by (sum, length), and
    contents with one key shortest first, so the error names the smallest
    wrong entry.  A step reads keys that come before its own, or its own
    key through a shorter content (a fast content with a zero second
    entry), and looks their counts up in the entries already checked, the
    in-process table or the base case.  So every accepted value is exact,
    and a loaded file cannot change a result.
    """
    checked: dict[ContentVector, tuple[ContentVector, int]] = {}

    def count(d: ContentVector) -> int:
        key = rec.key(d)
        if key is None:
            return 1
        value = checked[key][1] if key in checked else rec.memo.get(key)
        if value is None:
            raise ValueError(f"the {rec.name!r} table lacks {d}, which the recurrence needs")
        return value

    def order(c: ContentVector) -> tuple[int, int, int]:
        key = rec.key(c) or ()
        return sum(key), len(key), len(c)

    for c in sorted(parsed, key=order):
        expected = 1 if len(c) <= 1 else rec.step(c, count)
        if parsed[c] != expected:
            raise ValueError(f"{rec.name!r} entry {c} is {parsed[c]}; the recurrence gives {expected}")
        key = rec.key(c)
        if key is not None:
            checked.setdefault(key, (c, expected))
    return checked


def clear_memo() -> None:
    for rec in (_FAST, _SLOW):
        rec.memo.clear()
        rec.contents.clear()
