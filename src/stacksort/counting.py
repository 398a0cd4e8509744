"""Counting sortable words: recurrences, Fuss-Catalan values, generating trees.

A word sorts to the identity in one fast pass iff it avoids the pattern 231,
and in one slow pass iff it avoids both 231 and 221, so the counters here are
equally counters of pattern-avoiding words with prescribed content.  Both
recurrences condition on how the copies of the largest letter split the word.
All arithmetic is exact (Python integers); memo tables live for the process
and can be persisted to a JSON file purely as a warm-start optimization
(`json` is imported only then).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Mapping, Sequence

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
    return _evaluate(tuple(c), _fast_memo, _fast_step)


def _fast_step(c: ContentVector, count: Callable[[ContentVector], int]) -> int:
    """One step of the fast recurrence (len(c) >= 2), reading smaller values from `count`."""
    rest = c[2:]
    if c[1] == 0:
        return count((c[0],) + rest)
    value = count((c[0] + c[1],) + rest)
    return value + sum(count((r, c[1] - 1) + rest) for r in range(1, c[0] + 1))


def count_slow_sortable(c: ContentVector) -> int:
    """Number of words with content c that one slow pass sorts.

    Zero entries are stripped first: dropping an absent letter value and
    relabeling preserves avoidance counting.  The value never depends on the
    last entry of the (stripped) vector.
    """
    if any(k < 0 for k in c):
        raise DomainError("content entries must be nonnegative")
    return _evaluate(tuple(k for k in c if k), _slow_memo, _slow_step)


def _slow_step(c: ContentVector, count: Callable[[ContentVector], int]) -> int:
    """One step of the slow recurrence (len(c) >= 2), reading smaller values from `count`."""
    n = len(c)
    value = 2 * count(c[:-1])
    for i in range(1, n - 1):
        value += count(c[:i]) * count(c[i:-1])
    for i in range(1, n):
        for k in range(1, c[i - 1]):
            value += count(c[: i - 1] + (k,)) * count((c[i - 1] - k,) + c[i:-1])
    return value


class _Missing(Exception):
    """A subterm that a recurrence step reads is not in the memo yet."""


def _evaluate(
    c: ContentVector,
    memo: dict[ContentVector, int],
    step: Callable[[ContentVector, Callable[[ContentVector], int]], int],
) -> int:
    """The recurrence's value at c, memoizing every subterm it reads
    (length >= 2), on an explicit stack instead of Python recursion.

    A step reads its subterms through a lookup that raises _Missing for one
    not in the memo; that subterm is pushed and the step runs again once it
    is stored.  So each step runs to completion once, and an aborted run
    stops at a subterm that is stored before the run is repeated: there are
    at most as many aborted runs as new entries.  The memo ends up holding
    the same entries as a memoized recursion would store.
    """
    if len(c) <= 1:
        return 1
    value = memo.get(c)
    if value is not None:
        return value

    def count(d: ContentVector) -> int:
        if len(d) <= 1:
            return 1
        value = memo.get(d)
        if value is None:
            raise _Missing(d)
        return value

    pending = [c]
    while pending:
        try:
            memo[pending[-1]] = step(pending[-1], count)
        except _Missing as exc:
            pending.append(exc.args[0])
        else:
            pending.pop()
    return memo[c]


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
    import json

    data = {
        "fast": {",".join(map(str, k)): str(v) for k, v in _fast_memo.items()},
        "slow": {",".join(map(str, k)): str(v) for k, v in _slow_memo.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def load_memo(path: str) -> None:
    """Merge a `save_memo` file into the memo tables.

    A file that is not in that format, or whose values do not follow from the
    recurrences, raises ValueError (json.JSONDecodeError for bad JSON) and
    leaves the tables untouched.
    """
    import json

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object with 'fast' and 'slow' tables")
    staged = []
    for key, table, step in (("fast", _fast_memo, _fast_step), ("slow", _slow_memo, _slow_step)):
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
        _check_entries(key, parsed, table, step)
        staged.append((table, parsed))
    for table, parsed in staged:
        table.update(parsed)


def _check_entries(key: str, parsed: dict, table: dict, step: Callable) -> None:
    """Refuse loaded entries that do not follow from smaller ones by one recurrence step.

    Smaller values come from the file itself, the in-process table or the base
    case.  By induction on (sum, length), every accepted entry is then exact,
    so a loaded file cannot change a result.  Checked smallest first, so the
    error names the smallest wrong entry.
    """
    def count(c: ContentVector) -> int:
        if len(c) <= 1:
            return 1
        value = parsed.get(c, table.get(c))
        if value is None:
            raise ValueError(f"the {key!r} table lacks {c}, which the recurrence needs")
        return value

    for c in sorted(parsed, key=lambda c: (sum(c), len(c))):
        expected = 1 if len(c) <= 1 else step(c, count)
        if parsed[c] != expected:
            raise ValueError(f"{key!r} entry {c} is {parsed[c]}; the recurrence gives {expected}")


def clear_memo() -> None:
    _fast_memo.clear()
    _slow_memo.clear()
