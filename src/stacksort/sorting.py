"""The two stack-sorting operators on words and their distance metrics.

Both operators push the input through a single vertical stack, left to right,
popping whenever the stack discipline would be violated.  They differ in one
convention only: under the fast operator a letter may sit on top of an equal
letter in the stack, under the slow operator it may not.  On permutations the
two coincide with the classical deterministic stack-sorting map.

Each operator is implemented twice: the recursive definition that splits at
the occurrences of the largest letter (the oracle, evaluated with an explicit
stack of segments so that long words do not hit the recursion limit), and a
linear-time stack machine (the production path).  `distance` counts how many
applications are needed to reach the nondecreasing identity word; it is
bounded by the number of letters exceeding 1 in the content, and a dedicated
worst-case word meets the bound.  `distances` does the same for many words
of one content, walking each word on their paths once.  A walk costs up to
one pass of n letters per letter, so words longer than MAX_WALK_LEN are
refused before the first pass.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, groupby
from typing import Callable, Iterable

from .words import (
    MAX_WALK_LEN,
    ContentVector,
    DomainError,
    InvariantError,
    SizeLimitError,
    Word,
    content,
    identity,
)


class SortVariant(Enum):
    """Which stack discipline to use: equal letters may stack (FAST) or not (SLOW)."""

    FAST = "fast"
    SLOW = "slow"


def sort_fast(w: Word) -> Word:
    """One fast-sorting pass, by the recursive definition.

    Writing w = A_1 n A_2 n ... n A_{k+1} with n the largest letter (k copies),
    the result is fast(A_1) ... fast(A_{k+1}) followed by the k copies of n.
    """
    return _unfold(w, lambda n, parts: parts + [n] * (len(parts) - 1))


def sort_slow(w: Word) -> Word:
    """One slow-sorting pass, by the recursive definition.

    With w = A_1 n A_2 n ... n A_{k+1} as above, the result is
    slow(A_1) slow(A_2) n slow(A_3) n ... n slow(A_{k+1}) n: the first two
    blocks fuse, every later block keeps one n in front of it, one n closes.
    """
    return _unfold(w, lambda n, parts: parts[:1] + [x for part in parts[1:] for x in (part, n)])


def _unfold(w: Word, expand: Callable[[int, list], list]) -> Word:
    """Evaluate a definition that splits w at the occurrences of its largest letter.

    `expand(n, parts)` gives the output of one segment as a sequence of
    subsegments (ranges of w, evaluated the same way) and letters.  An explicit
    stack stands in for the recursion, so long words do not hit Python's
    recursion limit.
    """
    out: list[int] = []
    todo: list[tuple[int, int] | int] = [(0, len(w))]
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            out.append(item)
            continue
        lo, hi = item
        if lo == hi:
            continue
        segment = w[lo:hi]
        n = max(segment)
        cuts = [lo - 1]  # the occurrences of n, after a sentinel
        for _ in range(segment.count(n)):
            cuts.append(w.index(n, cuts[-1] + 1, hi))
        parts = [(a + 1, b) for a, b in zip(cuts, [*cuts[1:], hi])]
        todo.extend(reversed(expand(n, parts)))
    return tuple(out)


def sort_via_stack(w: Word | bytes, variant: SortVariant) -> Word | bytes:
    """One sorting pass through the stack machine (linear time).

    FAST pushes while the incoming letter is <= the stack top, so it pops only
    strictly smaller tops; SLOW pops weakly smaller tops, which on integer
    letters are the tops smaller than x + 1.  A `bytes` word gives a `bytes`
    image, any other word a tuple.
    """
    out: list[int] = []
    stack: list[int] = []
    slow = variant is SortVariant.SLOW
    for x in w:
        bound = x + slow
        while stack and stack[-1] < bound:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return bytes(out) if isinstance(w, bytes) else tuple(out)


def sort_permutation(p: Word) -> Word:
    """The classical stack-sorting map, on words with pairwise distinct letters."""
    if len(set(p)) != len(p):
        raise DomainError(f"not a permutation (repeated letters): {p}")
    return sort_via_stack(p, SortVariant.FAST)


def standardize_ascending(w: Word) -> Word:
    """Replace the copies of each letter i by distinct values, ascending.

    The c_i copies of i become p_i+1, ..., p_i+c_i in order of appearance,
    where p_i counts the letters smaller than i.  The result is a permutation
    of {1, ..., len(w)} and the map is injective on each content.

    Theorem: the slow pass commutes with it, standardize_ascending(sort_slow(w))
    = sort_permutation(standardize_ascending(w)), so the slow distance of w is
    the West distance of its standardization (the identity word standardizes
    to the identity).  Proof: an earlier copy of x gets the smaller value, so
    West's map pops it before x goes on, as the slow pass pops an equal top;
    the two stack machines make the same moves, and copies leave in order.
    """
    last = [0, *accumulate(content(w))]  # last[i-1]: the value the latest copy of i took
    out = []
    for x in w:
        last[x - 1] += 1
        out.append(last[x - 1])
    return tuple(out)


def standardize_descending(w: Word) -> Word:
    """Like `standardize_ascending`, but the copies of i descend, the last one
    the smallest: the ascending map on the reversed word, read backwards."""
    return standardize_ascending(w[::-1])[::-1]


def collapse_letters(c: ContentVector, p: Word) -> Word:
    """Collapse a permutation back to the word with content c.

    Values p_i+1, ..., p_i+c_i all become the letter i.  Left inverse of both
    standardization maps for the matching content.
    """
    total = sum(c)
    if sorted(p) != list(range(1, total + 1)):
        raise DomainError(f"expected a permutation of 1..{total}, got {p}")
    letters = identity(c)
    return tuple(letters[x - 1] for x in p)


def distance_bound(c: ContentVector, variant: SortVariant) -> int:
    """Proven upper bound on the sorting distance over W_c."""
    if variant is SortVariant.FAST:
        return max(len(c) - 1, 0)
    return sum(c[1:])


def distance(w: Word, variant: SortVariant) -> int:
    """Minimal k with sort^k(w) equal to the identity word of w's content."""
    return distances((w,), variant)[0]


def distances(words: Iterable[Word | bytes], variant: SortVariant) -> list[int]:
    """The distance of each word, for words that all share one content and
    one type, tuple or `bytes`.

    The identity word and the bound are computed once.  Each walk stops at
    the first word whose distance is known (the identity is known at 0), and
    every word on its path is kept, so each new word costs one stack pass.
    Every returned distance is checked against the bound, a theorem; a word
    of another content never reaches a known word, so its walk trips the
    check.  Words longer than MAX_WALK_LEN are refused.
    """
    words = list(words)
    if not words:
        return []
    if len(words[0]) > MAX_WALK_LEN:
        raise SizeLimitError(f"word length {len(words[0])} exceeds limit {MAX_WALK_LEN}")
    target = sorted(words[0])  # the identity word of the content, in the words' type
    target = bytes(target) if isinstance(words[0], bytes) else tuple(target)
    # Both operators only compare letters, so the bound of the distinct
    # letters' multiplicities holds, without a content entry per value.
    bound = distance_bound(tuple(len(list(g)) for _, g in groupby(target)), variant)
    known = {target: 0}
    out = []
    for w in words:
        path: list[Word | bytes] = []
        cur = w
        while (d := known.get(cur)) is None and len(path) <= bound:
            path.append(cur)
            cur = sort_via_stack(cur, variant)
        if d is None or d + len(path) > bound:
            raise InvariantError(f"sorting {w} exceeded the distance bound {bound}")
        d += len(path)
        for i, u in enumerate(path):
            known[u] = d - i
        out.append(d)
    return out


def worst_case_word(c: ContentVector) -> Word:
    """The word in W_c meeting both distance bounds with equality.

    Obtained from the identity word by moving all the 1's to the end:
    2^c_2 3^c_3 ... n^c_n 1^c_1.  Requires every c_i >= 1.
    """
    if not c or any(k < 1 for k in c):
        raise DomainError("worst-case word needs a content vector with all entries >= 1")
    word = identity(c)
    return word[c[0]:] + word[:c[0]]


def exceptional_family(n: int) -> Word:
    """The length-2n+1 word that the slow operator sorts much faster.

    For n >= 3 this is 3 5 7 ... (2n-3) (2n)(2n) 2 4 6 ... (2n-2) (2n-1) 1,
    with fast distance 2n-2 but slow distance only n.
    """
    if n < 3:
        raise DomainError("the family is defined for n >= 3")
    word = list(range(3, 2 * n - 2, 2))
    word += [2 * n, 2 * n]
    word += list(range(2, 2 * n - 1, 2))
    word += [2 * n - 1, 1]
    return tuple(word)


def fertility_witness(m: int, extra_one: bool) -> Word:
    """Words with prescribed preimage counts under both operators.

    m (m-1) ... 2 1 (m+1) ... (2m) has exactly 2m preimages; inserting a
    second 1 after the first yields a word with exactly 2m+1 preimages.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    head = list(range(m, 0, -1))
    if extra_one:
        head.append(1)
    return tuple(head + list(range(m + 1, 2 * m + 1)))
