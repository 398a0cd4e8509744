"""The two stack-sorting operators on words and their distance metrics.

Both operators push the input through a single vertical stack, left to right,
popping whenever the stack discipline would be violated.  They differ in one
convention only: under the fast operator a letter may sit on top of an equal
letter in the stack, under the slow operator it may not.  On permutations the
two coincide with the classical deterministic stack-sorting map.

Each operator is implemented twice: a recursive definition that splits at the
occurrences of the largest letter (the oracle), and a linear-time stack machine
(the production path).  `distance` counts how many applications are needed to
reach the nondecreasing identity word; it is bounded by the number of letters
exceeding 1 in the content, and a dedicated worst-case word meets the bound.
"""

from __future__ import annotations

from enum import Enum

from .words import (
    ContentVector,
    DomainError,
    InvariantError,
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
    if not w:
        return ()
    n = max(w)
    parts = _split_at_max(w, n)
    out: list[int] = []
    for part in parts:
        out.extend(sort_fast(part))
    out.extend([n] * (len(parts) - 1))
    return tuple(out)


def sort_slow(w: Word) -> Word:
    """One slow-sorting pass, by the recursive definition.

    With w = A_1 n A_2 n ... n A_{k+1} as above, the result is
    slow(A_1) slow(A_2) n slow(A_3) n ... n slow(A_{k+1}) n: the first two
    blocks fuse, every later block keeps one n in front of it, one n closes.
    """
    if not w:
        return ()
    n = max(w)
    parts = _split_at_max(w, n)
    out = list(sort_slow(parts[0]))
    out.extend(sort_slow(parts[1]))
    for part in parts[2:]:
        out.append(n)
        out.extend(sort_slow(part))
    out.append(n)
    return tuple(out)


def _split_at_max(w: Word, n: int) -> list[Word]:
    """Segments of w between occurrences of the letter n (k+1 of them)."""
    parts: list[Word] = []
    cur: list[int] = []
    for x in w:
        if x == n:
            parts.append(tuple(cur))
            cur = []
        else:
            cur.append(x)
    parts.append(tuple(cur))
    return parts


def sort_via_stack(w: Word, variant: SortVariant) -> Word:
    """One sorting pass through the stack machine (linear time).

    FAST pushes while the incoming letter is <= the stack top, so it pops only
    strictly smaller tops; SLOW pops weakly smaller tops.
    """
    out: list[int] = []
    stack: list[int] = []
    if variant is SortVariant.FAST:
        for x in w:
            while stack and stack[-1] < x:
                out.append(stack.pop())
            stack.append(x)
    else:
        for x in w:
            while stack and stack[-1] <= x:
                out.append(stack.pop())
            stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def sort_permutation(p: Word) -> Word:
    """The classical stack-sorting map, on words with pairwise distinct letters."""
    if len(set(p)) != len(p):
        raise DomainError(f"not a permutation (repeated letters): {p}")
    return sort_via_stack(p, SortVariant.FAST)


def _prefix_sums(c: ContentVector) -> list[int]:
    sums = [0]
    for k in c:
        sums.append(sums[-1] + k)
    return sums


def standardize_ascending(w: Word) -> Word:
    """Replace the copies of each letter i by distinct values, ascending.

    The c_i copies of i become p_i+1, ..., p_i+c_i in order of appearance,
    where p_i counts the letters smaller than i.  The result is a permutation
    of {1, ..., len(w)} and the map is injective.
    """
    return _standardize(w, ascending=True)


def standardize_descending(w: Word) -> Word:
    """Like `standardize_ascending` but the copies of i appear in descending order."""
    return _standardize(w, ascending=False)


def _standardize(w: Word, ascending: bool) -> Word:
    c = content(w)
    sums = _prefix_sums(c)
    seen = [0] * len(c)
    out = []
    for x in w:
        seen[x - 1] += 1
        if ascending:
            out.append(sums[x - 1] + seen[x - 1])
        else:
            out.append(sums[x] - seen[x - 1] + 1)
    return tuple(out)


def collapse_letters(c: ContentVector, p: Word) -> Word:
    """Collapse a permutation back to the word with content c.

    Values p_i+1, ..., p_i+c_i all become the letter i.  Left inverse of both
    standardization maps for the matching content.
    """
    total = sum(c)
    if sorted(p) != list(range(1, total + 1)):
        raise DomainError(f"expected a permutation of 1..{total}, got {p}")
    letter_of = [0] * (total + 1)
    value = 1
    for i, k in enumerate(c, start=1):
        for _ in range(k):
            letter_of[value] = i
            value += 1
    return tuple(letter_of[x] for x in p)


def distance_bound(c: ContentVector, variant: SortVariant) -> int:
    """Proven upper bound on the sorting distance over W_c."""
    if variant is SortVariant.FAST:
        return max(len(c) - 1, 0)
    return sum(c[1:])


def distance(w: Word, variant: SortVariant) -> int:
    """Minimal k with sort^k(w) equal to the identity word of w's content."""
    target = identity(content(w))
    bound = distance_bound(content(w), variant)
    k = 0
    cur = w
    while cur != target:
        cur = sort_via_stack(cur, variant)
        k += 1
        if k > bound:  # termination within the bound is a theorem
            raise InvariantError(f"sorting {w} exceeded the distance bound {bound}")
    return k


def worst_case_word(c: ContentVector) -> Word:
    """The word in W_c meeting both distance bounds with equality.

    Obtained from the identity word by moving all the 1's to the end:
    2^c_2 3^c_3 ... n^c_n 1^c_1.  Requires every c_i >= 1.
    """
    if not c or any(k < 1 for k in c):
        raise DomainError("worst-case word needs a content vector with all entries >= 1")
    out: list[int] = []
    for i, k in enumerate(c[1:], start=2):
        out.extend([i] * k)
    out.extend([1] * c[0])
    return tuple(out)


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
