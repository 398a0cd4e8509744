"""Words over the positive integers: contents, identities, patterns, enumeration.

A word is a finite tuple of positive-integer letters; the empty tuple is the
empty word.  Fixing a content vector c = (c_1, ..., c_n) (c_i copies of the
letter i) pins down the space of all rearrangements of the multiset
{1^c_1, ..., n^c_n}, whose unique nondecreasing member is the identity word.
Everything here is pure and operates on plain tuples, so values can be hashed,
compared, and shared freely.

Exhaustive enumerators (`enumerate_words`, `enumerate_normalized`) are the
oracle substrate for the rest of the package and refuse inputs beyond a size
limit rather than silently grinding.
"""

from __future__ import annotations

import re
from math import comb, factorial
from typing import Iterator

Word = tuple[int, ...]
ContentVector = tuple[int, ...]
Pattern = tuple[int, ...]

MAX_ENUM_SUM = 12
MAX_NORMALIZED_LEN = 10

_SEPARATORS = re.compile(r"[\s,]+")


class DomainError(ValueError):
    """Input outside an operation's domain (bad letters, non-permutation, ...)."""


class SizeLimitError(RuntimeError):
    """Requested search space exceeds the configured size limit."""


class InvariantError(AssertionError):
    """A proven invariant failed: a bug in the package, not bad input.

    Raised explicitly (never by `assert`), so the checks survive `python -O`.
    """


def check_word(w: Word) -> Word:
    """Validate that every letter is a positive integer; returns w unchanged."""
    for x in w:
        if not isinstance(x, int) or x < 1:
            raise DomainError(f"letters must be positive integers, got {x!r}")
    return w


def parse_word(text: str) -> Word:
    """Read a word from text.

    Accepts whitespace/comma-separated positive integers, or a compact digit
    string when every letter is at most 9 (e.g. "3662451").  A bare digit
    string containing a 0 cannot be a digit-string word, so it is read as a
    single number.
    """
    s = text.strip()
    if not s:
        return ()
    if _SEPARATORS.search(s):
        tokens = [t for t in _SEPARATORS.split(s) if t]
    elif s.isdigit():
        if "0" in s or len(s) == 1:
            tokens = [s]
        else:
            tokens = list(s)
    else:
        raise DomainError(f"cannot parse word from {text!r}")
    try:
        letters = tuple(int(t) for t in tokens)
    except ValueError:
        raise DomainError(f"cannot parse word from {text!r}") from None
    return check_word(letters)


def format_word(w: Word) -> str:
    """Render a word: digit string if all letters are <= 9, else space-separated."""
    if all(x <= 9 for x in w):
        return "".join(str(x) for x in w)
    return " ".join(str(x) for x in w)


def content(w: Word) -> ContentVector:
    """Content vector of w: counts[i-1] = multiplicity of the letter i.

    The vector runs up to the largest letter present, so interior zeros can
    occur for non-normalized words.  content(()) == ().
    """
    if not w:
        return ()
    counts = [0] * max(w)
    for x in w:
        counts[x - 1] += 1
    return tuple(counts)


def identity(c: ContentVector) -> Word:
    """The unique nondecreasing word with content c."""
    out: list[int] = []
    for i, k in enumerate(c, start=1):
        if k < 0:
            raise DomainError("content entries must be nonnegative")
        out.extend([i] * k)
    return tuple(out)


def is_normalized(w: Word) -> bool:
    """True iff w uses every letter value 1..max(w); the empty word qualifies."""
    if not w:
        return True
    return all(k > 0 for k in content(w))


def contains_pattern(w: Word, p: Pattern) -> bool:
    """True iff some subsequence of w has exactly the relative order of p.

    Order-isomorphism is exact, equalities included: chosen letters must
    compare (<, =, >) pairwise the same way the pattern letters do.
    """
    m, k = len(w), len(p)
    if k == 0:
        return True
    if k > m:
        return False

    chosen: list[int] = []

    def extend(pi: int, start: int) -> bool:
        if pi == k:
            return True
        for idx in range(start, m - (k - pi) + 1):
            x = w[idx]
            if all(
                (x < w[j]) == (p[pi] < p[pj]) and (x == w[j]) == (p[pi] == p[pj])
                for pj, j in enumerate(chosen)
            ):
                chosen.append(idx)
                if extend(pi + 1, idx + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


def word_space_size(c: ContentVector) -> int:
    """|W_c|, the multinomial coefficient (sum c)! / prod(c_i!)."""
    total = sum(c)
    size = factorial(total)
    for k in c:
        size //= factorial(k)
    return size


def next_word(letters: list[int]) -> bool:
    """Advance a letter list to its lexicographic successor in place.

    Returns False when the list is already the last (nonincreasing)
    arrangement.  Classic next-permutation, valid on multisets.
    """
    i = len(letters) - 2
    while i >= 0 and letters[i] >= letters[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(letters) - 1
    while letters[j] <= letters[i]:
        j -= 1
    letters[i], letters[j] = letters[j], letters[i]
    letters[i + 1:] = reversed(letters[i + 1:])
    return True


def enumerate_words(c: ContentVector, limit: int = MAX_ENUM_SUM) -> Iterator[Word]:
    """Yield every word of content c exactly once, in lexicographic order."""
    if sum(c) > limit:
        raise SizeLimitError(f"word length {sum(c)} exceeds limit {limit}")
    cur = list(identity(c))
    if not cur:
        yield ()
        return
    while True:
        yield tuple(cur)
        if not next_word(cur):
            return


def positive_compositions(m: int) -> Iterator[ContentVector]:
    """All tuples of positive integers summing to m, in lexicographic order."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in positive_compositions(m - first):
            yield (first,) + rest


def enumerate_normalized(m: int, limit: int = MAX_NORMALIZED_LEN) -> Iterator[Word]:
    """Yield every normalized word of length m exactly once.

    Order is canonical: content vectors lexicographically, then words
    lexicographically within each content class.
    """
    if m > limit:
        raise SizeLimitError(f"length {m} exceeds limit {limit}")
    if m == 0:
        yield ()
        return
    for c in positive_compositions(m):
        yield from enumerate_words(c, limit=max(limit, MAX_ENUM_SUM))


def normalized_count(m: int) -> int:
    """Number of normalized words of length m (the ordered-set-partition count)."""
    counts = [1] + [0] * m
    for n in range(1, m + 1):
        counts[n] = sum(comb(n, k) * counts[n - k] for k in range(1, n + 1))
    return counts[m]
