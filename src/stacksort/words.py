"""Words over the positive integers: contents, identities, patterns, enumeration.

A word is a finite tuple of positive-integer letters; the empty tuple is the
empty word.  Fixing a content vector c = (c_1, ..., c_n) (c_i copies of the
letter i) pins down the space of all rearrangements of the multiset
{1^c_1, ..., n^c_n}, whose unique nondecreasing member is the identity word.
Everything here is pure and operates on plain tuples, so values can be hashed,
compared, and shared freely.

Exhaustive enumerators (`enumerate_words`, `enumerate_normalized`) are the
oracle substrate for the rest of the package.  `enumerate_words` has no size
cap of its own: each caller bounds its work where it knows how much is
coming.  Every cap is a `MAX_*` constant below, and every refusal goes
through `check_limit`: the brute-force passes refuse a class of more than
`MAX_SPACE` words, and every exhaustive pass over the normalized words of one
length, `enumerate_normalized` and the censuses alike, a length above
`MAX_SCAN_LEN` (`check_scan_length`).
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterator

Word = tuple[int, ...]
ContentVector = tuple[int, ...]
Pattern = tuple[int, ...]

MAX_SCAN_LEN = 10  # longest length of an exhaustive pass over normalized words
MAX_SPACE = 2_000_000  # largest content class the brute-force passes exhaust
MAX_VHC_LEN = 12  # longest word whose hook configurations or preimages are listed
MAX_TREE_DEPTH = 5_000  # deepest level `generating_tree_level_counts` reaches
MAX_DP_LEN = 400  # longest word whose preimages `count_preimages` counts
MAX_UNIFORM_LEN = 100_000  # longest uniform word (ell * n letters) `fuss_catalan` counts
MAX_WALK_LEN = 1_500  # longest word walked pass after pass to its identity word
MAX_ENUM_SUM = 12  # largest word length whose class `image_pair_counts` takes on

_INF = float("inf")

_SEPARATORS = re.compile(r"[\s,]+")


class DomainError(ValueError):
    """Input outside an operation's domain (bad letters, non-permutation, ...)."""


class SizeLimitError(RuntimeError):
    """Requested search space exceeds one of the package's size caps."""


def check_limit(what: str, size: int, cap: int) -> None:
    """Refuse a size above its cap: SizeLimitError "<what> <size> exceeds limit <cap>"."""
    if size > cap:
        raise SizeLimitError(f"{what} {size} exceeds limit {cap}")


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


def contains_pattern(w: Word, p: Pattern) -> int:
    """0 if w avoids p, else a positive e such that the prefix w[:e] contains p.

    w contains p when some subsequence of w has exactly the relative order of
    p.  Order-isomorphism is exact, equalities included: chosen letters must
    compare (<, =, >) pairwise the same way the pattern letters do.  The
    result works as a truth value; when positive it is the end of the first
    occurrence found (1 for the empty pattern, which every word contains).

    Backtracks over the positions of w, choosing one letter per pattern
    position, with an explicit level stack.  The letters already chosen are
    order-isomorphic to the pattern prefix, so a candidate needs comparing
    with two of them only (see `_pattern_neighbours`): O(1) per candidate,
    O(k^2) per pattern to find the neighbours, for a pattern of length k.

    Skip rule: when level i finds no candidate at all right of the letter
    level i-1 just chose, and level i's constraint does not read level i-1,
    the search backtracks past level i-1 too.  Every other choice for level
    i-1 lies further right and leaves level i the same constraint on a
    shorter suffix, so it fails as well.  The pruned branches hold no
    occurrence, so the search still visits occurrences in
    `itertools.combinations` order of their positions, and the result is the
    end of the first one.
    """
    m, k = len(w), len(p)
    if k == 0:
        return 1
    if k > m:
        return 0
    neighbours = _pattern_neighbours(tuple(p))
    vals = [0] * k  # vals[i]: the letter chosen for pattern position i
    resume = [0] * k  # resume[i]: where the scan for position i goes on
    i = j = 0
    fresh = True  # level i scans from just right of level i-1's letter
    while True:
        eq, lo, hi, back = neighbours[i]
        last = m - k + i  # leaves room for the rest of the pattern
        if eq >= 0:
            a = vals[eq]
            while j <= last and w[j] != a:
                j += 1
        else:
            a = vals[lo] if lo >= 0 else -_INF
            b = vals[hi] if hi >= 0 else _INF
            while j <= last and not a < w[j] < b:
                j += 1
        if j <= last:
            vals[i] = w[j]
            j += 1
            resume[i] = j
            i += 1
            if i == k:
                return j
            fresh = True
        else:
            i -= back if fresh else 1
            if i < 0:
                return 0
            j = resume[i]
            fresh = False


@lru_cache(maxsize=256)
def _pattern_neighbours(p: Pattern) -> tuple[tuple[int, int, int, int], ...]:
    """Per pattern position i, three earlier positions, each -1 if none, and
    how many levels a failed fresh scan at level i backtracks.

    `eq` holds a letter equal to p[i], `lo` the largest letter below p[i],
    `hi` the smallest above.  A letter x extends a match of p[:i] with chosen
    letters `vals` iff x == vals[eq] when `eq` exists, and
    vals[lo] < x < vals[hi] otherwise: every other chosen letter is ordered
    against these two as its pattern letter is.  `back` is 2 when none of
    the three is i-1 (the skip rule of `contains_pattern`), else 1.
    """
    out = []
    for i, a in enumerate(p):
        eq = lo = hi = -1
        for j, b in enumerate(p[:i]):
            if b == a:
                eq = j
            elif b < a and (lo < 0 or b > p[lo]):
                lo = j
            elif b > a and (hi < 0 or b < p[hi]):
                hi = j
        out.append((eq, lo, hi, 1 if i - 1 in (eq, lo, hi) else 2))
    return tuple(out)


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


def enumerate_words(
    c: ContentVector, reject: Callable[[Word], int] | None = None
) -> Iterator[Word]:
    """Yield every word of content c exactly once, in lexicographic order.

    With `reject`, a word w with e = reject(w) > 0 is not yielded, and neither
    is any later word starting with w[:e-1]: those words run on to the end
    of the block of words with that prefix, which ends where the rest of the
    word is nonincreasing, so the walk jumps there.  `reject` must only
    return e > 0 when w and every later word sharing w[:e-1] are to be left
    out.  An occurrence of a pattern that ends at e qualifies: a later word
    u sharing w[:e-1] has u[e-1] >= w[e-1], and the same content, so either
    u[:e] == w[:e] or the letter w[e-1] comes later in u; both give u the
    occurrence.
    """
    cur = list(identity(c))
    while True:
        w = tuple(cur)
        if reject is None or not (e := reject(w)):
            yield w
        else:
            cur[e - 1:] = sorted(cur[e - 1:], reverse=True)
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


def check_scan_length(m: int) -> None:
    """Refuse a negative length or one above MAX_SCAN_LEN; exhaustive passes
    over 1..m call it first."""
    if m < 0:
        raise DomainError(f"length must be nonnegative, got {m}")
    check_limit("length", m, MAX_SCAN_LEN)


def enumerate_normalized(m: int) -> Iterator[Word]:
    """Yield every normalized word of length m (at most MAX_SCAN_LEN) exactly once.

    Order is canonical: content vectors lexicographically, then words
    lexicographically within each content class.
    """
    check_scan_length(m)
    for c in positive_compositions(m):
        yield from enumerate_words(c)


def normalized_count(m: int) -> int:
    """Number of normalized words of length m (the ordered-set-partition count)."""
    counts = [1] + [0] * m
    for n in range(1, m + 1):
        counts[n] = sum(comb(n, k) * counts[n - k] for k in range(1, n + 1))
    return counts[m]
