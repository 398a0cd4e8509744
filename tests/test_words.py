from functools import lru_cache
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from property_checks import contains_by_definition, order_type
from stacksort import (
    DomainError,
    SizeLimitError,
    brute_count_avoiders,
    contains_pattern,
    content,
    enumerate_normalized,
    enumerate_words,
    format_word,
    identity,
    is_normalized,
    normalized_count,
    parse_word,
    positive_compositions,
    word_space_size,
)
from stacksort import counting


def multinomial(c):
    out = factorial(sum(c))
    for k in c:
        out //= factorial(k)
    return out


def fubini(m):
    # Independent oracle: sum of multinomials over positive compositions.
    return sum(multinomial(c) for c in positive_compositions(m))


def test_content_examples():
    assert content(parse_word("3313221")) == (2, 2, 3)
    assert content(()) == ()
    assert content(parse_word("21133")) == (2, 1, 2)


def test_identity_examples():
    assert identity((2, 2, 3)) == parse_word("1122333")
    assert identity(()) == ()
    assert identity((1, 3)) == parse_word("1222")
    # zeros leave gaps
    assert identity((0, 2, 1)) == (2, 2, 3)
    with pytest.raises(DomainError):
        identity((1, -1))


def test_is_normalized():
    assert not is_normalized(parse_word("31341"))  # no letter 2
    assert is_normalized(parse_word("3662451"))
    assert is_normalized(parse_word("11"))
    assert is_normalized(())


def test_contains_pattern_examples():
    assert contains_pattern(parse_word("3422155"), parse_word("211"))
    assert not contains_pattern(parse_word("3422155"), parse_word("4321"))
    # equalities are part of the order type: 1122 has no equal pair above a smaller letter
    assert not contains_pattern(parse_word("1122"), parse_word("221"))
    assert contains_pattern(parse_word("221"), parse_word("221"))
    assert contains_pattern((5, 2), ())
    # 1 3 _ _ 1 fails at the 1 without reading the 3, so the search skips the
    # other 3s and goes back to the first letter before finding 3 4 1
    assert contains_pattern((1, 3, 2, 4, 1), (2, 3, 1)) == 5
    # after 2 3 _ 1 2 _ fails at the last letter, the scan for the 1 resumes
    # and runs out; that failure must not skip the other choices for the 4,
    # because the last letter reads it: 2 _ 4 1 2 3 is the occurrence
    assert contains_pattern((2, 3, 4, 1, 2, 3), (2, 4, 1, 2, 3)) == 6


def test_every_word_contains_itself(normalized):
    for m in range(0, 5):
        for w in normalized(m):
            assert contains_pattern(w, w)


def check_against_definition(w, p, contains):
    """contains_pattern(w, p) is 0 iff w avoids p, and a positive result e
    names a prefix w[:e] that contains p; `contains` decides containment."""
    e = contains_pattern(w, p)
    assert bool(e) == contains(w, p), (w, p, e)
    if e:
        assert contains(w[:e], p), (w, p, e)


@lru_cache(maxsize=None)
def short_order_types(w):
    """The order types of every subsequence of w of length <= 4."""
    return frozenset(order_type(sub) for k in range(5) for sub in combinations(w, k))


def test_contains_pattern_matches_definition_exhaustively(normalized):
    # every order type of length <= 4, ties included, against every normalized
    # word of length <= 6
    patterns = [p for k in range(5) for p in normalized(k)]

    def contains(v, q):
        return order_type(q) in short_order_types(v)

    for m in range(7):
        for w in normalized(m):
            for p in patterns:
                check_against_definition(w, p, contains)


def first_occurrence_end(w, p):
    """1 plus the last index of the first occurrence of p in w, taking the
    position choices in `itertools.combinations` order; 1 for the empty
    pattern, 0 if w avoids p."""
    target = order_type(p)
    for positions in combinations(range(len(w)), len(p)):
        if order_type(tuple(w[i] for i in positions)) == target:
            return positions[-1] + 1 if positions else 1
    return 0


@given(st.data())
def test_contains_pattern_matches_definition_on_longer_words(data):
    # the shape of the exceptional-pattern check: words to 12, patterns to 7;
    # half the patterns are read off the word, so that matches are common
    w = tuple(data.draw(st.lists(st.integers(1, 6), max_size=12)))
    if data.draw(st.booleans()):
        p = tuple(data.draw(st.lists(st.integers(1, 5), max_size=7)))
    else:
        keep = data.draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w)))
        p = tuple(x for x, k in zip(w, keep) if k)[:7]
    check_against_definition(w, p, contains_by_definition)
    assert contains_pattern(w, p) == first_occurrence_end(w, p), (w, p)


@pytest.mark.parametrize(
    "patterns",
    [[], [()], [(1, 1)], [(1, 2)], [(2, 1, 3)], [(2, 1, 3, 1)], [(2, 3, 1)],
     [(2, 3, 1), (2, 2, 1)], [(2, 3, 1), (2, 2, 1), (3, 1, 2)],
     [(3, 1, 2), (2, 2, 1), (2, 3, 1)], [(1, 2), ()]],
    ids=["none", "empty", "11", "12", "213", "2131", "231", "231+221", "231+221+312",
         "312+221+231", "12+empty"],
)
def test_brute_count_avoiders_matches_plain_filter(monkeypatch, patterns):
    # the prefix-skipping count against a filter over every word of W_c; the
    # contents include (), where the empty pattern leaves no avoider.  A walk
    # that skipped from e - 2 instead of e - 1 would pass over 21 after 12,
    # and count no avoider of 12 in W_(1,1).  Any occurrence end is a valid
    # skip, so the count alone would pass a later one: each skip is checked
    # to be an occurrence end no later than any `contains_pattern` reports.
    def spy(c, reject):
        def checked(w):
            e = reject(w)
            ends = [end for end in (contains_pattern(w, p) for p in patterns) if end]
            assert e <= min(ends, default=0) and bool(e) == bool(ends), w
            assert not e or any(contains_by_definition(w[:e], p) for p in patterns), w
            return e

        return enumerate_words(c, reject=checked)

    monkeypatch.setattr(counting, "enumerate_words", spy)
    contents = [c for m in range(7) for c in positive_compositions(m)] + [(0, 2, 2), (3, 3)]
    for c in contents:
        plain = sum(
            1
            for w in enumerate_words(c)
            if not any(contains_by_definition(w, p) for p in patterns)
        )
        assert brute_count_avoiders(c, patterns) == plain, (c, patterns)


def test_enumerate_words_examples():
    assert list(enumerate_words((2, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(list(enumerate_words((1, 1, 1)))) == 6
    assert len(list(enumerate_words((2, 2)))) == 6
    assert list(enumerate_words(())) == [()]


@pytest.mark.parametrize("c", [(2, 1), (1, 1, 1), (2, 2), (3, 1, 2), (0, 2, 2)])
def test_enumerate_words_is_lex_and_complete(c):
    ws = list(enumerate_words(c))
    assert len(ws) == len(set(ws)) == multinomial(c) == word_space_size(c)
    assert ws == sorted(ws)
    assert all(content(w) == c for w in ws)  # c carries no trailing zeros here


def test_enumerate_words_has_no_length_cap():
    # the class size, not the word length, is what costs: W_(13) is one word
    assert list(enumerate_words((13,))) == [(1,) * 13]


def test_enumerate_normalized_counts(normalized):
    assert normalized(1) == [(1,)]
    assert len(normalized(3)) == 13
    for m in range(0, 7):
        ws = normalized(m)
        assert len(ws) == len(set(ws)) == fubini(m) == normalized_count(m)
        assert all(is_normalized(w) and len(w) == m for w in ws)


def test_normalized_count_large():
    # matches the length-9 corpus size used by the census experiments
    assert normalized_count(9) == 7087261


def test_enumerate_normalized_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_normalized(11))
    with pytest.raises(DomainError):
        list(enumerate_normalized(-1))
    assert list(enumerate_normalized(0)) == [()]


def test_identity_avoids_sortability_patterns():
    for m in range(0, 7):
        for c in positive_compositions(m):
            w = identity(c)
            assert not contains_pattern(w, (2, 3, 1))
            assert not contains_pattern(w, (2, 2, 1))
            assert content(identity(content(w))) == content(w)


def test_avoidance_triple_equivalence(normalized):
    # avoiding both 231 and 221 is the same as having no a<b<c with w_c < w_a <= w_b
    for m in range(0, 6):
        for w in normalized(m):
            avoiding = not contains_pattern(w, (2, 3, 1)) and not contains_pattern(w, (2, 2, 1))
            triple = any(
                w[c] < w[a] <= w[b]
                for a in range(len(w))
                for b in range(a + 1, len(w))
                for c in range(b + 1, len(w))
            )
            assert avoiding == (not triple), w


def test_parse_and_format_word():
    assert parse_word("3662451") == (3, 6, 6, 2, 4, 5, 1)
    assert parse_word("3 5 7 10 10 2 4 6 8 9 1") == (3, 5, 7, 10, 10, 2, 4, 6, 8, 9, 1)
    assert parse_word("1,2,2") == (1, 2, 2)
    assert parse_word("10") == (10,)  # digit strings cannot contain 0
    assert parse_word("7") == (7,)
    assert parse_word("") == ()
    assert format_word((3, 6, 6, 2, 4, 5, 1)) == "3662451"
    assert format_word((10, 1)) == "10 1"
    with pytest.raises(DomainError):
        parse_word("abc")
    with pytest.raises(DomainError):
        parse_word("0")


def test_parse_format_roundtrip(normalized):
    for m in range(0, 5):
        for w in normalized(m):
            assert parse_word(format_word(w)) == w
    eta8 = (3, 5, 7, 9, 11, 13, 16, 16, 2, 4, 6, 8, 10, 12, 14, 15, 1)
    assert parse_word(format_word(eta8)) == eta8
