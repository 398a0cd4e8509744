import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stacksort
from stacksort import (
    DomainError,
    InvariantError,
    SizeLimitError,
    SortVariant,
    collapse_letters,
    content,
    distance,
    distance_bound,
    enumerate_words,
    exceptional_family,
    fertility_witness,
    identity,
    image_pair_counts,
    in_class,
    in_order,
    parse_word,
    positive_compositions,
    sort_fast,
    sort_permutation,
    sort_slow,
    sort_via_stack,
    sort_via_trees,
    standardize_ascending,
    standardize_descending,
    word_to_tree,
    worst_case_word,
)
from stacksort import sorting
from stacksort.sorting import distances
from stacksort.words import MAX_WALK_LEN

FAST, SLOW = SortVariant.FAST, SortVariant.SLOW


def test_sort_fast_examples():
    assert sort_fast((2, 2, 2, 1)) == (1, 2, 2, 2)
    assert sort_fast((2, 2, 1)) == (1, 2, 2)
    assert sort_fast(parse_word("3662451")) == parse_word("3241566")
    assert sort_fast(()) == ()


def test_sort_slow_examples():
    assert sort_slow((2, 2, 1)) == (2, 1, 2)
    assert sort_slow(parse_word("3662451")) == parse_word("3624156")
    # derived by unwinding the recursion with three maximal letters
    assert sort_slow((2, 2, 2, 1)) == (2, 2, 1, 2)
    assert sort_slow(()) == ()


def test_slow_chain_of_2221():
    chain = [(2, 2, 2, 1)]
    for _ in range(3):
        chain.append(sort_slow(chain[-1]))
    assert chain[-1] == (1, 2, 2, 2)
    assert chain[-2] != (1, 2, 2, 2)


def test_displayed_chains_for_3662451():
    w = parse_word("3662451")
    fast_chain = ["3241566", "2314566", "2134566", "1234566"]
    for expected in fast_chain:
        w = sort_fast(w)
        assert w == parse_word(expected)
    w = parse_word("3662451")
    slow_chain = ["3624156", "3214566", "1234566"]
    for expected in slow_chain:
        w = sort_slow(w)
        assert w == parse_word(expected)


def test_stack_machine_examples():
    assert sort_via_stack((4, 1, 6, 2), FAST) == (1, 4, 2, 6)
    assert sort_via_stack((4, 1, 6, 2), SLOW) == (1, 4, 2, 6)
    assert sort_via_stack((2, 2, 1), SLOW) == (2, 1, 2)
    assert sort_via_stack((2, 2, 1), FAST) == (1, 2, 2)


def test_stack_machine_matches_recursion(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            assert sort_via_stack(w, FAST) == sort_fast(w)
            assert sort_via_stack(w, SLOW) == sort_slow(w)


@pytest.mark.parametrize(
    "w",
    [
        tuple(range(3000, 0, -1)),
        tuple(range(1, 3001)),
        tuple(x // 2 + 1 for x in range(2999, -1, -1)),  # decreasing, every letter twice
    ],
    ids=["decreasing", "increasing", "decreasing-pairs"],
)
def test_recursive_definitions_reach_length_3000(w):
    # far past Python's default recursion limit of 1000
    assert sort_fast(w) == sort_via_stack(w, SortVariant.FAST)
    assert sort_slow(w) == sort_via_stack(w, SortVariant.SLOW)
    for variant in SortVariant:
        assert sort_via_trees(w, variant) == sort_via_stack(w, variant)
        t = word_to_tree(w, variant)
        assert in_class(t, variant) and in_order(t) == w  # one node per letter


def test_sort_permutation():
    assert sort_permutation((4, 1, 6, 2)) == (1, 4, 2, 6)
    assert sort_permutation((1, 2, 3, 4)) == (1, 2, 3, 4)
    with pytest.raises(DomainError):
        sort_permutation((2, 2, 1))


def test_sort_permutation_iteration():
    # decreasing prefixes avoid 231, so 321456 sorts in one pass
    assert sort_permutation((3, 2, 1, 4, 5, 6)) == (1, 2, 3, 4, 5, 6)
    w = (2, 3, 4, 1)
    w = sort_permutation(w)
    assert w == (2, 3, 1, 4)
    w = sort_permutation(w)
    assert w == (2, 1, 3, 4)
    w = sort_permutation(w)
    assert w == (1, 2, 3, 4)


def test_standardize_examples():
    w = parse_word("3313221")
    assert standardize_ascending(w) == parse_word("5617342")
    assert standardize_descending(w) == parse_word("7625431")
    assert standardize_ascending((1, 1)) == (1, 2)


def test_collapse_examples():
    p = parse_word("5617342")
    assert collapse_letters((2, 2, 3), p) == parse_word("3313221")
    assert collapse_letters((2, 3, 2), p) == parse_word("2313221")
    assert collapse_letters((6, 1), p) == parse_word("1112111")
    with pytest.raises(DomainError):
        collapse_letters((2, 2), (1, 2, 3))
    with pytest.raises(DomainError):
        collapse_letters((2, 1), (1, 1, 2))
    with pytest.raises(DomainError):  # the sum matches, but the content has a negative entry
        collapse_letters((2, -1), (1,))


def test_collapse_inverts_standardization(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            c = content(w)
            assert collapse_letters(c, standardize_ascending(w)) == w
            assert collapse_letters(c, standardize_descending(w)) == w


def test_distance_examples():
    assert distance((2, 2, 2, 1), FAST) == 1
    assert distance((2, 2, 2, 1), SLOW) == 3
    w = parse_word("3662451")
    assert distance(w, FAST) == 4
    assert distance(w, SLOW) == 3
    assert distance(identity((2, 2, 3)), FAST) == 0
    assert distance(identity((2, 2, 3)), SLOW) == 0
    assert distance((), FAST) == 0


def test_distance_memo_keeps_the_path(monkeypatch):
    # `distances` keeps every word it walks through: one pass per new word
    w = parse_word("3662451")
    chain = [w]
    for _ in range(4):
        chain.append(sort_via_stack(chain[-1], FAST))
    passes: list = []  # the input of each stack pass

    def counted(u, variant):
        passes.append(u)
        return sort_via_stack(u, variant)

    monkeypatch.setattr(sorting, "sort_via_stack", counted)
    assert distances(chain[:4], FAST) == [4, 3, 2, 1]
    assert passes == [w, *chain[1:4]]  # the identity is known from the start
    # the walk stops at the first word it knows
    passes.clear()
    assert distances([chain[1], w, chain[2]], FAST) == [3, 4, 2]
    assert passes == [chain[1], chain[2], chain[3], w]
    passes.clear()
    assert distances([identity((2, 2, 3))], SLOW) == [0] and passes == []
    assert distances([], FAST) == []


def test_distance_memo_values_are_bound_checked(monkeypatch):
    # a walk that ends at a known word is checked with the known distance added
    w = parse_word("3662451")
    chain = [w, sort_via_stack(w, FAST)]
    chain.append(sort_via_stack(chain[-1], FAST))
    monkeypatch.setattr(sorting, "distance_bound", lambda c, variant: 2)
    assert distances([chain[2]], FAST) == [2]
    with pytest.raises(InvariantError):
        distances([chain[2], w], FAST)  # 2 known + 2 walked
    with pytest.raises(InvariantError):
        distance(w, FAST)


def test_distances_match_a_walk_per_word():
    # every image of every class of length <= 7, against a plain loop per word
    for m in range(8):
        for c in positive_compositions(m):
            target = identity(c)
            pairs = image_pair_counts(c)
            for variant, images in ((FAST, {f for f, _ in pairs}), (SLOW, {s for _, s in pairs})):
                images = sorted(images)
                expected = []
                for u in images:
                    k = 0
                    while u != target:
                        u, k = sort_via_stack(u, variant), k + 1
                    expected.append(k)
                assert distances(images, variant) == expected, (c, variant)


def test_bytes_and_tuple_words_sort_alike(normalized):
    # the census engine's bytes words against tuples, on every normalized word
    # of length <= 7: the same images and distances, each image in its input's type
    for m in range(8):
        classes: dict = {}
        for w in normalized(m):
            classes.setdefault(content(w), []).append(w)
        for words in classes.values():
            as_bytes = [bytes(w) for w in words]
            for variant in SortVariant:
                for w, b in zip(words, as_bytes):
                    image, image_b = sort_via_stack(w, variant), sort_via_stack(b, variant)
                    assert type(image) is tuple and type(image_b) is bytes
                    assert tuple(image_b) == image, (w, variant)
                assert distances(as_bytes, variant) == distances(words, variant), (words[0], variant)


def test_walks_past_the_length_bound_are_refused(monkeypatch):
    # a word of n letters can need n - 1 passes of n letters: refused before the first
    passes = []
    monkeypatch.setattr(sorting, "sort_via_stack", lambda w, v: passes.append(w) or tuple(sorted(w)))
    longest = tuple(range(2, MAX_WALK_LEN + 1)) + (1,)
    assert distances([longest], SLOW) == [1] and len(passes) == 1
    for variant in SortVariant:
        with pytest.raises(SizeLimitError):
            distance(longest + (1,), variant)
        with pytest.raises(SizeLimitError):
            distances([bytes((1,) * (MAX_WALK_LEN + 1))], variant)
    assert len(passes) == 1


def test_distances_refuse_a_mixed_content_batch():
    with pytest.raises(InvariantError):
        distances([(2, 1, 2), (2, 1)], SLOW)
    with pytest.raises(InvariantError):
        distances([(1, 2), (1, 1, 2)], FAST)


def test_sorting_reduces_to_permutation_sorting(normalized):
    # one pass: fast through descending standardization, slow through ascending
    for m in range(0, 6):
        for w in normalized(m):
            c = content(w)
            assert sort_fast(w) == collapse_letters(c, sort_permutation(standardize_descending(w)))
            assert sort_slow(w) == collapse_letters(c, sort_permutation(standardize_ascending(w)))


def test_iterated_slow_identity(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            c = content(w)
            p = standardize_ascending(w)
            u = w
            for _ in range(distance_bound(c, SLOW)):
                p = sort_permutation(p)
                u = sort_slow(u)
                assert u == collapse_letters(c, p)


def test_ascending_image_closed_under_sorting(normalized):
    # sorting preserves the relative order of equal-letter blocks
    for m in range(1, 6):
        for w in normalized(m):
            p = sort_permutation(standardize_ascending(w))
            assert standardize_ascending(collapse_letters(content(w), p)) == p


def test_fast_and_slow_agree_when_only_1_repeats():
    # on content (k, 1, ..., 1) an equal stack top is a 1 and leaves before a
    # smaller letter can arrive, so the two passes are one map
    for m in range(1, 8):
        for k in range(1, m + 1):
            for w in enumerate_words((k,) + (1,) * (m - k)):
                assert sort_via_stack(w, FAST) == sort_via_stack(w, SLOW), w


def test_fast_side_has_no_iterated_identity():
    # two equal letters meet in the stack: the descending image is not preserved
    w = (2, 2, 1)
    image = {standardize_descending(u) for u in enumerate_words(content(w))}
    assert sort_permutation(standardize_descending(w)) not in image


def test_distance_bounds_hold_small(normalized):
    for m in range(1, 6):
        for w in normalized(m):
            c = content(w)
            assert distance(w, FAST) <= distance_bound(c, FAST)
            assert distance(w, SLOW) <= distance_bound(c, SLOW)


def test_worst_case_word():
    assert worst_case_word((2, 2, 3)) == parse_word("2233311")
    with pytest.raises(DomainError):
        worst_case_word((2, 0, 1))
    for total in range(1, 7):
        for c in positive_compositions(total):
            rho = worst_case_word(c)
            assert content(rho) == c
            assert distance(rho, FAST) == distance_bound(c, FAST)
            assert distance(rho, SLOW) == distance_bound(c, SLOW)


def test_exceptional_family():
    assert exceptional_family(5) == (3, 5, 7, 10, 10, 2, 4, 6, 8, 9, 1)
    assert exceptional_family(3) == parse_word("3662451")
    with pytest.raises(DomainError):
        exceptional_family(2)
    for n in range(3, 9):
        eta = exceptional_family(n)
        assert len(eta) == 2 * n + 1
        assert distance(eta, FAST) == 2 * n - 2
        assert distance(eta, SLOW) == n


def test_fertility_witness_words():
    assert fertility_witness(1, False) == (1, 2)
    assert fertility_witness(3, True) == parse_word("3211456")
    assert fertility_witness(4, False) == (4, 3, 2, 1, 5, 6, 7, 8)


def test_sorts_preserve_content(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            assert content(sort_fast(w)) == content(w)
            assert content(sort_slow(w)) == content(w)


def test_invariant_check_survives_optimize_flag():
    # `python -O` strips assert statements; theorem checks must raise regardless.
    code = textwrap.dedent("""
        import sys
        from stacksort import InvariantError, SortVariant, sorting
        if __debug__:
            sys.exit("not running under -O")
        sorting.distance_bound = lambda c, variant: 0  # a bound that (2, 1) breaks
        try:
            sorting.distance((2, 1), SortVariant.FAST)
        except InvariantError:
            sys.exit(0)
        sys.exit("the distance bound check did not fire")
    """)
    src = str(Path(stacksort.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
