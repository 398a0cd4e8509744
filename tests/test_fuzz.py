"""Differential fuzzing: the DP count, the VHC sum and the reconstructed trees.

Short words (length <= 9) are checked three ways against each other and
against the operators; longer ones (up to 60, far beyond the VHC cap) against
properties every preimage count must have.  The examples are drawn from the
deterministic profile registered in conftest.py.
"""

from hypothesis import given
from hypothesis import strategies as st

from stacksort import (
    SortVariant,
    content,
    count_preimages,
    count_preimages_vhc,
    distance,
    distance_bound,
    in_order_preimages,
    sort_via_stack,
)


@st.composite
def words(draw, max_len: int, alphabet: int) -> tuple[int, ...]:
    """Words that end in their largest letter half of the time (only those
    have preimages), with small alphabets so that ties are common."""
    closed = draw(st.booleans())
    body = tuple(draw(st.lists(st.integers(1, alphabet), max_size=max_len - closed)))
    if closed:
        return body + (draw(st.integers(max(body, default=1), alphabet + 1)),)
    return body


@given(words(max_len=9, alphabet=5))
def test_three_counts_agree_and_preimages_sort_back(w):
    for variant in SortVariant:
        listed = in_order_preimages(w, variant)
        assert count_preimages(w, variant) == count_preimages_vhc(w, variant) == len(listed)
        assert len(set(listed)) == len(listed)
        assert all(sort_via_stack(u, variant) == w for u in listed)


@given(st.lists(st.integers(1, 30), min_size=1, max_size=60).map(tuple))
def test_images_have_preimages_and_other_words_none(u):
    for variant in SortVariant:
        w = sort_via_stack(u, variant)
        assert w[-1] == max(w)
        assert count_preimages(w, variant) >= 1
        if u[-1] != max(u):
            assert count_preimages(u, variant) == 0


@given(st.integers(13, 60).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple))
def test_permutations_count_alike_under_both_operators(q):
    closed = q + (len(q) + 1,)  # ends in its maximum, may still have no preimage
    image = sort_via_stack(q, SortVariant.FAST)
    for p in (closed, image):
        assert count_preimages(p, SortVariant.FAST) == count_preimages(p, SortVariant.SLOW)
    assert count_preimages(image, SortVariant.FAST) >= 1


@given(words(max_len=12, alphabet=6))
def test_distances_within_bounds(w):
    for variant in SortVariant:
        assert distance(w, variant) <= distance_bound(content(w), variant)
