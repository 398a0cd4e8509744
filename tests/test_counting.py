import json
from math import comb

import pytest

from stacksort import (
    DomainError,
    FIBONACCI_TREE,
    GenTreeSpec,
    SortVariant,
    brute_count_avoiders,
    catalan,
    count_fast_sortable,
    count_slow_sortable,
    distance,
    distance_bound,
    enumerate_words,
    fuss_catalan,
    generating_tree_level_counts,
    positive_compositions,
    uniform_avoider_tree,
    word_space_size,
)
from stacksort import counting

P231 = (2, 3, 1)
P221 = (2, 2, 1)


def table_fast_three(c1, c2, c3):
    # closed form for three letter values, used only as a test oracle
    s = c1 + c2 + c3
    return 2**s - sum(comb(s, r) for r in range(c1)) - sum(
        comb(s, r) for r in range(c2)
    ) - sum(comb(s, r) for r in range(c3))


def test_fast_sortable_base_cases():
    assert count_fast_sortable(()) == 1
    assert count_fast_sortable((5,)) == 1
    assert count_fast_sortable((1, 1, 1)) == 5
    assert count_fast_sortable((2, 2)) == 6


def test_fast_sortable_two_letter_closed_form():
    for c1 in range(0, 5):
        for c2 in range(0, 5):
            assert count_fast_sortable((c1, c2)) == comb(c1 + c2, c1)


def test_fast_sortable_three_letter_closed_form():
    for c1 in range(1, 4):
        for c2 in range(1, 4):
            for c3 in range(1, 4):
                assert count_fast_sortable((c1, c2, c3)) == table_fast_three(c1, c2, c3)


def test_fast_sortable_zero_entries():
    # a missing letter value collapses away
    assert count_fast_sortable((2, 0, 3)) == count_fast_sortable((2, 3))
    assert count_fast_sortable((0, 1, 1)) == count_fast_sortable((1, 1, 0))


def test_slow_sortable_base_cases():
    assert count_slow_sortable(()) == 1
    assert count_slow_sortable((4,)) == 1
    assert count_slow_sortable((1, 1, 1)) == 5
    assert count_slow_sortable((2, 2, 2)) == 12


def test_slow_sortable_closed_forms():
    for c1 in range(1, 5):
        for c2 in range(1, 5):
            assert count_slow_sortable((c1, c2)) == c1 + 1
            for c3 in range(1, 5):
                expected = (c1 + 1) * (c1 + 2 * c2 + 2) // 2
                assert count_slow_sortable((c1, c2, c3)) == expected


def test_slow_sortable_strips_zeros():
    assert count_slow_sortable((2, 0, 3)) == count_slow_sortable((2, 3))
    assert count_slow_sortable((0, 0, 2)) == 1


def test_negative_entries_rejected():
    with pytest.raises(DomainError):
        count_fast_sortable((1, -1))
    with pytest.raises(DomainError):
        count_slow_sortable((-2,))


def test_recurrences_match_brute_force():
    for total in range(1, 7):
        for c in positive_compositions(total):
            assert count_fast_sortable(c) == brute_count_avoiders(c, [P231]), c
            assert count_slow_sortable(c) == brute_count_avoiders(c, [P231, P221]), c


def test_fast_count_symmetric_in_arguments():
    for total in range(1, 7):
        for c in positive_compositions(total):
            assert count_fast_sortable(c) == count_fast_sortable(tuple(sorted(c)))


def test_slow_count_ignores_last_argument():
    for c in [(1,), (2, 1), (1, 3), (2, 2, 2), (3, 1, 2)]:
        values = {count_slow_sortable(c + (a,)) for a in range(1, 5)}
        assert len(values) == 1


def test_fast_dominates_slow_with_equality_iff_tail_ones():
    for total in range(1, 8):
        for c in positive_compositions(total):
            fast_n, slow_n = count_fast_sortable(c), count_slow_sortable(c)
            assert fast_n >= slow_n
            assert (fast_n == slow_n) == all(k == 1 for k in c[1:]), c


def test_fuss_catalan_values():
    for n in range(0, 8):
        assert fuss_catalan(1, n) == comb(2 * n, n) // (n + 1)
    assert fuss_catalan(2, 2) == 3
    assert fuss_catalan(2, 4) == 55
    with pytest.raises(DomainError):
        fuss_catalan(0, 3)


def test_uniform_words_everything_agrees():
    for ell in (1, 2):
        levels = generating_tree_level_counts(uniform_avoider_tree(ell), 4)
        for n in range(1, 5):
            value = fuss_catalan(ell, n)
            assert count_slow_sortable((ell,) * n) == value
            assert levels[n - 1] == value
            if word_space_size((ell,) * n) <= 10_000:
                assert brute_count_avoiders((ell,) * n, [P231, P221]) == value


def test_fuss_catalan_direct_enumeration_2_2():
    # the three 2-uniform avoiders on two values are 1122, 1212, 2112
    from stacksort import contains_pattern, enumerate_words

    avoiders = [
        w
        for w in enumerate_words((2, 2))
        if not contains_pattern(w, P231) and not contains_pattern(w, P221)
    ]
    assert avoiders == [(1, 1, 2, 2), (1, 2, 1, 2), (2, 1, 1, 2)]


def test_generating_tree_fibonacci():
    assert generating_tree_level_counts(FIBONACCI_TREE, 7) == [1, 2, 3, 5, 8, 13, 21]


def test_generating_tree_catalan_powers():
    assert generating_tree_level_counts(uniform_avoider_tree(1), 4) == [1, 2, 5, 14]
    assert generating_tree_level_counts(uniform_avoider_tree(2), 4) == [1, 3, 12, 55]


def test_generating_tree_errors():
    with pytest.raises(DomainError):
        generating_tree_level_counts(FIBONACCI_TREE, 0)
    broken = GenTreeSpec(axiom=3, rule={3: (4,)})
    with pytest.raises(DomainError):
        generating_tree_level_counts(broken, 3)


def test_brute_count_avoiders_examples():
    assert brute_count_avoiders((2, 2), [P231, P221]) == 3
    assert brute_count_avoiders((2, 2), [P231]) == 6
    assert brute_count_avoiders((1, 1, 1), [P231]) == 5
    assert brute_count_avoiders((3,), []) == 1


def test_t_sortable_counts():
    # words of W_c that reach the identity within t passes, read off `distance`
    for c in [(2, 1), (1, 1, 1), (2, 2), (1, 2, 2)]:
        within = {}
        for variant in SortVariant:
            distances = [distance(w, variant) for w in enumerate_words(c)]
            bound = distance_bound(c, variant)
            assert sum(d <= 0 for d in distances) == 1
            assert sum(d <= bound for d in distances) == word_space_size(c)
            within[variant] = sum(d <= 1 for d in distances)
        assert within[SortVariant.FAST] == brute_count_avoiders(c, [P231])
        assert within[SortVariant.SLOW] == brute_count_avoiders(c, [P231, P221])


def test_memo_persistence_roundtrip(tmp_path):
    counting.clear_memo()
    fresh = count_slow_sortable((3, 2, 4, 1))
    path = tmp_path / "memo.json"
    counting.save_memo(str(path))
    counting.clear_memo()
    assert count_slow_sortable((3, 2, 4, 1)) == fresh  # identical without the cache
    counting.clear_memo()
    counting.load_memo(str(path))
    assert counting._slow_memo[(3, 2, 4, 1)] == fresh  # loaded: a warm start
    assert count_slow_sortable((3, 2, 4, 1)) == fresh
    assert count_fast_sortable((2, 2, 2)) == count_fast_sortable((2, 2, 2))


@pytest.mark.parametrize("key, content", [("fast", (2, 1, 2)), ("slow", (3, 2, 4, 1))])
def test_load_memo_refuses_values_the_recurrence_contradicts(tmp_path, key, content):
    counting.clear_memo()
    count_fast_sortable((2, 1, 2))
    count_slow_sortable((3, 2, 4, 1))
    path = tmp_path / "memo.json"
    counting.save_memo(str(path))
    data = json.loads(path.read_text(encoding="utf-8"))
    text = ",".join(map(str, content))
    data[key][text] = str(int(data[key][text]) + 1)
    path.write_text(json.dumps(data), encoding="utf-8")
    counting.clear_memo()
    with pytest.raises(ValueError):
        counting.load_memo(str(path))
    assert counting._fast_memo == {} and counting._slow_memo == {}


def test_load_memo_refuses_entries_without_their_subterms(tmp_path):
    counting.clear_memo()
    path = tmp_path / "memo.json"
    path.write_text(json.dumps({"slow": {"2,2,2": "12"}}), encoding="utf-8")
    with pytest.raises(ValueError):
        counting.load_memo(str(path))
    assert counting._slow_memo == {}


def recursive_memo(c, step):
    """The entries a plain memoized recursion over `step` stores for c."""
    memo = {}

    def count(d):
        if len(d) <= 1:
            return 1
        if d not in memo:
            memo[d] = step(d, count)
        return memo[d]

    count(c)
    return memo


@pytest.mark.parametrize("c", [(2, 1, 2), (3, 0, 2, 0, 1), (1, 1, 1, 1, 1, 1), (4, 3, 2, 1)])
def test_recurrences_memoize_what_the_recursion_stores(c):
    counting.clear_memo()
    count_fast_sortable(c)
    count_slow_sortable(c)
    assert counting._fast_memo == recursive_memo(c, counting._fast_step)
    assert counting._slow_memo == recursive_memo(tuple(k for k in c if k), counting._slow_step)


def test_recurrences_need_no_python_recursion():
    # both chains are deeper than the interpreter's recursion limit
    counting.clear_memo()
    assert count_fast_sortable((1, 1500)) == 1501
    assert count_slow_sortable((1,) * 600) == catalan(600)
    counting.clear_memo()
