import json
import random
from math import comb

import pytest

from stacksort import (
    DomainError,
    FIBONACCI_TREE,
    GenTreeSpec,
    SizeLimitError,
    SortVariant,
    brute_count_avoiders,
    catalan,
    count_fast_sortable,
    count_preimages,
    count_slow_sortable,
    distance,
    distance_bound,
    enumerate_words,
    fuss_catalan,
    generating_tree_level_counts,
    identity,
    positive_compositions,
    uniform_avoider_tree,
    word_space_size,
)
from stacksort import counting
from stacksort.words import MAX_TREE_DEPTH, MAX_UNIFORM_LEN

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
    # bounded by the words' length ell * n, not by n alone
    assert fuss_catalan(MAX_UNIFORM_LEN, 1) == 1
    for ell, n in ((1, MAX_UNIFORM_LEN + 1), (MAX_UNIFORM_LEN + 1, 1),
                   (3, MAX_UNIFORM_LEN // 3 + 1)):
        with pytest.raises(SizeLimitError):
            fuss_catalan(ell, n)


def test_uniform_words_everything_agrees():
    for ell in range(1, 5):
        levels = generating_tree_level_counts(uniform_avoider_tree(ell), 12)
        for n in range(1, 13):
            value = fuss_catalan(ell, n)
            assert count_slow_sortable((ell,) * n) == value, (ell, n)
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
    count_fast_sortable((2, 2, 2))
    path = tmp_path / "memo.json"
    counting.save_memo(str(path))
    counting.clear_memo()
    assert count_slow_sortable((3, 2, 4, 1)) == fresh  # identical without the cache
    fresh_fast = count_fast_sortable((2, 2, 2))
    counting.clear_memo()
    counting.load_memo(str(path))
    assert counting._slow_memo[(3, 2, 4)] == fresh  # loaded: a warm start (key drops the last entry)
    assert counting._fast_memo[(2, 2, 2)] == fresh_fast == 43
    assert count_slow_sortable((3, 2, 4, 1)) == fresh


@pytest.mark.parametrize("key, content", [("fast", (1, 2, 2)), ("slow", (3, 2, 4, 1))])
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


def test_load_memo_checks_each_entry_on_its_own(tmp_path):
    # a right entry loads alone; a wrong one is refused, though the entries
    # before it are right, and leaves the tables unchanged
    counting.clear_memo()
    path = tmp_path / "memo.json"
    path.write_text(json.dumps({"fast": {"2,2,2": "43"}, "slow": {"2,2,2": "12"}}), encoding="utf-8")
    counting.load_memo(str(path))
    assert counting._fast_memo == {(2, 2, 2): 43} and counting._slow_memo == {(2, 2): 12}
    counting.clear_memo()
    path.write_text(json.dumps({"fast": {"2,2,2": "43", "2,1,2": "20"}}), encoding="utf-8")
    with pytest.raises(ValueError):
        counting.load_memo(str(path))
    assert counting._fast_memo == {} and counting._slow_memo == {}


def test_load_memo_refuses_slow_entries_with_zeros(tmp_path):
    # the slow step on a content with zeros is not the slow count; keyed
    # without zeros and the last entry, "2,0,1": "9" would make (2, 5) count 9
    count_fast_sortable((2, 1, 2))
    before = dict(counting._fast_memo), dict(counting._slow_memo)
    path = tmp_path / "memo.json"
    path.write_text(json.dumps({"slow": {"2,0": "3", "1,0": "2", "2,0,1": "9"}}), encoding="utf-8")
    with pytest.raises(ValueError):
        counting.load_memo(str(path))
    assert (counting._fast_memo, counting._slow_memo) == before
    assert count_slow_sortable((2, 5)) == 3


# What `save_memo` wrote for count_fast_sortable((2, 1, 2)) and
# count_slow_sortable((3, 1, 2)), each run cold, when the memos were keyed by
# full content: unsorted fast contents, zeros included, and slow contents
# with any last entry.
FULL_CONTENT_FILE = {
    "fast": {"1,0": "1", "1,1": "2", "2,0": "1", "2,1": "3", "3,0": "1", "3,1": "4",
             "3,2": "10", "1,2": "3", "1,0,2": "3", "2,2": "6", "2,0,2": "6", "2,1,2": "19"},
    "slow": {"3,1": "4", "2,1": "3", "1,1": "2", "3,1,2": "14"},
}


def test_memo_files_load_across_key_formats(tmp_path):
    path = tmp_path / "memo.json"
    path.write_text(json.dumps(FULL_CONTENT_FILE), encoding="utf-8")
    counting.clear_memo()
    counting.load_memo(str(path))
    assert counting._fast_memo[(1, 2, 2)] == 19 and counting._slow_memo[(3, 1)] == 14  # warm
    loaded = dict(counting._fast_memo), dict(counting._slow_memo)
    assert (count_fast_sortable((2, 1, 2)), count_slow_sortable((3, 1, 2))) == (19, 14)
    assert (counting._fast_memo, counting._slow_memo) == loaded  # nothing recomputed


# What `save_memo` wrote for count_fast_sortable((2, 1, 2)) and
# count_slow_sortable((3, 1, 2)), each run cold, when the fast count was a
# recurrence that kept, per key, the first content its value was taken at:
# unsorted fast contents, and the slow content as asked for.
FIRST_CONTENT_FILE = {
    "fast": {"1,1": "2", "2,1": "3", "3,1": "4", "3,2": "10", "2,2": "6", "2,1,2": "19"},
    "slow": {"3,1,2": "14"},
}


def test_memo_files_of_the_fast_recurrence_still_load(tmp_path):
    path = tmp_path / "memo.json"
    path.write_text(json.dumps(FIRST_CONTENT_FILE), encoding="utf-8")
    counting.clear_memo()
    counting.load_memo(str(path))
    assert counting._fast_memo[(1, 2, 2)] == 19 and counting._slow_memo[(3, 1)] == 14  # warm
    loaded = dict(counting._fast_memo), dict(counting._slow_memo)
    assert (count_fast_sortable((2, 1, 2)), count_slow_sortable((3, 1, 2))) == (19, 14)
    assert (counting._fast_memo, counting._slow_memo) == loaded  # nothing recomputed
    counting.clear_memo()


def test_saved_memos_load_back_as_they_were(tmp_path):
    rng = random.Random(17)
    path = tmp_path / "memo.json"
    for _ in range(300):
        counting.clear_memo()
        for _ in range(rng.randint(1, 6)):
            c = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 7)))
            rng.choice([count_fast_sortable, count_slow_sortable])(c)
        memos = dict(counting._fast_memo), dict(counting._slow_memo)
        counting.save_memo(str(path))
        counting.clear_memo()
        counting.load_memo(str(path))
        assert (counting._fast_memo, counting._slow_memo) == memos
    counting.clear_memo()


def full_content_fast_step(c, count):
    """The fast recurrence step, applied to the content as given."""
    rest = c[2:]
    if c[1] == 0:
        return count((c[0],) + rest)
    value = count((c[0] + c[1],) + rest)
    return value + sum(count((r, c[1] - 1) + rest) for r in range(1, c[0] + 1))


def unfactored_slow_step(c, count):
    """The slow recurrence step with the sum over k written out term by term."""
    n = len(c)
    value = 2 * count(c[:-1])
    for i in range(1, n - 1):
        value += count(c[:i]) * count(c[i:-1])
    for i in range(1, n):
        for k in range(1, c[i - 1]):
            value += count(c[: i - 1] + (k,)) * count((c[i - 1] - k,) + c[i:-1])
    return value


def full_content_counter(step):
    """A plain memoized recursion over `step`, keyed by the full content."""
    memo = {}

    def count(c):
        if len(c) <= 1:
            return 1
        if c not in memo:
            memo[c] = step(c, count)
        return memo[c]

    return count


def test_counters_match_the_full_content_recursion():
    # the memo keys take the fast count's symmetry and zero-blindness, and the
    # slow count's independence of the last entry, as given; this checks them.
    # The one-pass-sortable words of content c are the preimages of c's
    # identity word, so the tree DP `count_preimages` is a second, independent
    # method, checked also on contents beyond the full recursion's reach.
    fast = full_content_counter(full_content_fast_step)
    slow = full_content_counter(unfactored_slow_step)
    counting.clear_memo()
    contents = [c for m in range(1, 13) for c in positive_compositions(m)]
    contents += [(3, 0, 2, 0, 1), (0, 4, 0), (2, 0, 0, 3, 1), (0, 0, 1, 2)]
    long_contents = [(1,) * 40, (2,) * 20, (3, 1, 4, 1, 5, 9, 2, 6)]
    for c in contents + long_contents:
        fast_count, slow_count = count_fast_sortable(c), count_slow_sortable(c)
        assert count_preimages(identity(c), SortVariant.FAST) == fast_count, c
        assert count_preimages(identity(c), SortVariant.SLOW) == slow_count, c
        if c not in long_contents:
            assert fast_count == fast(c), c
            assert slow_count == slow(tuple(k for k in c if k)), c


@pytest.mark.parametrize("c", [(2, 1, 2), (3, 0, 2, 0, 1), (1, 1, 1, 1, 1, 1), (4, 3, 2, 1)])
def test_memos_hold_only_the_keys_asked_for(c):
    # each count stores its own key and no other: the walks read no subterm
    counting.clear_memo()
    fast_n, slow_n = count_fast_sortable(c), count_slow_sortable(c)
    stripped = tuple(k for k in c if k)
    assert counting._fast_memo == {tuple(sorted(stripped)): fast_n}
    assert counting._slow_memo == {stripped[:-1]: slow_n}
    counting.clear_memo()


def test_walks_past_the_tree_depth_are_refused(tmp_path, monkeypatch):
    # a walk keeps a label list as long as its key's sum; keys that are never
    # walked (one fast entry, no slow entry) stay allowed
    counting.clear_memo()
    deep = MAX_TREE_DEPTH + 1
    for count in (count_fast_sortable, count_slow_sortable):
        with pytest.raises(SizeLimitError):
            count((deep, 1))
    assert count_fast_sortable((deep,)) == count_slow_sortable((deep,)) == 1
    assert count_slow_sortable((1, deep)) == 2
    # a cache entry past the bound is a bad entry, and nothing is merged
    before = dict(counting._fast_memo), dict(counting._slow_memo)
    path = tmp_path / "memo.json"
    for name, good in (("fast", "6"), ("slow", "3")):  # the counts of (2, 2)
        path.write_text(json.dumps({name: {"2,2": good, f"{deep},2": "1"}}), encoding="utf-8")
        with pytest.raises(ValueError, match="exceeds limit"):
            counting.load_memo(str(path))
        assert (counting._fast_memo, counting._slow_memo) == before
    # the bound is checked when a key is walked, never on a memo hit
    assert count_fast_sortable((2, 2)) == 6
    monkeypatch.setattr(counting, "MAX_TREE_DEPTH", 3)
    assert count_fast_sortable((2, 2)) == 6
    with pytest.raises(SizeLimitError):
        count_slow_sortable((2, 2, 2))
    counting.clear_memo()


def test_recurrences_need_no_python_recursion():
    # both counts read no subterm and take long contents in one walk
    counting.clear_memo()
    assert count_fast_sortable((1, 1500)) == 1501
    assert count_fast_sortable((1,) * 2000) == catalan(2000)
    uneven = (7, 1, 3, 12, 2, 1, 1, 9, 4, 1, 30, 1, 1, 5, 2, 20, 1, 1, 1, 6)
    assert count_fast_sortable(uneven) == count_preimages(identity(uneven), SortVariant.FAST)
    assert count_slow_sortable((1,) * 2000) == catalan(2000)
    assert count_slow_sortable((2,) * 500) == fuss_catalan(2, 500)
    counting.clear_memo()
