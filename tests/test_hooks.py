import gc
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from stacksort import (
    DomainError,
    InvariantError,
    SizeLimitError,
    SortVariant,
    VhcFilter,
    brute_count_avoiders,
    brute_preimages,
    build_preimage_trees,
    catalan,
    catalan_product,
    color_classes,
    count_preimages,
    count_preimages_vhc,
    descent_tops,
    enumerate_vhc,
    in_class,
    in_order,
    in_order_preimages,
    induced_coloring,
    induced_composition,
    is_valid_config,
    parse_word,
    postorder,
    sort_via_stack,
)
from stacksort import hooks
from stacksort.cli import main
from stacksort.hooks import _shape_parents, filter_for
from stacksort.words import MAX_DP_LEN

FAST, SLOW = SortVariant.FAST, SortVariant.SLOW


def test_descent_tops():
    # descents are weak: 21133 has them at 1 (2>=1), 2 (1>=1) and 4 (3>=3)
    assert descent_tops(parse_word("21133")) == ((1, 2), (2, 1), (4, 3))
    assert descent_tops((1, 1, 2)) == ((1, 1),)
    assert descent_tops((4, 3, 2, 1)) == ((1, 4), (2, 3), (3, 2))
    assert descent_tops((1, 2, 3)) == ()
    assert descent_tops(()) == ()


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan_product((1, 1, 2, 1, 1, 1)) == 2
    assert catalan_product((1,) * 7) == 1
    assert catalan_product(()) == 1
    with pytest.raises(DomainError):
        catalan(-1)


def test_unsatisfiable_word_has_no_configs():
    # the descent top (2,2) of 121 has no legal northeast endpoint
    for which in VhcFilter:
        assert list(enumerate_vhc((1, 2, 1), which)) == []


def test_empty_and_singleton_words():
    assert list(enumerate_vhc((), VhcFilter.ALL)) == [()]
    assert list(enumerate_vhc((1,), VhcFilter.ALL)) == [()]
    assert count_preimages((), FAST) == 1
    assert count_preimages((1,), FAST) == 1
    assert count_preimages((2, 1), FAST) == 0
    assert count_preimages((2, 1), SLOW) == 0
    for variant in SortVariant:
        assert count_preimages_vhc((), variant) == 1
        assert count_preimages_vhc((1,), variant) == 1
        assert count_preimages_vhc((2, 1), variant) == 0
        assert in_order_preimages((), variant) == [()]
        assert list(build_preimage_trees((), (), variant)) == [None]


def test_configs_of_212():
    w = (2, 1, 2)
    all_configs = list(enumerate_vhc(w, VhcFilter.ALL))
    assert all_configs == [((1, 3), (2, 3))]
    assert list(enumerate_vhc(w, VhcFilter.L)) == all_configs
    assert list(enumerate_vhc(w, VhcFilter.R)) == []
    config = all_configs[0]
    assert induced_coloring(w, config) == (0, 1, 2)
    assert induced_composition(w, config) == (1, 1, 1)
    assert count_preimages(w, SLOW) == 1
    assert brute_preimages(w, SLOW) == ((2, 2, 1),)


def test_configs_of_112():
    w = (1, 1, 2)
    configs = list(enumerate_vhc(w, VhcFilter.ALL))
    assert configs == [
        ((1, 2),),
        ((1, 3), (2, 3)),
    ]
    assert induced_composition(w, configs[0]) == (2, 1)
    assert induced_composition(w, configs[1]) == (1, 1, 1)
    assert count_preimages(w, FAST) == 3 == len(brute_preimages(w, FAST))


def test_equal_height_interior_point_is_covered():
    # the long hook of 122 covers the point (2,2) sitting at its own height
    w = (1, 2, 2)
    config = ((1, 3), (2, 3))
    assert induced_coloring(w, config) == (0, 1, 2)
    assert count_preimages(w, FAST) == 3 == len(brute_preimages(w, FAST))


def test_induced_coloring_validates():
    w = (1, 1, 2)
    with pytest.raises(DomainError):
        induced_coloring(w, ((2, 3),))  # descent top 1 uncovered


@pytest.mark.parametrize("w, config", [
    ((2, 1, 2), ((0, 3), (1, 3), (2, 3))),  # southwest index 0
    ((2, 1, 2), ((1, 3), (2, 3), (3, 4))),  # northeast index m + 1
    ((2, 1, 2), ((1, 3), (2, 3), (3, 3))),  # i = j
    ((1, 1, 1), ((1, 2), (2, 3), (3, 2))),  # i > j
    ((2, 1), ((1, 2),)),  # northeast endpoint lower than the southwest one
    ((2, 1, 2), ((2, 3), (1, 3))),  # southwest indices out of order
    ((2, 1, 2), ((1, 3), (1, 3), (2, 3))),  # a repeated southwest index
])
def test_malformed_configs_are_rejected(w, config):
    # each passes every other condition once its own check is dropped
    for which in VhcFilter:
        assert not is_valid_config(w, config, which)
    with pytest.raises(DomainError):
        color_classes(w, config)
    for variant in SortVariant:
        with pytest.raises(DomainError):
            list(build_preimage_trees(w, config, variant))


def test_figure_configuration_of_211232124567():
    w = parse_word("211232124567")
    config = ((1, 4), (2, 3), (3, 4), (5, 11), (6, 8), (7, 8), (10, 11))
    assert config in list(enumerate_vhc(w, VhcFilter.BINARY))
    classes = color_classes(w, config)
    assert [(p, w[p - 1]) for p in classes[0]] == [(1, 2), (5, 3), (12, 7)]
    assert classes[1:4] == [[2], [3], [4]]
    assert [(p, w[p - 1]) for p in classes[4]] == [(6, 2), (9, 4), (10, 5)]
    assert classes[5:] == [[7], [8], [11]]
    assert induced_composition(w, config) == (3, 1, 1, 1, 3, 1, 1, 1)
    # one non-small horizontal hook: binary and slow-family but not fast-family
    assert is_valid_config(w, config, VhcFilter.L)
    assert not is_valid_config(w, config, VhcFilter.R)
    assert sum(1 for _ in build_preimage_trees(w, config, SLOW)) == 25


def test_fertility_witness_configurations():
    w = parse_word("3211456")
    r_configs = list(enumerate_vhc(w, VhcFilter.R))
    assert len(r_configs) == 4
    assert sorted(catalan_product(induced_composition(w, c)) for c in r_configs) == [1, 2, 2, 2]
    assert sorted(induced_composition(w, c) for c in r_configs) == [
        (1, 1, 1, 1, 1, 1, 1),
        (1, 1, 2, 1, 1, 1),
        (1, 2, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1),
    ]
    # for this word the three binary families coincide
    assert r_configs == list(enumerate_vhc(w, VhcFilter.L))
    assert r_configs == list(enumerate_vhc(w, VhcFilter.BINARY))
    assert count_preimages(w, FAST) == count_preimages(w, SLOW) == 7


def test_enumeration_matches_subset_oracle(normalized):
    # independent oracle: filter all hook sets through the validity predicate
    for m in range(0, 6):
        for w in normalized(m):
            options = []
            for i in range(1, len(w)):
                legal = [None] + [
                    j for j in range(i + 1, len(w) + 1) if w[i - 1] <= w[j - 1]
                ]
                options.append((i, legal))
            expected = {}
            for choice in product(*(legal for _, legal in options)):
                pairs = tuple(
                    (i, j) for (i, _), j in zip(options, choice) if j is not None
                )
                for which in VhcFilter:
                    if is_valid_config(w, pairs, which):
                        expected.setdefault(which, set()).add(pairs)
            for which in VhcFilter:
                enumerated = list(enumerate_vhc(w, which))
                assert len(enumerated) == len(set(enumerated))
                assert set(enumerated) == expected.get(which, set()), (w, which)


def test_enumeration_order_is_canonical(normalized):
    for w in normalized(4):
        configs = list(enumerate_vhc(w, VhcFilter.ALL))
        assert configs == sorted(configs)


def test_build_preimage_trees_counts(normalized):
    # each configuration spawns one tree per choice of class trees: a Catalan product
    for m in range(1, 6):
        for w in normalized(m):
            for variant in SortVariant:
                for config in enumerate_vhc(w, filter_for(variant)):
                    count = sum(1 for _ in build_preimage_trees(w, config, variant))
                    assert count == catalan_product(induced_composition(w, config)), (
                        w, config, variant)


def test_build_preimage_trees_single_and_double_classes():
    w = (1, 1, 2)
    empty_hookless = list(enumerate_vhc((1, 2, 3), VhcFilter.ALL))
    assert empty_hookless == [()]
    config = ((1, 2),)
    for variant in SortVariant:
        assert sum(1 for _ in build_preimage_trees((1, 2, 3), (), variant)) == catalan(3)
        # one class of size 2
        assert sum(1 for _ in build_preimage_trees(w, config, variant)) == 2


def test_build_preimage_trees_requires_family_membership():
    w = (2, 1, 2)
    config = ((1, 3), (2, 3))
    with pytest.raises(DomainError):
        list(build_preimage_trees(w, config, FAST))  # config is not in the R family
    trees = list(build_preimage_trees(w, config, SLOW))
    assert [in_order(t) for t in trees] == [(2, 2, 1)]
    assert all(postorder(t) == w and in_class(t, SLOW) for t in trees)


def test_preimage_reconstruction_small(normalized):
    for m in range(0, 5):
        for w in normalized(m):
            for variant in SortVariant:
                words = in_order_preimages(w, variant)
                assert len(words) == len(set(words))
                assert set(words) == set(brute_preimages(w, variant))
                assert len(words) == count_preimages(w, variant)


def test_preimage_trees_land_in_their_class(normalized):
    for m in range(1, 5):
        for w in normalized(m):
            for variant in SortVariant:
                seen = set()
                for config in enumerate_vhc(w, filter_for(variant)):
                    for tree in build_preimage_trees(w, config, variant):
                        assert postorder(tree) == w
                        assert in_class(tree, variant)
                        assert tree not in seen
                        seen.add(tree)


def test_builder_output_and_order_are_pinned(normalized):
    # every tree, in yield order, over the configurations of every normalized
    # word of length <= 6 in `enumerate_vhc` order, both operators
    digest, trees = hashlib.sha256(), 0
    for m in range(7):
        for w in normalized(m):
            for variant in SortVariant:
                for config in enumerate_vhc(w, filter_for(variant)):
                    for tree in build_preimage_trees(w, config, variant):
                        digest.update(repr(tree).encode())
                        trees += 1
    assert trees == 10634
    assert digest.hexdigest() == "1e4cacca77e97aca0bd5142f554cc91848f1dbb087dc7f7f05267f9777ca0e06"


# Rows for a class of three nodes (root code 6), each breaking a theorem the
# builder checks.
BAD_SHAPE_ROWS = {
    "a second root": (bytes((6, 4, 6)), "no parent"),
    "a parent named before its child": (bytes((4, 0, 6)), "should not be placed yet"),
    "two children on one slot": (bytes((4, 4, 6)), "left slot already taken"),
}


@pytest.mark.parametrize("row, reason", BAD_SHAPE_ROWS.values(), ids=BAD_SHAPE_ROWS)
def test_bad_shape_rows_raise(monkeypatch, row, reason):
    # the word 123 has one configuration, (), whose one class holds all three points
    monkeypatch.setattr(hooks, "_shape_parents", lambda n: (row,))
    for variant in SortVariant:
        with pytest.raises(InvariantError, match=reason):
            list(build_preimage_trees((1, 2, 3), (), variant))


BAD_ROWS_CHECK = """
    import sys
    from stacksort import InvariantError, SortVariant, build_preimage_trees, hooks
    if __debug__:
        sys.exit("not run under -O")
    for row, reason in ROWS:
        hooks._shape_parents = lambda n, row=row: (row,)
        for variant in SortVariant:
            try:
                list(build_preimage_trees((1, 2, 3), (), variant))
            except InvariantError as exc:
                if reason not in str(exc):
                    sys.exit(f"{row} raised {exc}")
            else:
                sys.exit(f"{row} built a tree")
"""


def test_bad_shape_rows_raise_under_python_O():
    # the builder's checks are raises, not asserts, so `python -O` keeps them
    src = str(Path(hooks.__file__).resolve().parents[1])
    code = textwrap.dedent(BAD_ROWS_CHECK).replace("ROWS", repr(list(BAD_SHAPE_ROWS.values())))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _nodes_by_position(tree, m):
    """Each node of a tree on m nodes, keyed by its 1-based postorder position."""
    nodes, todo = {}, [(tree, m)]
    while todo:
        t, end = todo.pop()
        if t is not None:
            nodes[end] = t
            todo += [(t.right, end - 1), (t.left, end - 1 - len(in_order(t.right)))]
    return nodes


def test_hooks_are_child_links_on_fixed_sides(normalized):
    # j's right child is j - 1 in postorder, so the small hook (j - 1, j) hangs
    # right and any other hook into j left; the slow operator swings an equal
    # right child to the left, where it is an only child
    links = 0
    for m in range(0, 7):
        for w in normalized(m):
            for variant in SortVariant:
                for config in enumerate_vhc(w, filter_for(variant)):
                    for tree in build_preimage_trees(w, config, variant):
                        nodes = _nodes_by_position(tree, m)
                        for i, j in config:
                            if i < j - 1:
                                assert nodes[j].left is nodes[i]
                            elif variant is SLOW and w[i - 1] == w[j - 1]:
                                assert nodes[j].left is nodes[i] and nodes[j].right is None
                            else:
                                assert nodes[j].right is nodes[i]
                            links += 1
    assert links == 28950


def test_brute_preimages_of_identity_are_avoiders():
    from stacksort import identity

    for c in [(2, 1), (1, 1, 1), (2, 2), (1, 2, 1)]:
        w = identity(c)
        assert len(brute_preimages(w, FAST)) == brute_count_avoiders(c, [(2, 3, 1)])
        assert len(brute_preimages(w, SLOW)) == brute_count_avoiders(c, [(2, 3, 1), (2, 2, 1)])


def test_brute_preimages_of_a_word_with_huge_letters():
    # the class is walked over the letters relabelled 1..d, so a huge letter
    # costs no more than a small one
    for text in ("2 1 100000000", "2 1 3 2000000"):
        w = parse_word(text)
        for variant in (FAST, SLOW):
            found = brute_preimages(w, variant)
            assert len(found) == count_preimages(w, variant)
            assert list(found) == sorted(set(found))
            assert all(sorted(u) == sorted(w) and sort_via_stack(u, variant) == w for u in found)


def test_brute_preimages_limit():
    # 11! words is past MAX_SPACE
    with pytest.raises(SizeLimitError, match="exceeds limit 2000000"):
        brute_preimages(tuple(range(1, 12)), FAST)


def test_count_limits():
    w = tuple(range(1, 14))
    assert count_preimages(w, FAST) == count_preimages(w, SLOW) == catalan(13)
    assert count_preimages(w, SLOW, limit=13) == catalan(13)
    with pytest.raises(SizeLimitError):
        count_preimages(w, SLOW, limit=12)
    with pytest.raises(SizeLimitError):
        count_preimages_vhc(w, SLOW)
    # the O(m^3) DP has its own cap, which a larger `limit` does not lift
    longest = tuple(range(1, MAX_DP_LEN + 1))
    for limit in (None, MAX_DP_LEN + 1):
        with pytest.raises(SizeLimitError):
            count_preimages(longest + (MAX_DP_LEN + 1,), FAST, limit=limit)
    assert count_preimages(longest[::-1], FAST) == 0  # the longest word allowed


@lru_cache(maxsize=None)
def _shapes(n):
    """Binary tree shapes on n nodes as nested (left, right) pairs, by left size."""
    if n == 0:
        return (None,)
    return tuple((left, right) for a in range(n)
                 for left in _shapes(a) for right in _shapes(n - 1 - a))


def _parent_row(shape, n):
    """2 * parent + side for each node of the shape on n nodes, nodes named in
    postorder, and 2n at the root."""
    row = []

    def walk(sh):  # returns the postorder name of the subtree's root
        if sh is None:
            return None
        kids = [walk(sh[0]), walk(sh[1])]
        row.append(2 * n)
        for side, kid in enumerate(kids):
            if kid is not None:
                row[kid] = 2 * (len(row) - 1) + side
        return len(row) - 1

    walk(shape)
    return bytes(row)


def test_shape_parent_tables_follow_shapes():
    # row t of each table names the parent of postorder node t, shape by shape
    for n in range(0, 11):
        shapes = _shapes(n)
        assert len(shapes) == catalan(n)
        assert _shape_parents(n) == tuple(_parent_row(shape, n) for shape in shapes), n
    # past the oracle: Catalan(n) bytes rows of n codes, the root's 2n only last
    for n in range(0, 13):
        rows = _shape_parents(n)
        assert len(rows) == catalan(n), n
        for row in rows:
            assert type(row) is bytes and len(row) == n, n
            assert row.find(2 * n) == n - 1, row  # -1, not found, for n = 0


def test_shape_parent_table_memory_is_pinned():
    # 16,796 bytes rows for n = 10 take 0.86 MB with the table; per-row tuples took 2.15 MB
    rows = _shape_parents(10)
    assert sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)) < 1_000_000


def test_enumerate_vhc_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_vhc(tuple(range(1, 14)), VhcFilter.ALL))


def test_listing_limit():
    # perfbench/make_reference.py lists 13-letter words with limit=13
    w = (2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 13)
    with pytest.raises(SizeLimitError, match="word length 13 exceeds limit 12"):
        in_order_preimages(w, SLOW)
    for variant in (FAST, SLOW):
        listing = in_order_preimages(w, variant, limit=13)
        assert len(listing) == count_preimages(w, variant) > 0
    with pytest.raises(SizeLimitError, match="word length 3 exceeds limit 2"):
        in_order_preimages((1, 2, 3), SLOW, limit=2)


def test_config_to_dict(capsys):
    # the JSON rendering of a configuration lives in the vhc command
    w = (2, 1, 2)
    config = ((1, 3), (2, 3))
    assert list(enumerate_vhc(w, VhcFilter.ALL)) == [config]
    assert induced_composition(w, config) == (1, 1, 1)
    assert main(["--format", "json", "vhc", "212"]) == 0
    assert json.loads(capsys.readouterr().out)["configs"] == [{
        "hooks": [{"sw": [1, 2], "ne": [3, 2]}, {"sw": [2, 1], "ne": [3, 2]}],
        "q": [1, 1, 1],
        "catalan": 1,
    }]


def test_listing_preimages_leaves_no_reference_cycles():
    # the configuration search frees its state by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for variant in (FAST, SLOW):
            assert len(in_order_preimages(tuple(range(1, 9)), variant)) == catalan(8)
        assert gc.collect() == 0
    finally:
        gc.enable()
