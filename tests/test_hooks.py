import gc
import json
from itertools import product

import pytest

from stacksort import (
    DomainError,
    SizeLimitError,
    SortVariant,
    TreeClass,
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
from stacksort.cli import main
from stacksort.hooks import _shape_parents, filter_for

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
    assert all(postorder(t) == w and in_class(t, TreeClass.L) for t in trees)


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
                cls = TreeClass.R if variant is FAST else TreeClass.L
                seen = set()
                for config in enumerate_vhc(w, filter_for(variant)):
                    for tree in build_preimage_trees(w, config, variant):
                        assert postorder(tree) == w
                        assert in_class(tree, cls)
                        assert tree not in seen
                        seen.add(tree)


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
            found = brute_preimages(w, variant, space_limit=100)
            assert len(found) == count_preimages(w, variant)
            assert list(found) == sorted(set(found))
            assert all(sorted(u) == sorted(w) and sort_via_stack(u, variant) == w for u in found)


def test_brute_preimages_limit():
    with pytest.raises(SizeLimitError):
        brute_preimages(tuple(range(1, 12)), FAST, space_limit=1000)


def test_count_limits():
    w = tuple(range(1, 14))
    assert count_preimages(w, FAST) == count_preimages(w, SLOW) == catalan(13)
    assert count_preimages(w, SLOW, limit=13) == catalan(13)
    with pytest.raises(SizeLimitError):
        count_preimages(w, SLOW, limit=12)
    with pytest.raises(SizeLimitError):
        count_preimages_vhc(w, SLOW)


def _shapes(n):
    """Binary tree shapes on n nodes as nested (left, right) pairs, by left size."""
    if n == 0:
        return [None]
    return [(left, right) for a in range(n)
            for left in _shapes(a) for right in _shapes(n - 1 - a)]


def _parent_row(shape):
    """2 * parent + side for each node of the shape, nodes named in postorder."""
    row = []

    def walk(sh):  # returns the postorder name of the subtree's root
        if sh is None:
            return None
        kids = [walk(sh[0]), walk(sh[1])]
        row.append(-1)
        for side, kid in enumerate(kids):
            if kid is not None:
                row[kid] = 2 * (len(row) - 1) + side
        return len(row) - 1

    walk(shape)
    return tuple(row)


def test_shape_parent_tables_follow_shapes():
    # row t of each table names the parent of postorder node t, shape by shape
    for n in range(0, 7):
        shapes = _shapes(n)
        assert len(shapes) == catalan(n)
        assert _shape_parents(n) == tuple(_parent_row(shape) for shape in shapes), n


def test_enumerate_vhc_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_vhc(tuple(range(1, 14)), VhcFilter.ALL))


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
