from itertools import product

import pytest

from stacksort import (
    DomainError,
    Hook,
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
    spawn_tuples,
)
from stacksort.hooks import _label_shape, _shape_parents, _shapes, config_to_dict, filter_for

FAST, SLOW = SortVariant.FAST, SortVariant.SLOW


def make_config(w, pairs):
    return tuple(Hook((i, w[i - 1]), (j, w[j - 1])) for i, j in pairs)


def test_descent_tops():
    # descents are weak: 21133 has them at 1 (2>=1), 2 (1>=1) and 4 (3>=3)
    assert descent_tops(parse_word("21133")) == ((1, 2), (2, 1), (4, 3))
    assert descent_tops((1, 1, 2)) == ((1, 1),)
    assert descent_tops((4, 3, 2, 1)) == ((1, 4), (2, 3), (3, 2))
    assert descent_tops((1, 2, 3)) == ()
    assert descent_tops(()) == ()


def test_hook_flags():
    w = parse_word("21133")
    long_hook, short_hook = make_config(w, [(1, 5), (4, 5)])
    assert not long_hook.horizontal and not long_hook.small
    assert short_hook.horizontal and short_hook.small


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
    assert all_configs == [make_config(w, [(1, 3), (2, 3)])]
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
        make_config(w, [(1, 2)]),
        make_config(w, [(1, 3), (2, 3)]),
    ]
    assert induced_composition(w, configs[0]) == (2, 1)
    assert induced_composition(w, configs[1]) == (1, 1, 1)
    assert count_preimages(w, FAST) == 3 == len(brute_preimages(w, FAST))


def test_equal_height_interior_point_is_covered():
    # the long hook of 122 covers the point (2,2) sitting at its own height
    w = (1, 2, 2)
    config = make_config(w, [(1, 3), (2, 3)])
    assert induced_coloring(w, config) == (0, 1, 2)
    assert count_preimages(w, FAST) == 3 == len(brute_preimages(w, FAST))


def test_induced_coloring_validates():
    w = (1, 1, 2)
    with pytest.raises(DomainError):
        induced_coloring(w, make_config(w, [(2, 3)]))  # descent top 1 uncovered


def test_figure_configuration_of_211232124567():
    w = parse_word("211232124567")
    config = make_config(w, [(1, 4), (2, 3), (3, 4), (5, 11), (6, 8), (7, 8), (10, 11)])
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
    assert sum(1 for _ in spawn_tuples(w, config)) == 25


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
    for m in range(0, 5):
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
                config = make_config(w, pairs)
                for which in VhcFilter:
                    if is_valid_config(w, config, which):
                        expected.setdefault(which, set()).add(config)
            for which in VhcFilter:
                enumerated = list(enumerate_vhc(w, which))
                assert len(enumerated) == len(set(enumerated))
                assert set(enumerated) == expected.get(which, set()), (w, which)


def test_enumeration_order_is_canonical(normalized):
    for w in normalized(4):
        configs = list(enumerate_vhc(w, VhcFilter.ALL))
        keys = [tuple((h.sw[0], h.ne[0]) for h in c) for c in configs]
        assert keys == sorted(keys)


def test_spawn_tuples_counts(normalized):
    for m in range(1, 5):
        for w in normalized(m):
            for config in enumerate_vhc(w, VhcFilter.ALL):
                tuples = list(spawn_tuples(w, config))
                assert len(tuples) == catalan_product(induced_composition(w, config))
                classes = color_classes(w, config)
                for trees in tuples:
                    for positions, tree in zip(classes, trees):
                        heights = [w[p - 1] for p in positions]
                        assert postorder(tree) == tuple(heights)
                        assert in_class(tree, TreeClass.R) and in_class(tree, TreeClass.L)


def test_spawn_single_and_double_classes():
    w = (1, 1, 2)
    empty_hookless = list(enumerate_vhc((1, 2, 3), VhcFilter.ALL))
    assert empty_hookless == [()]
    assert sum(1 for _ in spawn_tuples((1, 2, 3), ())) == catalan(3)
    config = make_config(w, [(1, 2)])
    assert sum(1 for _ in spawn_tuples(w, config)) == 2  # one class of size 2


def test_build_preimage_trees_requires_family_membership():
    w = (2, 1, 2)
    config = make_config(w, [(1, 3), (2, 3)])
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


def test_shape_parent_tables_follow_shapes():
    # row t of each table names the parent of postorder node t in the labeled shape
    for n in range(0, 7):
        rows = _shape_parents(n)
        assert len(rows) == len(_shapes(n)) == catalan(n)
        for shape, row in zip(_shapes(n), rows):
            expected = [-1] * n
            stack = [_label_shape(shape, list(range(n)))]
            while stack:
                node = stack.pop()
                if node is None:
                    continue
                for side, child in enumerate((node.left, node.right)):
                    if child is not None:
                        expected[child.label] = 2 * node.label + side
                        stack.append(child)
            assert row == tuple(expected), (shape, row)


def test_enumerate_vhc_limit():
    with pytest.raises(SizeLimitError):
        list(enumerate_vhc(tuple(range(1, 14)), VhcFilter.ALL))


def test_config_to_dict():
    w = (2, 1, 2)
    config = make_config(w, [(1, 3), (2, 3)])
    entry = config_to_dict(w, config)
    assert entry == {
        "hooks": [{"sw": [1, 2], "ne": [3, 2]}, {"sw": [2, 1], "ne": [3, 2]}],
        "q": [1, 1, 1],
        "catalan": 1,
    }
