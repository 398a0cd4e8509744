from stacksort import (
    PlaneTree,
    SortVariant,
    in_class,
    in_order,
    parse_word,
    postorder,
    sort_fast,
    sort_slow,
    sort_via_trees,
    word_to_tree,
)

FAST, SLOW = SortVariant.FAST, SortVariant.SLOW

# The two decreasing trees on {1..7} sharing postorder 2413567: their in-order
# readings are 4276153 and 2476153.
INORDER_LEFT = (4, 2, 7, 6, 1, 5, 3)
INORDER_RIGHT = (2, 4, 7, 6, 1, 5, 3)

# Golden trees for the word 23123311, frozen from the recursive construction.
GOLD_R = "(3 (2 . .) (3 (2 (1 . .) .) (3 . (1 . (1 . .)))))"
GOLD_L = "(3 (3 (3 (2 . .) (2 (1 . .) .)) .) (1 (1 . .) .))"


def text(t):
    """Nested "(label left right)", "." for the empty tree: the goldens' format."""
    return "." if t is None else f"({t.label} {text(t.left)} {text(t.right)})"


def test_traversals_single_node():
    node = PlaneTree(7)
    assert in_order(node) == (7,)
    assert postorder(node) == (7,)
    assert in_order(None) == ()
    assert postorder(None) == ()


def test_decreasing_tree_postorders():
    for w in (INORDER_LEFT, INORDER_RIGHT):
        t = word_to_tree(w, FAST)
        assert in_order(t) == w
        assert postorder(t) == (2, 4, 1, 3, 5, 6, 7)
        # permutations: both classes build the same tree
        assert word_to_tree(w, SLOW) == t


def test_golden_trees_23123311():
    w = parse_word("23123311")
    tr = word_to_tree(w, FAST)
    tl = word_to_tree(w, SLOW)
    assert text(tr) == GOLD_R
    assert text(tl) == GOLD_L
    assert in_order(tr) == w and in_order(tl) == w
    assert in_class(tr, FAST)
    assert in_class(tl, SLOW)


def test_equal_letter_word_trees():
    # the maximum splits at its first occurrence for R, last for L
    r = word_to_tree((1, 1), FAST)
    assert r == PlaneTree(1, None, PlaneTree(1))
    l = word_to_tree((1, 1), SLOW)
    assert l == PlaneTree(1, PlaneTree(1), None)
    assert in_class(r, FAST) and in_class(l, SLOW)
    assert not in_class(r, SLOW) and not in_class(l, FAST)


def test_in_class_rejects_equal_children_on_wrong_side():
    assert not in_class(PlaneTree(2, None, PlaneTree(2)), SLOW)
    assert not in_class(PlaneTree(2, PlaneTree(2), None), FAST)
    assert not in_class(PlaneTree(2, PlaneTree(3), None), FAST)  # not decreasing


def test_roundtrip_and_class_membership(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            for variant in SortVariant:
                t = word_to_tree(w, variant)
                assert in_order(t) == w
                assert in_class(t, variant)


def test_postorder_is_the_sorting_pass():
    assert sort_via_trees((2, 2, 1), FAST) == (1, 2, 2)
    assert sort_via_trees((4, 1, 6, 2), FAST) == (1, 4, 2, 6)
    assert sort_via_trees((), SLOW) == ()
    assert postorder(word_to_tree((2, 2, 1), SLOW)) == sort_slow((2, 2, 1)) == (2, 1, 2)


def test_tree_correspondence_exhaustive(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            assert sort_via_trees(w, FAST) == sort_fast(w)
            assert sort_via_trees(w, SLOW) == sort_slow(w)

