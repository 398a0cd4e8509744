from stacksort import (
    PlaneTree,
    SortVariant,
    TreeClass,
    in_class,
    in_order,
    parse_word,
    postorder,
    sort_fast,
    sort_slow,
    sort_via_trees,
    tree_class_for,
    tree_to_text,
    word_to_tree,
)

# The two decreasing trees on {1..7} sharing postorder 2413567: their in-order
# readings are 4276153 and 2476153.
INORDER_LEFT = (4, 2, 7, 6, 1, 5, 3)
INORDER_RIGHT = (2, 4, 7, 6, 1, 5, 3)

# Golden trees for the word 23123311, frozen from the recursive construction.
GOLD_R = "(3 (2 . .) (3 (2 (1 . .) .) (3 . (1 . (1 . .)))))"
GOLD_L = "(3 (3 (3 (2 . .) (2 (1 . .) .)) .) (1 (1 . .) .))"


def test_traversals_single_node():
    node = PlaneTree(7)
    assert in_order(node) == (7,)
    assert postorder(node) == (7,)
    assert in_order(None) == ()
    assert postorder(None) == ()


def test_decreasing_tree_postorders():
    for w in (INORDER_LEFT, INORDER_RIGHT):
        t = word_to_tree(w, TreeClass.R)
        assert in_order(t) == w
        assert postorder(t) == (2, 4, 1, 3, 5, 6, 7)
        # permutations: both classes build the same tree
        assert word_to_tree(w, TreeClass.L) == t


def test_golden_trees_23123311():
    w = parse_word("23123311")
    tr = word_to_tree(w, TreeClass.R)
    tl = word_to_tree(w, TreeClass.L)
    assert tree_to_text(tr) == GOLD_R
    assert tree_to_text(tl) == GOLD_L
    assert in_order(tr) == w and in_order(tl) == w
    assert in_class(tr, TreeClass.R)
    assert in_class(tl, TreeClass.L)


def test_equal_letter_word_trees():
    # the maximum splits at its first occurrence for R, last for L
    r = word_to_tree((1, 1), TreeClass.R)
    assert r == PlaneTree(1, None, PlaneTree(1))
    l = word_to_tree((1, 1), TreeClass.L)
    assert l == PlaneTree(1, PlaneTree(1), None)
    assert in_class(r, TreeClass.R) and in_class(l, TreeClass.L)
    assert not in_class(r, TreeClass.L) and not in_class(l, TreeClass.R)


def test_in_class_rejects_equal_children_on_wrong_side():
    assert not in_class(PlaneTree(2, None, PlaneTree(2)), TreeClass.L)
    assert not in_class(PlaneTree(2, PlaneTree(2), None), TreeClass.R)
    assert not in_class(PlaneTree(2, PlaneTree(3), None), TreeClass.R)  # not decreasing


def test_roundtrip_and_class_membership(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            for cls in TreeClass:
                t = word_to_tree(w, cls)
                assert in_order(t) == w
                assert in_class(t, cls)


def test_postorder_is_the_sorting_pass():
    assert sort_via_trees((2, 2, 1), SortVariant.FAST) == (1, 2, 2)
    assert sort_via_trees((4, 1, 6, 2), SortVariant.FAST) == (1, 4, 2, 6)
    assert sort_via_trees((), SortVariant.SLOW) == ()
    assert postorder(word_to_tree((2, 2, 1), TreeClass.L)) == sort_slow((2, 2, 1)) == (2, 1, 2)


def test_tree_correspondence_exhaustive(normalized):
    for m in range(0, 6):
        for w in normalized(m):
            assert sort_via_trees(w, SortVariant.FAST) == sort_fast(w)
            assert sort_via_trees(w, SortVariant.SLOW) == sort_slow(w)


def test_tree_class_for():
    assert tree_class_for(SortVariant.FAST) is TreeClass.R
    assert tree_class_for(SortVariant.SLOW) is TreeClass.L


def test_tree_to_text_matches_the_recursive_format(normalized):
    def text(t):
        return "." if t is None else f"({t.label} {text(t.left)} {text(t.right)})"

    assert tree_to_text(None) == "."
    for w in normalized(4):
        for cls in TreeClass:
            t = word_to_tree(w, cls)
            assert tree_to_text(t) == text(t)
