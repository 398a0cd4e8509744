"""Weakly decreasing binary plane trees and the word bijections they carry.

A tree is either empty (None) or a labeled root with ordered left/right
subtrees, every child label at most its parent's.  Two subfamilies matter:
class R, the fast operator's, forbids an equal left child (equal labels hang
right); class L, the slow operator's, forbids a right child from equaling its
parent's label (equal labels hang left).  Functions here name the class by
its operator.  The in-order reading is a bijection from each class onto all
words; its inverses differ only in which occurrence of the maximum letter
becomes the root (first for class R, last for class L).  Reading the same
trees in postorder performs one pass of that operator.
"""

from __future__ import annotations

from typing import NamedTuple

from .sorting import SortVariant
from .words import Word


class PlaneTree(NamedTuple):
    """Immutable binary plane tree node; None stands for the empty tree."""

    label: int
    left: PlaneTree | None = None
    right: PlaneTree | None = None


def in_order(t: PlaneTree | None) -> Word:
    """Left subtree, root, right subtree.

    Keeps the nodes whose left subtree is being read on an explicit stack, so
    deep trees do not hit the recursion limit.
    """
    out: list[int] = []
    pending: list[PlaneTree] = []
    node = t
    while True:
        while node is not None:
            pending.append(node)
            node = node.left
        if not pending:
            return tuple(out)
        node = pending.pop()
        out.append(node.label)
        node = node.right


def postorder(t: PlaneTree | None) -> Word:
    """Subtrees left to right, then the root.

    Walks an explicit stack of nodes and pending labels, so deep trees do not
    hit the recursion limit.
    """
    out: list[int] = []
    todo: list[PlaneTree | int | None] = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, int):
            out.append(node)
        elif node is not None:
            todo += [node.label, node.right, node.left]
    return tuple(out)


def word_to_tree(w: Word, variant: SortVariant) -> PlaneTree | None:
    """The unique tree in the operator's class whose in-order reading is w.

    Splits w = A n B at an occurrence of the largest letter n: the first
    occurrence for class R (so A is n-free), the last for class L (so B is
    n-free); the root is that occurrence and the sides recurse.  The recursion
    runs on an explicit stack: ranges of w still to split, and labels whose
    two subtrees are finished.
    """
    built: list[PlaneTree | None] = []  # finished subtrees, left before right
    todo: list[tuple[int, int] | int] = [(0, len(w))]
    while todo:
        item = todo.pop()
        if isinstance(item, int):
            right = built.pop()
            built.append(PlaneTree(item, built.pop(), right))
            continue
        lo, hi = item
        if lo >= hi:
            built.append(None)
            continue
        segment = w[lo:hi]
        n = max(segment)
        if variant is SortVariant.FAST:
            root = lo + segment.index(n)
        else:
            root = hi - 1 - segment[::-1].index(n)
        todo += [n, (root + 1, hi), (lo, root)]
    return built.pop()


def in_class(t: PlaneTree | None, variant: SortVariant) -> bool:
    """Structural check: weakly decreasing, with equal labels on the allowed side."""
    fast = variant is SortVariant.FAST
    todo = [t]
    while todo:
        node = todo.pop()
        if node is None:
            continue
        for child in (node.left, node.right):
            if child is not None and child.label > node.label:
                return False
        barred = node.left if fast else node.right  # the side equal labels may not take
        if barred is not None and barred.label == node.label:
            return False
        todo += [node.left, node.right]
    return True


def sort_via_trees(w: Word, variant: SortVariant) -> Word:
    """One sorting pass computed as postorder of the in-order-inverse tree."""
    return postorder(word_to_tree(w, variant))

