"""Hook configurations on word plots and exact preimage counting.

Plot the word w as points (i, w_i).  A hook joins a southwest point (i, w_i)
to a weakly higher northeast point (j, w_j) to its right by a vertical then a
horizontal segment.  Its two indices fix it, so a hook is the pair (i, j) and a
configuration (H_1, ..., H_k) is the tuple of its pairs ordered by southwest
index; heights, and whether a hook is horizontal (w_i = w_j) or small
(j = i + 1), are read off w.  A configuration is valid when:

  1. the southwest indices strictly increase;
  2. every descent top (w_d >= w_{d+1}) is the southwest endpoint of a hook;
  3. every northeast endpoint is the northeast endpoint of both a descent
     hook (southwest at a descent) and a small hook (adjacent indices),
     possibly the same hook;
  4. the open index intervals of the hooks are pairwise nested or disjoint.

Each point then looks straight up and is colored by the covering-or-ending
hook whose southwest endpoint is rightmost (sky color 0 if none); a hook
covers a point only when the point lies strictly below its horizontal
segment, and a hook's own endpoints never count as below it.  The color-class
sizes form a composition q, and summing the products of Catalan numbers C_q
over the filtered families (binary configurations with, for the fast
operator, all horizontal hooks small; for the slow operator, no small
horizontal hook sharing its northeast endpoint) counts the preimages of w
exactly.  `build_preimage_trees` upgrades the count to a bijection: it
reconstructs, per configuration, the actual trees whose postorder is w, whose
in-order readings are the preimages themselves.

The production count, `count_preimages`, enumerates no configurations: it is
an O(m^3) interval DP over those same trees (preimages of w correspond one to
one with the trees of the operator's class whose postorder is w), for words
of up to MAX_DP_LEN letters.  The configuration sum stays as
`count_preimages_vhc`, the theorem the acceptance gate checks the DP against;
listing (`in_order_preimages`) still runs through the configurations and
`build_preimage_trees`, which plans each configuration once and then builds
each of its trees in one pass over the positions.

Enumeration is depth-first over the indices: each index i starts no hook or
one hook (i, j).  Its only state is the hooks: `into[j]` lists the southwest
endpoints of the hooks placed into j, which gives j's hook count and whether
j has a descent hook and a small one.  It prunes hooks that pass strictly
below a point, cross a placed hook, break the filter or leave condition 3
unmeetable at j, and branches that broke it at a finished endpoint.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import mul
from typing import Iterator

from .sorting import SortVariant, sort_via_stack
from .trees import PlaneTree, in_order
from .words import (
    MAX_DP_LEN,
    MAX_SPACE,
    MAX_VHC_LEN,  # re-exported: the default listing bound here
    DomainError,
    InvariantError,
    SizeLimitError,
    Word,
    content,
    enumerate_words,
    word_space_size,
)

PlotPoint = tuple[int, int]
Composition = tuple[int, ...]
Hook = tuple[int, int]  # (southwest index, northeast index), 1-based
HookConfig = tuple[Hook, ...]


class VhcFilter(Enum):
    """Which family to enumerate: all valid configurations, the binary ones,
    or the binary families counting fast (R) and slow (L) preimages."""

    ALL = "all"
    BINARY = "binary"
    R = "R"
    L = "L"


def filter_for(variant: SortVariant) -> VhcFilter:
    return VhcFilter.R if variant is SortVariant.FAST else VhcFilter.L


def descent_tops(w: Word) -> tuple[PlotPoint, ...]:
    """Points (d, w_d) with w_d >= w_{d+1}; descents are weak."""
    return tuple((d, w[d - 1]) for d in range(1, len(w)) if w[d - 1] >= w[d])


def catalan(n: int) -> int:
    if n < 0:
        raise DomainError("Catalan numbers need n >= 0")
    return comb(2 * n, n) // (n + 1)


def catalan_product(q: Composition) -> int:
    return prod(map(catalan, q))


# ---------------------------------------------------------------------------
# Enumeration


def _enumerate_pairs(w: Word, which: VhcFilter) -> list[HookConfig]:
    """All configurations, in DFS order."""
    m = len(w)
    descents = {d for d, _ in descent_tops(w)}
    bounded = which is not VhcFilter.ALL
    results: list[HookConfig] = []
    hooks: list[Hook] = []
    into: list[list[int]] = [[] for _ in range(m + 1)]  # j -> sw ends of the hooks into j

    def allowed(i: int, j: int) -> bool:
        hi, hj, sws = w[i - 1], w[j - 1], into[j]
        if hj < hi or max(w[i:j - 1], default=hj) > hj:
            return False  # a hook may not pass strictly below a point at i < a < j
        if any(into[i + 1:j]):
            return False  # condition 4: a placed hook ends strictly inside (i, j)
        horizontal, small = hi == hj, j == i + 1
        if bounded and len(sws) >= 2:
            return False
        if which is VhcFilter.R and horizontal and not small:
            return False
        # Southwest ends are placed in increasing order, so a small hook (j-1, j)
        # comes last into j: it checks that j is free, and no later hook checks it.
        if which is VhcFilter.L and horizontal and small and sws:
            return False
        # Condition 3 must stay satisfiable: a descent hook into j, and (j-1, j).
        if i not in descents and not any(s in descents for s in sws):
            if not any(d in descents and w[d - 1] <= hj for d in range(i + 1, j)):
                return False
        # (j-1, j) is always possible: unless it is this hook, w_{j-1} lies in
        # w[i:j-1], which the first check bounded by hj.
        return True

    def visit(i: int) -> None:
        if i > m:
            results.append(tuple(hooks))
            return
        sws = into[i]
        if sws and not (i - 1 in sws and any(s in descents for s in sws)):
            return  # condition 3 failed at a finished northeast endpoint
        if i not in descents:
            visit(i + 1)
        for j in range(i + 1, m + 1):
            if allowed(i, j):
                hooks.append((i, j))
                into[j].append(i)
                visit(i + 1)
                into[j].pop()
                hooks.pop()

    visit(1)
    del visit  # the closure refers to itself; dropping it frees the state without gc
    return results


def enumerate_vhc(
    w: Word, which: VhcFilter = VhcFilter.ALL, limit: int = MAX_VHC_LEN
) -> Iterator[HookConfig]:
    """Yield every valid hook configuration passing the filter, exactly once.

    Canonical order: lexicographic in the (i, j) pairs.  Nothing streams: the
    depth-first search collects every configuration and sorts them before the
    first is yielded, so memory grows with their number.
    """
    if len(w) > limit:
        raise SizeLimitError(f"word length {len(w)} exceeds limit {limit}")
    yield from sorted(_enumerate_pairs(w, which))


def is_valid_config(w: Word, config: HookConfig, which: VhcFilter = VhcFilter.ALL) -> bool:
    """Re-check conditions 1-4 (and the filter) for an arbitrary tuple of (i, j) pairs."""
    m = len(w)
    if any(not (1 <= i < j <= m) or w[i - 1] > w[j - 1] for i, j in config):
        return False
    if any(a[0] >= b[0] for a, b in zip(config, config[1:])):
        return False
    descents = {d for d, _ in descent_tops(w)}
    if not descents <= {i for i, _ in config}:
        return False
    for i, j in config:
        for i2, j2 in config:
            if i < i2 < j < j2:
                return False
    by_ne: dict[int, list[int]] = {}
    for i, j in config:
        by_ne.setdefault(j, []).append(i)
    for j, sws in by_ne.items():
        if not any(i in descents for i in sws):
            return False
        if not any(j == i + 1 for i in sws):
            return False
    if which is VhcFilter.ALL:
        return True
    if any(len(sws) > 2 for sws in by_ne.values()):
        return False
    if which is VhcFilter.R:  # no horizontal hook that is not small
        return all(j == i + 1 or w[i - 1] != w[j - 1] for i, j in config)
    if which is VhcFilter.L:  # no small horizontal hook sharing its northeast endpoint
        return not any(j == i + 1 and w[i - 1] == w[j - 1] and len(by_ne[j]) > 1
                       for i, j in config)
    return True


# ---------------------------------------------------------------------------
# Colorings and compositions


def _class_positions(w: Word, config: HookConfig) -> list[list[int]]:
    """Positions per color class: index 0 is the sky, then one per hook.

    A hook covers every point strictly between its endpoints (valid hooks
    never pass strictly below a point, so interior points at exactly the
    horizontal's height count as covered too); its own endpoints never lie
    below it, and its northeast endpoint sees it by ending there.
    """
    classes: list[list[int]] = [[] for _ in range(len(config) + 1)]
    for a in range(1, len(w) + 1):
        color = 0
        for r, (i, j) in enumerate(config, start=1):
            if i < a <= j:
                color = r  # hooks are sw-sorted, so later r means rightmost sw
        classes[color].append(a)
    return classes


def induced_coloring(w: Word, config: HookConfig) -> tuple[int, ...]:
    """Color of each point, by position: 0 for the sky, r for hook number r."""
    colors = [0] * len(w)
    for r, positions in enumerate(color_classes(w, config)):
        for a in positions:
            colors[a - 1] = r
    return tuple(colors)


def color_classes(w: Word, config: HookConfig) -> list[list[int]]:
    """Positions in each color class, sky first."""
    if not is_valid_config(w, config):
        raise DomainError(f"not a valid hook configuration of {w}: {config}")
    return _class_positions(w, config)


def induced_composition(w: Word, config: HookConfig) -> Composition:
    """Color-class sizes (q_0, ..., q_k); q_0 counts sky points."""
    return tuple(len(ps) for ps in color_classes(w, config))


# ---------------------------------------------------------------------------
# Counting and reconstructing preimages


def count_preimages(w: Word, variant: SortVariant, limit: int | None = None) -> int:
    """Number of words u with sort(u) = w, by an interval DP over trees.

    Preimages of w correspond one to one with the trees of the operator's
    class whose postorder is w (see `trees`).  C[i][j] counts those trees on
    the slice w[i:j]: the root is w[j-1], the left subtree reads w[i:k] and
    the right subtree w[k:j-1], so C[i][j] = sum_k C[i][k] * C[k][j-1] over
    the k whose nonempty subtree roots (their last letters) are at most the
    root, strictly on the left for the fast operator (class R) and on the
    right for the slow one (class L).  O(m^3) time, so a word longer than
    MAX_DP_LEN, or than `limit` when given, is refused.
    """
    m = len(w)
    cap = MAX_DP_LEN if limit is None else min(limit, MAX_DP_LEN)
    if m > cap:
        raise SizeLimitError(f"word length {m} exceeds limit {cap}")
    if m == 0:
        return 1
    if w[-1] != max(w):
        return 0  # every root carries the largest label of its tree
    fast = variant is SortVariant.FAST
    table = [[0] * (m + 1) for _ in range(m + 1)]  # table[i][j] = C[i][j]
    for i in range(m + 1):
        table[i][i] = 1
    for j in range(1, m + 1):
        root = w[j - 1]
        # left[k] = C[k][j-1] where w[k-1] may root the left subtree w[i:k], else 0
        left = [0] * j
        for k in range(1, j):
            x = w[k - 1]
            if x < root or (x == root and not fast):
                left[k] = table[k][j - 1]
        y = w[j - 2] if j > 1 else root
        right_allowed = y < root or (y == root and fast)
        table[j - 1][j] = 1
        for i in range(j - 1):
            row = table[i]
            if right_allowed:
                # k = i: empty left subtree; k > i: both sides nonempty or empty right
                row[j] = row[j - 1] + sum(map(mul, row[i + 1:j], left[i + 1:j]))
            else:
                row[j] = row[j - 1] * left[j - 1]  # only k = j-1: empty right subtree
    return table[0][m]


def count_preimages_vhc(w: Word, variant: SortVariant, limit: int = MAX_VHC_LEN) -> int:
    """Number of words u with sort(u) = w, via the hook-configuration sum.

    The paper's theorem, exponential in the length: kept as the reference
    that the acceptance gate checks `count_preimages` against.
    """
    total = 0
    for config in enumerate_vhc(w, filter_for(variant), limit):
        q = tuple(len(ps) for ps in _class_positions(w, config))
        total += catalan_product(q)
    return total


def brute_preimages(
    w: Word, variant: SortVariant, space_limit: int = MAX_SPACE
) -> tuple[Word, ...]:
    """All preimages of w by exhausting its content class, in lexicographic order.

    Both operators only compare letters, so the class is walked over w's
    letters relabelled 1..d in order, and its preimages are mapped back.
    """
    letters = sorted(set(w))
    rank = {x: i for i, x in enumerate(letters, start=1)}
    r = tuple(rank[x] for x in w)
    c = content(r)
    if word_space_size(c) > space_limit:
        raise SizeLimitError(f"|W_c| = {word_space_size(c)} exceeds limit {space_limit}")
    preimages = (u for u in enumerate_words(c) if sort_via_stack(u, variant) == r)
    return tuple(tuple(letters[x - 1] for x in u) for u in preimages)


def in_order_preimages(
    w: Word, variant: SortVariant, limit: int = MAX_VHC_LEN
) -> list[Word]:
    """All preimages of w, read off the reconstructed trees (no brute force).

    Distinct configurations, and distinct class trees within one, give
    distinct trees, so the list has no duplicates.
    """
    return [
        in_order(tree)
        for config in enumerate_vhc(w, filter_for(variant), limit)
        for tree in build_preimage_trees(w, config, variant)
    ]


@lru_cache(maxsize=None)
def _shape_parents(n: int) -> tuple[tuple[int, ...], ...]:
    """Parent links of every binary tree shape on n nodes (Catalan(n) rows).

    Nodes are named by their postorder index t; entry t of a shape's row is
    2 * (parent's postorder index) + side (0 left, 1 right), or -1 at the root.
    A shape on n nodes is a left shape on a nodes (indices 0..a-1), a right
    shape shifted to a..n-2, and the root n-1 above both subroots.  A shape's
    root is its last node, so a row is sliced: a left row's last entry points
    at the root's left slot, and a right row is shifted by 2a, its last entry
    to the right slot.  Rows come by left size, then left shape, then right.
    """
    if n == 0:
        return ((),)
    root = 2 * (n - 1)
    rows = []
    for a in range(n):
        lefts = [row[:-1] + (root,) for row in _shape_parents(a)] if a else [()]
        b = n - 1 - a
        shift = (2 * a,) * (b - 1) + (root + 2,)  # the last entry goes -1 -> root + 1
        rights = [tuple(map(int.__add__, row, shift)) for row in _shape_parents(b)]
        for left in lefts:
            for right in rights:
                rows.append(left + right + (-1,))
    return tuple(rows)


def build_preimage_trees(
    w: Word, config: HookConfig, variant: SortVariant
) -> Iterator[PlaneTree | None]:
    """Reconstruct the preimage trees spawned by one hook configuration.

    Nodes are the positions of w, in postorder, so j's right child is j - 1:
    each hook (i, j) hangs i in j's right slot when i = j - 1 (the right slot
    fills first) and in its left slot otherwise.  Every other point p - 1
    hangs where the spawned tree of p's color class hangs p's class
    predecessor, on the same side; a northeast endpoint is alone in its class,
    so no class link targets it.  For the slow operator, an equal-label right
    child swings to the left.  A plan made once says where each position
    hangs (a hook's slot, a class link, or the root) and whether it can swing
    (it needs an earlier equal letter).  Each choice of class shapes is then
    one pass over positions 1..m: a node is made from the children already
    dropped in `hold[2p + side]` and dropped in its parent's slot.  Emitted
    trees have postorder w; their in-order readings, over all configurations
    of the matching family, are exactly the preimages of w, each exactly once.
    """
    which = filter_for(variant)
    if not is_valid_config(w, config, which):
        raise DomainError(f"configuration not in the {which.value} family of {w}")
    m = len(w)
    classes = _class_positions(w, config)
    for positions in classes:  # heights strictly increase in each class (a theorem)
        heights = [w[p - 1] for p in positions]
        if any(a >= b for a, b in zip(heights, heights[1:])):
            raise InvariantError(f"class heights not increasing: {heights}")
    # Position p hangs in a hook's slot or, starting no hook, where the tree of
    # class r hangs node t, the class predecessor of p + 1; the root in hold[0].
    hang: list = [None] * (m - 1) + [0]  # by position - 1
    for i, j in config:
        hang[i - 1] = 2 * j + (i == j - 1)
    for r, positions in enumerate(classes):
        for t, p in enumerate(positions[1:]):
            if hang[p - 2] is None:
                hang[p - 2] = (r, t)
    if None in hang:
        raise InvariantError("a point starting no hook precedes a color class's first point")
    # slot_of[r][code]: the slot of class r's node code // 2 on side code % 2;
    # the class root's code -1 reads the -1 at the end.
    slot_of = [[2 * ps[c >> 1] + (c & 1) for c in range(2 * len(ps))] + [-1] for ps in classes]
    slow, seen, plan = variant is SortVariant.SLOW, set(), []
    for p, (label, link) in enumerate(zip(w, hang), start=1):
        slot, r, t = (link, 0, 0) if isinstance(link, int) else (None, *link)
        plan.append((2 * p, label, slow and label in seen, slot, r, t, slot_of[r]))
        seen.add(label)

    new = tuple.__new__  # a PlaneTree node, without NamedTuple's Python-level __new__
    for rows in product(*(_shape_parents(len(positions)) for positions in classes)):
        hold: list = [None] * (2 * m + 2)
        for p2, label, swing, slot, r, t, slots in plan:
            left, right = hold[p2], hold[p2 + 1]
            if swing and right is not None and right[0] == label:
                if left is not None:
                    raise InvariantError("equal right child should be an only child")
                left, right = right, None
            if slot is None:
                slot = slots[rows[r][t]]
                if slot <= p2 + 1:  # no parent (code -1), or one placed already
                    raise InvariantError(f"class-{r} tree gives {w[classes[r][t] - 1]} no parent"
                                         if slot < 0 else "attachment target should not be placed yet")
            if hold[slot] is not None:
                raise InvariantError(f"{('left', 'right')[slot & 1]} slot already taken")
            hold[slot] = new(PlaneTree, (label, left, right))
        yield hold[0]
