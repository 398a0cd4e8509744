"""Quantified property checks shared by the property suite and the acceptance gate.

Each checker takes one word and asserts a batch of structural invariants over
everything enumerable from it; callers quantify over exhaustive corpora.
"""

from itertools import combinations

from stacksort import (
    SortVariant,
    VhcFilter,
    color_classes,
    content,
    descent_tops,
    enumerate_vhc,
    induced_composition,
    is_valid_config,
    sort_via_stack,
)


def check_vhc_conditions(w) -> int:
    """Every enumerated configuration satisfies the four conditions, the
    redundant geometric consequences, and the filter definitions."""
    seen = 0
    all_configs = list(enumerate_vhc(w, VhcFilter.ALL))
    tops = {p[0] for p in descent_tops(w)}
    for config in all_configs:
        seen += 1
        assert is_valid_config(w, config), (w, config)
        # condition 1: distinct, increasing southwest indices
        assert all(a < b for (a, _), (b, _) in zip(config, config[1:])), (w, config)
        # condition 2: descent tops are southwest endpoints
        assert tops <= {i for i, _ in config}, (w, config)
        # no hook passes strictly below a point
        for i, j in config:
            assert all(x <= w[j - 1] for x in w[i:j - 1]), (w, config)
        # no perpendicular crossing away from shared endpoints
        for i, j in config:
            for i2, j2 in config:
                if i < i2 < j:
                    assert not (w[i2 - 1] < w[j - 1] < w[j2 - 1]), (w, config)
    # the filtered families are exactly the predicate-defined subsets
    for which in (VhcFilter.BINARY, VhcFilter.R, VhcFilter.L):
        subset = [c for c in all_configs if is_valid_config(w, c, which)]
        assert subset == list(enumerate_vhc(w, which)), (w, which)
    return seen


def check_coloring_properties(w) -> int:
    """Per configuration: classes partition the plot, heights strictly
    increase within a class, and northeast endpoints sit alone in theirs."""
    seen = 0
    for config in enumerate_vhc(w, VhcFilter.ALL):
        seen += 1
        classes = color_classes(w, config)
        assert sorted(p for ps in classes for p in ps) == list(range(1, len(w) + 1))
        q = induced_composition(w, config)
        assert sum(q) == len(w)
        for positions in classes:
            heights = [w[p - 1] for p in positions]
            assert heights == sorted(heights) and len(set(heights)) == len(heights), (
                w, config, positions)
        ne_positions = {j for _, j in config}
        for positions in classes:
            for p in positions:
                if p in ne_positions:
                    assert len(positions) == 1, (w, config, positions)
    return seen


def check_content_preservation(w) -> None:
    for variant in SortVariant:
        assert content(sort_via_stack(w, variant)) == content(w), (w, variant)


def order_type(s):
    """The pairwise <, =, > relations of a sequence, with its length."""
    return len(s), tuple((a > b) - (a < b) for a, b in combinations(s, 2))


def contains_by_definition(w, p):
    """Pattern containment by the definition: some choice of len(p) positions
    of w is ordered exactly as p."""
    return any(order_type(sub) == order_type(p) for sub in combinations(w, len(p)))
