"""Quantified property checks shared by the property suite and the acceptance gate.

Each checker takes one word and asserts a batch of structural invariants over
everything enumerable from it; callers quantify over exhaustive corpora.  The
README's census table is read here too, for the census tests of both modules.
"""

from itertools import combinations
from pathlib import Path

from stacksort import (
    SortVariant,
    VhcFilter,
    color_classes,
    contains_pattern,
    content,
    descent_tops,
    enumerate_vhc,
    induced_composition,
    is_valid_config,
    sort_via_stack,
)
from stacksort.experiments import ratio_text


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


CENSUS_COLUMNS = ["length", "normalized words", "exceptional", "ratio", "gap 2",
                  "break `fast <= 2*slow - 2`", "contain no length-7 exceptional word",
                  "census time"]


def readme_census_rows():
    """The README's "Census figures" table: its count cells by length, the
    last column (a time) left out."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split("## Census figures", 1)[1].split("\n## ", 1)[0].splitlines()
    table = [[cell.strip() for cell in line.strip("| ").split("|")]
             for line in lines if line.startswith("|")]
    assert table[0] == CENSUS_COLUMNS, table[0]
    return {int(row[0]): row[1:-1] for row in table[2:]}


def census_row(result, e7):
    """A census's count cells as that table prints them; e7 holds the
    exceptional words of length 7."""
    exceptional = result.exceptional
    return [f"{result.total:,}", f"{len(exceptional):,}",
            ratio_text(len(exceptional), result.total),
            f"{result.gap_histogram.get(2, 0):,}",
            f"{sum(1 for _, df, ds in exceptional if df > 2 * ds - 2):,}",
            f"{sum(1 for w, _, _ in exceptional if not any(contains_pattern(w, p) for p in e7)):,}"]
