"""Acceptance gate: every shipped claim, re-verified end to end.

Each test prints one PASS/FAIL line.  The corpora are exhaustive (normalized
words up to length 9 for the censuses), so the full module takes about
35 s; run it with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import hashlib
import os
from itertools import permutations
from math import comb

import pytest

from property_checks import (
    census_row,
    check_coloring_properties,
    check_content_preservation,
    check_vhc_conditions,
    contains_by_definition,
    readme_census_rows,
)
from stacksort import (
    SortVariant,
    brute_count_avoiders,
    brute_preimages,
    catalan,
    catalan_product,
    collapse_letters,
    contains_pattern,
    content,
    count_fast_sortable,
    count_preimages,
    count_preimages_vhc,
    count_slow_sortable,
    distance,
    distance_bound,
    distance_census,
    enumerate_vhc,
    enumerate_words,
    exceptional_family,
    fertility_witness,
    format_word,
    fuss_catalan,
    generating_tree_level_counts,
    identity,
    in_order_preimages,
    induced_composition,
    normalized_count,
    parse_word,
    positive_compositions,
    sort_fast,
    sort_permutation,
    sort_slow,
    sort_via_stack,
    sort_via_trees,
    standardize_ascending,
    standardize_descending,
    uniform_avoider_tree,
    worst_case_word,
)
from stacksort.experiments import ratio_text
from stacksort.hooks import VhcFilter

FAST, SLOW = SortVariant.FAST, SortVariant.SLOW
P231, P221 = (2, 3, 1), (2, 2, 1)
WORKERS = min(4, os.cpu_count() or 1)


def criterion(number, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {text}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {text}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def census():
    """The census of each length, computed once for this module: criteria 3
    and 9 and the pins below read the same lengths."""
    return functools.cache(lambda m: distance_census(m, parallelism=WORKERS))


@pytest.fixture(scope="module")
def brute():
    """Preimages by exhaustion, each content class walked once per operator.

    One stack pass per word of W_content(w), grouped by image, so criteria 1,
    2 and 11 share one walk of each class.  The lists come out in
    lexicographic order, as `brute_preimages` gives them; criterion 5 still
    calls `brute_preimages` itself.
    """
    by_class: dict = {}

    def preimages(w, variant):
        key = (content(w), variant)
        by_image = by_class.get(key)
        if by_image is None:
            by_image = by_class[key] = {}
            for u in enumerate_words(key[0]):
                by_image.setdefault(sort_via_stack(u, variant), []).append(u)
        return tuple(by_image.get(w, ()))

    return preimages


@criterion(1, "hook-configuration counts equal brute-force preimage counts, length <= 6")
def test_criterion_1_oracle_equivalence(normalized, brute):
    words = [w for m in range(1, 7) for w in normalized(m)]
    assert len(words) == 5316
    for w in words:
        for variant in (FAST, SLOW):
            assert count_preimages_vhc(w, variant) == len(brute(w, variant)), (w, variant)


@criterion(2, "reconstructed trees reproduce the preimage sets exactly, length <= 6")
def test_criterion_2_bijection_reconstruction(normalized, brute):
    for m in range(1, 7):
        for w in normalized(m):
            for variant in (FAST, SLOW):
                read = in_order_preimages(w, variant)
                assert len(read) == len(set(read)), (w, variant)
                assert set(read) == set(brute(w, variant)), (w, variant)


@criterion(3, "exceptional censuses: lengths 7, 8, 9 and the gap-2 count")
def test_criterion_3_exceptional_census(census):
    for m in range(1, 7):
        assert census(m).exceptional == []
    e7 = {format_word(w) for w, _, _ in census(7).exceptional}
    assert e7 == {"3662451", "3664251", "6362451", "6364251"}
    assert len(census(8).exceptional) == 172
    assert len(census(9).exceptional) == 5001
    assert census(9).gap_histogram.get(2, 0) == 72
    for m in range(1, 9):
        assert census(m).gap_histogram.get(2, 0) == 0
        assert max(census(m).gap_histogram) <= 1
    assert census(9).total == normalized_count(9) == 7087261


# The whole census at lengths 8 and 9, pinned by figures computed before the
# two-block merge of `image_pair_counts`: the gap histogram, and the sha256 of
# the lines "<word> <fast> <slow>\n" of the exceptional words in census order.
CENSUS_PINS = {
    8: ({-6: 1, -5: 137, -4: 2405, -3: 17157, -2: 70205, -1: 187143, 0: 268615, 1: 172},
        "c66c99c3e13329186822413692a644a0375569f000814efbe68f114565f944f0"),
    9: ({-7: 1, -6: 308, -5: 7771, -4: 70173, -3: 343165, -2: 1101014, -1: 2459539,
         0: 3100289, 1: 4929, 2: 72},
        "8234f7e77046b7ceeda7ccb6b2838bf22b0a1fddf4e9bd9357cd6a37c644d48e"),
}


def test_census_lengths_eight_and_nine_are_pinned(census):
    # reads the censuses criterion 3 computed, through the module's fixture
    for m, (histogram, digest) in CENSUS_PINS.items():
        result = census(m)
        assert result.gap_histogram == histogram, m
        lines = "".join(f"{format_word(w)} {df} {ds}\n" for w, df, ds in result.exceptional)
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, m
    # 34 exceptional words of length 9 contain none of the four of length 7
    e7 = [w for w, _, _ in census(7).exceptional]
    avoiders = {format_word(w) for w, _, _ in census(9).exceptional
                if not any(contains_pattern(w, p) for p in e7)}
    assert len(avoiders) == 34
    assert {"773824561", "773825461", "773842561"} <= avoiders


def test_readme_census_table_matches_the_census(census):
    # every count cell at lengths 7-9; length 10 is checked by the opt-in test
    rows = readme_census_rows()
    assert sorted(rows) == [7, 8, 9, 10]
    e7 = [w for w, _, _ in census(7).exceptional]
    for m in (7, 8, 9):
        assert rows[m] == census_row(census(m), e7), m


@criterion(4, "worst-case families meet the distance bounds; bounds hold everywhere, sum <= 8")
def test_criterion_4_eta_rho_bounds():
    for n in range(3, 9):
        eta = exceptional_family(n)
        assert _distance(eta, FAST) == 2 * n - 2
        assert _distance(eta, SLOW) == n
    for total in range(1, 9):
        for c in positive_compositions(total):
            fast_known, slow_known = {identity(c): 0}, {identity(c): 0}
            rho = worst_case_word(c)
            fast_bound = distance_bound(c, FAST)
            slow_bound = distance_bound(c, SLOW)
            assert _distance(rho, FAST, fast_known) == fast_bound
            assert _distance(rho, SLOW, slow_known) == slow_bound
            for w in enumerate_words(c):
                assert _distance(w, FAST, fast_known) <= fast_bound
                assert _distance(w, SLOW, slow_known) <= slow_bound


def _distance(w, variant, known=None):
    """Passes from w to the identity.  `known` maps words of w's content to
    their distances, the identity included; the walk stops at any of them and
    adds its path."""
    if known is None:
        known = {identity(content(w)): 0}
    path = []
    while w not in known:
        path.append(w)
        w = sort_via_stack(w, variant)
    steps = known[w] + len(path)
    for i, u in enumerate(path):
        known[u] = steps - i
    return steps


@criterion(5, "fertility witnesses have 2m and 2m+1 preimages by every method, m <= 4")
def test_criterion_5_fertility_demo():
    for m in range(1, 5):
        for extra_one, expected in ((False, 2 * m), (True, 2 * m + 1)):
            w = fertility_witness(m, extra_one)
            for variant in (FAST, SLOW):
                assert count_preimages(w, variant) == expected, (w, variant)
                assert count_preimages_vhc(w, variant) == expected, (w, variant)
                read = in_order_preimages(w, variant)
                brute = set(brute_preimages(w, variant))
                assert len(read) == len(set(read)) == expected
                assert set(read) == brute and len(brute) == expected
    # structure of the four configurations behind the m=3 count
    w = fertility_witness(3, True)
    configs = list(enumerate_vhc(w, VhcFilter.R))
    assert len(configs) == 4
    weights = sorted(catalan_product(induced_composition(w, c)) for c in configs)
    assert weights == [1, 2, 2, 2]


@criterion(6, "sortable-word recurrences match the pattern-avoidance oracle, sum <= 8")
def test_criterion_6_recurrences():
    for total in range(1, 9):
        for c in positive_compositions(total):
            assert count_fast_sortable(c) == brute_count_avoiders(c, [P231]), c
            assert count_slow_sortable(c) == brute_count_avoiders(c, [P231, P221]), c
    values = range(1, 5)
    for c1 in values:
        assert count_fast_sortable((c1,)) == 1 == count_slow_sortable((c1,))
        for c2 in values:
            assert count_fast_sortable((c1, c2)) == comb(c1 + c2, c1)
            assert count_slow_sortable((c1, c2)) == c1 + 1
            for c3 in values:
                s = c1 + c2 + c3
                table_m = 2**s
                for entry in (c1, c2, c3):
                    table_m -= sum(comb(s, r) for r in range(entry))
                assert count_fast_sortable((c1, c2, c3)) == table_m
                assert count_slow_sortable((c1, c2, c3)) == (c1 + 1) * (c1 + 2 * c2 + 2) // 2
    for total in range(1, 8):
        for c in positive_compositions(total):
            base = count_fast_sortable(c)
            assert all(count_fast_sortable(p) == base for p in set(permutations(c)))
            assert count_slow_sortable(c + (1,)) == count_slow_sortable(c + (3,))
    for total in range(1, 9):
        for c in positive_compositions(total):
            fast_n, slow_n = count_fast_sortable(c), count_slow_sortable(c)
            assert fast_n >= slow_n
            assert (fast_n == slow_n) == all(k == 1 for k in c[1:]), c


@criterion(7, "uniform-content counts match the Fuss-Catalan closed form, ell <= 3, n <= 4")
def test_criterion_7_fuss_catalan():
    for ell in (1, 2, 3):
        levels = generating_tree_level_counts(uniform_avoider_tree(ell), 4)
        for n in (1, 2, 3, 4):
            value = fuss_catalan(ell, n)
            assert count_slow_sortable((ell,) * n) == value, (ell, n)
            assert levels[n - 1] == value, (ell, n)
            assert brute_count_avoiders((ell,) * n, [P231, P221]) == value, (ell, n)
    assert fuss_catalan(2, 4) == 55


@criterion(8, "stack, recursion and tree traversal agree; permutation reductions hold, length <= 7")
def test_criterion_8_operator_coherence(normalized):
    for m in range(1, 8):
        for w in normalized(m):
            c = content(w)
            fast_image = sort_via_stack(w, FAST)
            slow_image = sort_via_stack(w, SLOW)
            assert fast_image == sort_fast(w) == sort_via_trees(w, FAST)
            assert slow_image == sort_slow(w) == sort_via_trees(w, SLOW)
            assert fast_image == collapse_letters(
                c, sort_permutation(standardize_descending(w)))
            p = standardize_ascending(w)
            u = w
            for _ in range(distance_bound(c, SLOW)):
                p = sort_permutation(p)
                u = sort_via_stack(u, SLOW)
                assert u == collapse_letters(c, p)
                assert p == standardize_ascending(u)  # slow is West's map on std_asc(w)


@criterion(9, "conjecture scans find no counterexamples up to length 9; ratios match")
def test_criterion_9_conjecture_scan(census):
    expected_ratios = {7: "0.000085", 8: "0.000315", 9: "0.000706"}
    for m in range(1, 10):
        result = census(m)
        for w, df, ds in result.exceptional:
            assert 2 * (df - ds) <= m - 5, (w, df, ds)
            assert df <= 2 * ds - 2, (w, df, ds)
        if m in expected_ratios:
            ratio = ratio_text(len(result.exceptional), result.total)
            assert ratio == expected_ratios[m], (m, ratio)


@criterion(10, "property suites: configuration conditions, colorings, content preservation")
def test_criterion_10_property_suites(normalized):
    for m in range(0, 7):
        for w in normalized(m):
            check_content_preservation(w)
            if m <= 5:
                check_vhc_conditions(w)
                check_coloring_properties(w)
    # length 6: per-configuration checks without the subset cross-product
    for w in normalized(6):
        check_coloring_properties(w)


@criterion(11, "DP preimage counts equal brute force and the VHC sum, length <= 6; "
               "Catalan and fertility values far beyond the VHC cap")
def test_criterion_11_dp_preimage_counts(normalized, brute):
    words = [w for m in range(1, 7) for w in normalized(m)]
    assert len(words) == 5316
    for w in words:
        for variant in (FAST, SLOW):
            dp = count_preimages(w, variant)
            assert dp == len(brute(w, variant)) == count_preimages_vhc(w, variant), (
                w, variant)
    for m in range(0, 41):
        for variant in (FAST, SLOW):
            assert count_preimages(tuple(range(1, m + 1)), variant) == catalan(m), (m, variant)
    for m in range(1, 31):
        for extra_one, expected in ((False, 2 * m), (True, 2 * m + 1)):
            w = fertility_witness(m, extra_one)
            for variant in (FAST, SLOW):
                assert count_preimages(w, variant) == expected, (w, variant)


@criterion(12, "length-10 findings: 8 words break fast <= 2 slow - 2; "
               "2 exceptional words avoid every exceptional length-7 word")
def test_criterion_12_length_ten_findings():
    double_bound_breakers = ["4883772561", "4883775261", "4887372561", "4887375261",
                             "8483772561", "8483775261", "8487372561", "8487375261"]
    for text in double_bound_breakers:
        w = parse_word(text)
        fast, slow = distance(w, FAST), distance(w, SLOW)
        assert (fast, slow) == (5, 3), (text, fast, slow)
        assert fast > 2 * slow - 2
    e7 = [parse_word(t) for t in ("3662451", "3664251", "6362451", "6364251")]
    for text, expected in (("1884935672", (5, 4)), ("2884935671", (6, 5))):
        w = parse_word(text)
        assert (distance(w, FAST), distance(w, SLOW)) == expected, text
        for p in e7:
            assert not contains_pattern(w, p), (text, p)
            assert not contains_by_definition(w, p), (text, p)
