import hashlib
import os
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

from stacksort import (
    DomainError,
    InvariantError,
    SizeLimitError,
    SortVariant,
    catalan,
    cli,
    count_fast_sortable,
    count_preimages,
    count_slow_sortable,
    counting,
    distance,
    distance_census,
    enumerate_normalized,
    enumerate_words,
    experiments,
    fertility_demo,
    find_exceptional,
    format_word,
    gap_census,
    hooks,
    identity,
    image_pair_counts,
    normalized_count,
    parse_word,
    positive_compositions,
    scan_conjectures,
    sort_via_stack,
    verify_exceptional_pattern_claim,
)
from stacksort.experiments import ratio_text, report_json

FAST, SLOW = SortVariant.FAST, SortVariant.SLOW

E7 = {"3662451", "3664251", "6362451", "6364251"}


def test_census_totals_match_counting():
    for m in range(1, 7):
        census = distance_census(m)
        assert census.total == normalized_count(m)
        assert sum(census.gap_histogram.values()) == census.total


def test_no_exceptional_words_up_to_length_six():
    for m in range(1, 7):
        assert distance_census(m).exceptional == []


def test_census_matches_per_word_distances():
    # an independent recount: full `distance` runs on every word, no memo
    for m in range(1, 8):
        histogram: dict[int, int] = {}
        exceptional = []
        total = 0
        for w in enumerate_normalized(m):
            df, ds = distance(w, SortVariant.FAST), distance(w, SortVariant.SLOW)
            total += 1
            histogram[df - ds] = histogram.get(df - ds, 0) + 1
            if df > ds:
                exceptional.append((w, df, ds))
        census = distance_census(m)
        assert census.total == total
        assert list(census.gap_histogram.items()) == sorted(histogram.items())
        assert census.exceptional == exceptional


def test_exceptional_census_length_seven():
    report = find_exceptional(7)
    assert report["exceptional_count"] == 4
    assert set(report["witnesses"]) == E7
    assert report["normalized_words"] == 47293
    assert report["ratio"] == "0.000085"
    assert report["truncated"] is False


def test_exceptional_words_recheck():
    for text in sorted(E7):
        w = parse_word(text)
        df, ds = distance(w, SortVariant.FAST), distance(w, SortVariant.SLOW)
        assert df - ds == 1 and (df, ds) == (4, 3)


def test_parallel_census_matches_serial():
    serial = distance_census(6)
    experiments._census_cache.pop(6, None)
    parallel = distance_census(6, parallelism=2)
    assert parallel.gap_histogram == serial.gap_histogram
    assert parallel.exceptional == serial.exceptional
    assert parallel.total == serial.total


def test_gap_census_length_seven():
    report = gap_census(7, 1)
    assert report["count"] == 4
    assert set(report["witnesses"]) == E7
    assert gap_census(7, 2)["count"] == 0
    assert gap_census(6, 1)["count"] == 0
    histogram = report["gap_histogram"]
    assert sum(histogram.values()) == 47293


def test_scan_conjectures_small():
    report = scan_conjectures(7)
    assert report["gap_length_bound"]["counterexample"] is None
    assert report["double_slow_bound"]["counterexample"] is None
    assert report["exceptional_checked"] == 4
    assert report["ratios_nondecreasing"] is True
    assert report["ratios"][-1]["ratio"] == "0.000085"


def test_reports_are_deterministic():
    a, b = find_exceptional(7), find_exceptional(7)
    assert "elapsed_seconds" in report_json(a)
    del a["elapsed_seconds"], b["elapsed_seconds"]
    assert report_json(a) == report_json(b)


def test_image_pair_counts_match_sorting_every_word():
    # the split formulas against both stack passes on every word of the class
    contents = [c for m in range(8) for c in positive_compositions(m)]
    contents += [(0, 2, 2), (2, 0, 1), (1, 0), (0, 0, 3, 0, 1), (0, 3, 0, 2), (3, 0, 0, 3)]
    for c in contents:
        expected = Counter(
            (sort_via_stack(w, FAST), sort_via_stack(w, SLOW)) for w in enumerate_words(c)
        )
        assert image_pair_counts(c) == expected, c


def test_image_pair_counts_limits_and_trailing_zeros():
    assert image_pair_counts((1, 2, 0, 0)) == image_pair_counts((1, 2))
    assert sum(image_pair_counts((1, 2)).values()) == 3
    assert image_pair_counts(()) == {((), ()): 1}
    with pytest.raises(DomainError):
        image_pair_counts((1, -1, 2))
    with pytest.raises(SizeLimitError):
        image_pair_counts((13,))


def test_image_pair_counts_refuse_a_repeated_pair(monkeypatch):
    # with k >= 2 copies of the largest letter the slow image fixes the split,
    # so a split offered twice must raise rather than double a count
    splits = experiments._splits

    def twice(c):
        for split in splits(c):
            yield split
            yield split

    monkeypatch.setattr(experiments, "_splits", twice)
    with pytest.raises(InvariantError):
        image_pair_counts((1, 2))


def test_image_pair_counts_agree_with_the_preimage_dp():
    # the words behind each image, summed over the pairs, are its preimages
    checked = 0
    for m in range(1, 8):
        for c in positive_compositions(m):
            by_image: dict = {FAST: Counter(), SLOW: Counter()}
            for (f, s), count in image_pair_counts(c).items():
                by_image[FAST][f] += count
                by_image[SLOW][s] += count
            for variant, counts in by_image.items():
                for image, count in counts.items():
                    assert count_preimages(image, variant) == count, (image, variant)
                checked += len(counts)
    assert checked == 9540


def test_image_pair_counts_agree_with_the_recurrences():
    # the words a single pass sorts, read off the pairs, against the paper's
    # recurrences; on 1^n, Catalan numbers and West's two-stack-sortable count
    for m in range(9):
        for c in positive_compositions(m):
            pairs = image_pair_counts(c)
            target = identity(c)
            assert sum(x for (f, _), x in pairs.items() if f == target) == count_fast_sortable(c)
            assert sum(x for (_, s), x in pairs.items() if s == target) == count_slow_sortable(c)
    for n in range(1, 10):
        by_fast = Counter()
        for (f, _), x in image_pair_counts((1,) * n).items():
            by_fast[f] += x
        target = tuple(range(1, n + 1))
        assert by_fast[target] == catalan(n)
        two_pass = sum(x for f, x in by_fast.items() if sort_via_stack(f, FAST) == target)
        assert two_pass == 2 * factorial(3 * n) // (factorial(n + 1) * factorial(2 * n + 1))


def test_words_with_pair_lists_the_words_of_each_pair():
    # every pair of the class, gap <= 0 included, against a sort of every word
    contents = [c for m in range(1, 8) for c in positive_compositions(m)]
    contents += [(0, 2, 2), (2, 0, 1), (0, 0, 3, 0, 1), (0, 3, 0, 2), (3, 0, 0, 3)]
    for c in contents:
        expected: dict = {}
        for w in enumerate_words(c):
            key = (sort_via_stack(w, FAST), sort_via_stack(w, SLOW))
            expected.setdefault(key, []).append(w)
        memo: dict = {}
        listed: dict = {}
        pairs = experiments._pair_counts(c, memo)
        assert pairs.keys() == expected.keys(), c
        for f, s in pairs:
            words = experiments._words_with_pair(c, f, s, memo, listed)
            assert sorted(words) == expected[f, s], (c, f, s)


def test_census_checks_the_number_of_words_it_lists(monkeypatch):
    # the first block content listed loses one word of each pair: the words
    # then fall short of the wanted pairs' count, and the census must raise
    block_words = experiments._block_words
    seen = []

    def lossy(b, listed):
        by_pair = block_words(b, listed)
        if seen:
            return by_pair
        seen.append(b)
        return {pair: words[1:] for pair, words in by_pair.items()}

    monkeypatch.setattr(experiments, "_block_words", lossy)
    monkeypatch.setattr(experiments, "_census_cache", {})
    with pytest.raises(InvariantError):
        distance_census(7)
    assert seen


def test_census_pool_is_clamped(monkeypatch, fake_pools):
    # the pool never outnumbers the CPUs or the content classes (4 at length 3)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
    assert find_exceptional(3, parallelism=64)["normalized_words"] == 13
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    distance_census(4, parallelism=3)
    distance_census(5, parallelism=1)
    distance_census(1, parallelism=8)  # one class: no pool
    assert fake_pools == [4, 2]


def test_fertility_demo_small():
    report = fertility_demo(1)
    by_word = {entry["word"]: entry for entry in report["words"]}
    assert by_word["12"]["expected"] == 2
    assert by_word["112"]["expected"] == 3
    for entry in report["words"]:
        for variant in ("fast", "slow"):
            counts = entry[variant]
            assert counts["vhc"] == counts["trees"] == counts["brute"] == entry["expected"]


def test_fertility_demo_skips_brute_beyond_limit():
    report = fertility_demo(5)
    assert report["parameters"] == {"m": 5, "brute_limit": 4}
    for entry in report["words"]:
        assert entry["fast"]["brute"] is None
        assert entry["fast"]["vhc"] == entry["expected"]


def test_pattern_claim_self_containment():
    report = verify_exceptional_pattern_claim(7)
    assert report["members"] == 4
    assert report["violators"] == 0


def test_ratio_text():
    assert ratio_text(4, 47293) == "0.000085"
    assert ratio_text(172, 545835) == "0.000315"
    assert ratio_text(5001, 7087261) == "0.000706"
    assert ratio_text(1, 2) == "0.500000"
    assert ratio_text(3, 2, places=2) == "1.50"


def test_census_size_limit():
    with pytest.raises(SizeLimitError):
        distance_census(11)
    with pytest.raises(SizeLimitError):
        verify_exceptional_pattern_claim(11)


@pytest.mark.parametrize("scan", [distance_census, find_exceptional, scan_conjectures,
                                  verify_exceptional_pattern_claim,
                                  lambda m: gap_census(m, 1)])
def test_negative_scan_length_is_a_domain_error(scan):
    with pytest.raises(DomainError):
        scan(-1)


def test_length_zero_scan_is_the_empty_word():
    assert find_exceptional(0)["normalized_words"] == 1
    assert gap_census(0, 0)["count"] == 1


LENGTH_TEN_HISTOGRAM = {
    -8: 1, -7: 718, -6: 26954, -5: 310930, -4: 1824228, -3: 6805014, -2: 18172691,
    -1: 35291552, 0: 39690724, 1: 120351, 2: 4400,
}


@pytest.mark.length10
@pytest.mark.skipif(not os.environ.get("STACKSORT_LENGTH10"),
                    reason="set STACKSORT_LENGTH10=1 to run the length-10 census")
def test_length_ten_census():
    # figures first computed by sorting every word, one stack pass per word
    # and operator; here they check the pair-count census beyond brute force
    census = distance_census(10, parallelism=min(2, os.cpu_count() or 1))
    assert census.total == normalized_count(10) == 102_247_563
    assert census.gap_histogram == LENGTH_TEN_HISTOGRAM
    assert len(census.exceptional) == 124_751
    assert sum(1 for _, df, ds in census.exceptional if df > 2 * ds - 2) == 8
    assert verify_exceptional_pattern_claim(10)["violators"] == 1_870
    lines = "".join(f"{format_word(w)} {df} {ds}\n" for w, df, ds in census.exceptional)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "48019293f300ea4b7d93e1f2e0ca2c0170d2e08a8c926cccffb25703492e5448")


def test_traced_workloads_read_every_assigned_layer(monkeypatch, tmp_path):
    # The benchmark's traced run fails when a layer it assigns to a workload
    # reads zero; run each workload's calls once under its tracer to see it here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    run = pytest.importorskip("run", reason="perfbench has no run module")
    tracer = pytest.importorskip("tracer", reason="perfbench has no tracer module")
    if not all(hasattr(run, name) for name in ("ASSIGNED", "layer_metrics", "workloads")):
        pytest.skip("perfbench's run module has no ASSIGNED, layer_metrics or workloads")
    cache_command = run.workloads.cli_argv(
        run.workloads.load_reference("cli-tour")["cache_command"], str(tmp_path / "memo.json"))
    monkeypatch.setattr(experiments, "_census_cache", {})
    traced = tracer.Tracer()
    traced.install()  # fails if a wrapped library name is gone
    try:  # through the module attributes, which the tracer wraps
        experiments.distance_census(7, parallelism=1)  # length 6 has no exceptional words
        hooks.count_preimages((1, 3, 2, 4), FAST)
        hooks.in_order_preimages((2, 1, 3, 4), SLOW)
        counting.brute_count_avoiders((1, 1, 1, 1), [(2, 3, 1)])
        counting.count_fast_sortable((2, 1, 2))
        counting.count_slow_sortable((2, 1, 2))
        counting.clear_memo()  # as in a fresh process
        for argv in (cache_command, cache_command,  # writes the file, then loads it
                     ["distance", "3662451"], ["gap-census", "--len", "7", "--gap", "1"]):
            assert cli.main(argv) == 0
    finally:
        traced.uninstall()
    metrics = run.layer_metrics(traced.summary())
    # the worker sets the cli layers from process walls, and
    # parallel_efficiency from two runs
    unset = {"experiments.parallel_efficiency", "cli.main_s", "cli.process_overhead_s"}
    zero = [name for workload in ("census", "preimages", "avoiders", "cli-tour")
            for name in run.ASSIGNED[workload] if name not in unset and not metrics[name]]
    assert zero == []
