import ast
import doctest
import json
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import stacksort
from stacksort import (catalan, counting, experiments, hooks, parse_word, sort_via_stack,
                       sorting, words)
from stacksort.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sort_basic(capsys):
    code, out, _ = run(capsys, "sort", "2221", "--map", "fast")
    assert code == 0 and out.strip() == "1222"


def test_sort_trace_chain(capsys):
    code, out, _ = run(capsys, "sort", "3662451", "--map", "slow", "--steps", "3", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("3662451")
    assert lines[1].endswith("3624156")
    assert lines[-1].endswith("1234566")
    assert len(lines) == 4


def test_sort_stops_at_the_identity(capsys, monkeypatch):
    # the identity is a fixed point of both operators, so no step past it is run
    walked = []

    def counted(w, variant):
        walked.append(w)
        assert len(walked) <= 4, "sorted past the identity"
        return sort_via_stack(w, variant)

    monkeypatch.setattr(sorting, "sort_via_stack", counted)
    code, out, _ = run(capsys, "sort", "3662451", "--map", "fast", "--steps", str(10**12))
    assert code == 0 and out == "1234566\n" and len(walked) == 4
    walked.clear()
    code, out, _ = run(capsys, "--format", "json", "sort", "3662451", "--map", "slow",
                       "--steps", "6")
    chain = json.loads(out)["chain"]  # the chain ends at the identity, whatever --steps asks
    assert code == 0 and chain == ["3662451", "3624156", "3214566", "1234566"]
    walked.clear()
    code, out, _ = run(capsys, "--format", "json", "sort", "21", "--map", "fast",
                       "--steps", str(10**12))
    assert code == 0 and json.loads(out)["chain"] == ["21", "12"] and len(walked) == 1
    code, out, _ = run(capsys, "sort", "1123", "--map", "slow", "--steps", "2", "--trace")
    assert code == 0 and out == "1123\n"


def test_sort_spaced_word_with_large_letters(capsys):
    word = "3 5 7 10 10 2 4 6 8 9 1"
    code, out, _ = run(capsys, "sort", word, "--map", "slow", "--steps", "5")
    assert code == 0 and out.strip() == "1 2 3 4 5 6 7 8 9 10 10"


def test_one_pass_over_a_long_word_is_not_refused(capsys):
    # only a walk of more than one pass is bounded by the word's length
    word = " ".join(str(k) for k in [*range(2, words.MAX_WALK_LEN + 2), 1])
    code, out, _ = run(capsys, "sort", word, "--map", "slow", "--trace")
    assert code == 0 and out.split("\n")[1].startswith("  =slow=> 2 3 4 ")


def test_sort_negative_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sort", "21", "--map", "fast", "--steps", "-3"])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err


def test_negative_limits_are_usage_errors(capsys):
    for flag in ("--limit", "--space-limit"):
        with pytest.raises(SystemExit) as exc:
            main([flag, "-5", "vhc", "212"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 0, got -5" in capsys.readouterr().err
    # zero stays a valid bound: it refuses every nonempty word, not the option
    code, _, err = run(capsys, "--limit", "0", "vhc", "212")
    assert code == 2 and "word length 3 exceeds limit 0" in err
    code, out, _ = run(capsys, "--limit", "0", "vhc", "")
    assert code == 0 and out.startswith("1 configuration(s)")


def test_parallel_clamped_to_cpu_count(monkeypatch, capsys, fake_pools):
    # the census asks a fake context for its pool: no worker process starts
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    code, out, _ = run(capsys, "--parallel", "100000", "gap-census", "--len", "4", "--gap", "0")
    assert code == 0 and out.strip() == "61"
    assert fake_pools == [2]
    with pytest.raises(SystemExit) as exc:
        main(["--parallel", "0", "distance", "21"])
    assert exc.value.code == 2


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "3662451")
    assert code == 0 and out.strip() == "fast=4 slow=3 gap=1"


def test_distance_of_a_word_with_a_huge_letter(capsys):
    # the bound is read off the distinct letters, not a content entry per value
    code, out, _ = run(capsys, "distance", "2 1 1000000000")
    assert code == 0 and out.strip() == "fast=1 slow=1 gap=0"


def test_distance_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "distance", "2221")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"word": "2221", "fast": 1, "slow": 3, "gap": -2}


def test_preimages_methods_agree(capsys):
    counts = {}
    for method in ("dp", "vhc", "brute", "trees"):
        code, out, _ = run(capsys, "preimages", "3211456", "--map", "fast", "--method", method)
        assert code == 0
        counts[method] = int(out.split()[0])
    assert counts == {"dp": 7, "vhc": 7, "brute": 7, "trees": 7}


def test_preimages_dp_default_has_its_own_length_cap(capsys):
    word = " ".join(str(k) for k in range(1, 21))
    code, out, _ = run(capsys, "preimages", word, "--map", "slow")
    assert code == 0 and int(out) == catalan(20)
    # --limit bounds configuration enumeration and listing only
    code, _, err = run(capsys, "preimages", word, "--map", "slow", "--method", "vhc")
    assert code == 2 and "exceeds" in err
    code, _, err = run(capsys, "preimages", word, "--map", "slow", "--list")
    assert code == 2 and "exceeds" in err


def test_preimages_list_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "preimages", "212", "--map", "slow",
        "--method", "brute", "--list",
    )
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 1
    assert [parse_word(t) for t in payload["preimages"]] == [(2, 2, 1)]


def test_vhc_listing(capsys):
    code, out, _ = run(capsys, "--format", "json", "vhc", "3211456", "--filter", "R")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 4
    assert sorted(c["catalan"] for c in payload["configs"]) == [1, 2, 2, 2]


def test_vhc_show_coloring(capsys, monkeypatch):
    code, out, _ = run(capsys, "--format", "json", "vhc", "212", "--show-coloring")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 1
    assert payload["configs"] == [{
        "hooks": [{"sw": [1, 2], "ne": [3, 2]}, {"sw": [2, 1], "ne": [3, 2]}],
        "q": [1, 1, 1], "catalan": 1, "colors": [0, 1, 2], "classes": [[1], [2], [3]],
    }]
    # each configuration is validated once, for the color classes all its fields come from
    checked, is_valid_config = [], hooks.is_valid_config

    def counted(w, config, which=hooks.VhcFilter.ALL):
        checked.append(config)
        return is_valid_config(w, config, which)

    monkeypatch.setattr(hooks, "is_valid_config", counted)
    code, out, _ = run(capsys, "--format", "json", "vhc", "3211456", "--show-coloring")
    configs = json.loads(out)["configs"]
    assert code == 0 and len(configs) == len(checked) == 30
    monkeypatch.undo()
    assert [c["colors"] for c in configs] == [
        list(hooks.induced_coloring((3, 2, 1, 1, 4, 5, 6), config)) for config in checked]


def test_count_sortable(capsys):
    code, out, _ = run(capsys, "count-sortable", "--map", "fast", "2", "2")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "count-sortable", "--map", "slow", "2", "2", "2")
    assert code == 0 and out.strip() == "12"


def test_count_sortable_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "count-sortable", "--map", "fast", "2", "2")
    lines = out.strip().splitlines()
    assert lines[0] == "content,fast_sortable,slow_sortable"
    assert lines[1] == '"2 2",6,3'


@pytest.mark.parametrize("argv", [["gap-census", "--len", "5", "--gap", "0"],
                                  ["distance", "21"], ["sort", "21", "--map", "fast"]])
def test_csv_is_refused_outside_count_sortable(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "csv", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "count-sortable" in captured.err


def test_count_sortable_runs_only_the_recurrence_it_prints(monkeypatch, capsys):
    def refuse(c):
        raise AssertionError("this recurrence is not printed")

    monkeypatch.setattr(counting, "count_fast_sortable", refuse)
    code, out, _ = run(capsys, "count-sortable", "--map", "slow", "2", "2", "2")
    assert code == 0 and out.strip() == "12"
    code, out, _ = run(capsys, "--format", "json", "count-sortable", "--map", "slow", "2", "2")
    assert code == 0 and json.loads(out)["count"] == "3"
    monkeypatch.undo()
    monkeypatch.setattr(counting, "count_slow_sortable", refuse)
    code, out, _ = run(capsys, "count-sortable", "--map", "fast", "2", "2")
    assert code == 0 and out.strip() == "6"


def test_uniform(capsys):
    code, out, _ = run(capsys, "uniform", "--ell", "2", "--n", "2", "--check")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "3"
    assert "match=True" in lines[1]


def test_counts_print_past_the_int_digit_limit(capsys):
    # Catalan(8000) has 4,811 digits, past the 4,300 that Python converts
    # between int and str by default; main lifts that limit for its own call
    # only.  `Decimal` writes the expected digits without that conversion.
    expected = str(Decimal(counting.fuss_catalan(1, 8000)))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, _ = run(capsys, "uniform", "--ell", "1", "--n", "8000")
    assert code == 0 and out == expected + "\n"
    code, out, _ = run(capsys, "--format", "json", "uniform", "--ell", "1", "--n", "8000")
    assert code == 0 and json.loads(out)["count"] == expected
    assert len(expected) == 4811 and limit() == before


def test_gentree_named_and_inline(capsys):
    code, out, _ = run(capsys, "gentree", "--rule", "fibonacci", "--depth", "5")
    assert code == 0 and out.strip() == "1 2 3 5 8"
    code, out, _ = run(
        capsys, "gentree", "--rule", "catalan-power", "--ell", "2", "--depth", "4"
    )
    assert code == 0 and out.strip() == "1 3 12 55"
    code, out, _ = run(
        capsys, "gentree", "--rule", "1:2;2:1,2", "--axiom", "2", "--depth", "5"
    )
    assert code == 0 and out.strip() == "1 2 3 5 8"
    # a given axiom replaces a named rule's own, 0 included
    code, out, _ = run(capsys, "gentree", "--rule", "fibonacci", "--axiom", "1", "--depth", "5")
    assert code == 0 and out.strip() == "1 1 2 3 5"
    code, out, _ = run(
        capsys, "gentree", "--rule", "catalan-power", "--ell", "1", "--axiom", "0", "--depth", "4"
    )
    assert code == 0 and out.strip() == "1 0 0 0"


def test_gentree_is_bounded(capsys):
    # fibonacci levels grow in digits with the depth, catalan-power levels
    # also in labels; both are refused before the work runs away
    for argv, reason in [(["--rule", "fibonacci", "--depth", "100000"], "exceeds limit"),
                         (["--rule", "catalan-power", "--depth", "100000"], "exceeds limit"),
                         (["--rule", "catalan-power", "--ell", "3", "--depth", "5000"], "steps")]:
        code, out, err = run(capsys, "gentree", *argv)
        assert code == 2 and out == "" and reason in err and "Traceback" not in err, argv
    code, out, _ = run(capsys, "gentree", "--rule", "fibonacci", "--depth", "5000")
    assert code == 0 and len(out.split()) == 5000


def test_exceptional_scan(capsys):
    code, out, _ = run(capsys, "exceptional", "--max-len", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all("exceptional=0" in line for line in lines)


def test_gap_census(capsys):
    code, out, _ = run(capsys, "gap-census", "--len", "7", "--gap", "1")
    assert code == 0 and out.strip() == "4"


def test_conjectures(capsys):
    code, out, _ = run(capsys, "conjectures", "--max-len", "6")
    assert code == 0
    assert "no counterexample" in out
    assert "ratios nondecreasing: True" in out


def test_fertility_demo(capsys):
    code, out, _ = run(capsys, "fertility-demo", "--m", "1")
    assert code == 0
    assert "word 12 expected 2" in out
    assert "word 112 expected 3" in out


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "sort", "not-a-word", "--map", "fast")
    assert code == 1 and "error" in err


def test_size_limit_exit_code(capsys):
    code, _, err = run(capsys, "vhc", "1 2 3 4 5 6 7 8 9 10 11 12 13")
    assert code == 2 and "exceeds" in err


TOO_LONG_FOR_THE_DP = " ".join(str(k) for k in range(1, words.MAX_DP_LEN + 2))
TOO_LONG_TO_WALK = " ".join(str(k) for k in [*range(2, words.MAX_WALK_LEN + 2), 1])


@pytest.mark.parametrize("argv, code, reason", [
    (["gentree", "--rule", "1:x", "--axiom", "1", "--depth", "3"], 1, "cannot parse rule"),
    (["gentree", "--rule", "1:2", "--depth", "3"], 1, "needs --axiom"),
    (["gentree", "--rule", "catalan-power", "--ell", "0", "--depth", "3"], 1, "ell must be"),
    (["distance", "1,a"], 1, "cannot parse word"),
    (["fertility-demo", "--m", "0"], 1, "m must be"),
    (["uniform", "--ell", "3", "--n", "5", "--check"], 2, "exceeds limit 2000000"),
    (["uniform", "--ell", "1", "--n", "10000000"], 2, "exceeds limit"),
    (["count-sortable", "--map", "fast", "10000000", "1"], 2, "exceeds limit"),
    (["count-sortable", "--map", "slow", "10000000", "1"], 2, "exceeds limit"),
    (["preimages", TOO_LONG_FOR_THE_DP, "--map", "slow"], 2, "exceeds limit"),
    (["distance", TOO_LONG_TO_WALK], 2, "exceeds limit"),
    (["sort", TOO_LONG_TO_WALK, "--map", "slow", "--steps", "2"], 2, "exceeds limit"),
    (["sort", TOO_LONG_TO_WALK, "--map", "fast", "--steps", "100000", "--trace"], 2, "exceeds limit"),
], ids=lambda v: " ".join(v)[:40] if isinstance(v, list) else None)
def test_refused_input_prints_one_error_line(capsys, argv, code, reason):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith("error:") and reason in err and err.count("\n") == 1


def test_exceptional_list_marks_a_truncated_witness_list(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "WITNESS_CAP", 3)
    code, out, _ = run(capsys, "exceptional", "--max-len", "7", "--list")
    assert code == 0
    assert out.splitlines()[-5:] == ["m=7 normalized=47293 exceptional=4 ratio=0.000085",
                                     "  3662451", "  3664251", "  6362451", "  ... (truncated)"]


@pytest.mark.parametrize("command", ["exceptional", "conjectures"])
def test_scan_past_length_limit_is_refused_before_any_census(monkeypatch, capsys, command):
    censuses = []
    monkeypatch.setattr(experiments, "distance_census", lambda m, parallelism=1: censuses.append(m))
    code, out, err = run(capsys, command, "--max-len", str(experiments.MAX_SCAN_LEN + 1))
    assert code == 2 and err.startswith("error:") and "exceeds limit" in err
    assert out == "" and censuses == []


@pytest.mark.parametrize("argv", [["gap-census", "--len", "-3", "--gap", "1"],
                                  ["exceptional", "--max-len", "-2"],
                                  ["conjectures", "--max-len", "-1"]])
def test_negative_scan_length_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "nonnegative" in err


# The eight length-10 words with (fast, slow) distances (5, 3) that break
# fast <= 2*slow - 2; the length-10 census itself is not run here.
DOUBLE_SLOW_VIOLATORS = ["4883772561", "4883775261", "4887372561", "4887375261",
                         "8483772561", "8483775261", "8487372561", "8487375261"]


def test_conjectures_names_the_failed_statement(monkeypatch, capsys):
    report = experiments.scan_conjectures(7)
    report["exceptional_checked"] = 124751
    report["double_slow_bound"].update(counterexample=DOUBLE_SLOW_VIOLATORS[0],
                                       violations=len(DOUBLE_SLOW_VIOLATORS))
    monkeypatch.setattr(experiments, "scan_conjectures", lambda m, parallelism=1: report)
    code, out, _ = run(capsys, "conjectures", "--max-len", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gap_length_bound: no counterexample (checked 124751 exceptional words)"
    assert lines[1] == ('double_slow_bound: 8 violation(s) of "fast <= 2 * slow - 2 for words '
                        'with fast > slow", first 4883772561 (checked 124751 exceptional words)')


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "memo.json"
    code, out1, _ = run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "3", "2", "4")
    assert code == 0 and cache.exists()
    code, out2, _ = run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "3", "2", "4")
    assert code == 0 and out1 == out2


@pytest.mark.parametrize("text", ['{"fast": {"2,2": ', "[1, 2]", '{"slow": {"2,2": "x"}}',
                                  '{"fast": []}', '{"fast": {"2,-1": "2"}}',
                                  '{"slow": {"2,2": "-3"}}', '{"fast": {"1,10000000": "2"}}'])
def test_corrupt_cache_is_refused(tmp_path, capsys, text):
    cache = tmp_path / "memo.json"
    cache.write_text(text, encoding="utf-8")
    before = dict(counting._slow_memo)
    code, out, err = run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "2", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert counting._slow_memo == before


def test_poisoned_cache_is_refused(tmp_path, capsys):
    # well-formed, but 999 is not the count (12): a cache file cannot change a result
    cache = tmp_path / "memo.json"
    cache.write_text('{"slow": {"2,2,2": "999"}}', encoding="utf-8")
    before = dict(counting._slow_memo)
    code, out, err = run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "2", "2", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert counting._slow_memo == before


def test_unwritable_cache_exits_2(tmp_path, capsys):
    cache = tmp_path / "missing" / "memo.json"
    code, out, err = run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "2", "2")
    assert code == 2 and out.strip() == "3"
    assert err.startswith(f"error: cannot write cache file {cache}") and "Traceback" not in err


def test_failed_cache_write_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "memo.json"
    assert run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "2", "2")[0] == 0
    saved = cache.read_text(encoding="utf-8")

    def fail(data, fh):
        fh.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", fail)
    code, out, err = run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "3", "2")
    assert code == 2 and out.strip() == str(counting.count_slow_sortable((3, 2)))
    assert "disk full" in err
    assert cache.read_text(encoding="utf-8") == saved
    assert [p.name for p in tmp_path.iterdir()] == ["memo.json"]


def test_cache_is_set_only_by_the_option(tmp_path, capsys, monkeypatch):
    # no environment variable sets the cache file; only --cache does
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("STACKSORT_CACHE", str(tmp_path / "memo.json"))
    assert run(capsys, "count-sortable", "--map", "slow", "2", "2")[0] == 0
    assert run(capsys, "sort", "2221", "--map", "fast")[0] == 0
    assert list(tmp_path.iterdir()) == []


def readme_block(section: str, fence: str) -> str:
    """The first code block of one README section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(section, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def readme_tour() -> list[str]:
    """The `stacksort ...` lines of the README's CLI code block."""
    block = readme_block("## CLI", "```sh")
    return [line for line in block.splitlines() if line.startswith("stacksort ")]


def test_readme_tour_has_commands():
    assert len(readme_tour()) >= 10


@pytest.mark.parametrize("line", readme_tour())
def test_readme_tour_command_succeeds(line, capsys):
    code, out, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0, err
    assert out


@pytest.mark.parametrize("line", readme_tour())
def test_readme_tour_command_prints_json(line, capsys):
    code, out, err = run(capsys, "--format", "json", *shlex.split(line)[1:])
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cli_tour_prints_the_benchmark_goldens(monkeypatch, tmp_path, capsys):
    # the benchmark checks each tour command's stdout against its golden, byte
    # for byte; the cache command runs cold, then warm, as in fresh processes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = pytest.importorskip("workloads", reason="perfbench has no workloads module")
    tour = workloads.load_reference("cli-tour")
    cache_argv = workloads.cli_argv(tour["cache_command"], str(tmp_path / "memo.json"))
    commands = [(c["args"], c["golden"]) for c in tour["commands"]]
    commands += [(cache_argv, tour["cache_golden"])] * 2
    for argv, golden in commands:
        counting.clear_memo()
        assert run(capsys, *argv)[:2] == (0, golden), argv
    assert (tmp_path / "memo.json").exists()


def test_readme_python_tour_runs_as_doctest():
    block = readme_block("## Library quick tour", "```python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick tour", "README.md", 0)
    assert len(test.examples) >= 7
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)


SRC = Path(__file__).resolve().parents[1] / "src"


def modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter with the checkout's src/ on its path loads
    while running `code`, beyond those it loads to run nothing."""
    probe = code + "\nimport sys\nprint()\nprint(' '.join(sys.modules))"

    def loaded(source: str) -> set[str]:
        proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    return loaded(probe) - loaded("import sys\nprint(' '.join(sys.modules))")


def test_library_has_no_assert_statements():
    # `python -O` strips asserts; the library's invariants raise InvariantError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "stacksort").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_import_loads_no_submodule():
    assert {m for m in modules_loaded_by("import stacksort") if m.startswith("stacksort.")} == set()


# No command loads `dataclasses` or the `inspect` it imports: records are NamedTuples.
RECORD_MODULES = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, unwanted", [
    (["distance", "3662451"], {"stacksort.hooks", "stacksort.experiments", "stacksort.counting",
                               "multiprocessing", "fractions", *RECORD_MODULES}),
    (["exceptional", "--max-len", "3"], {"multiprocessing", "stacksort.hooks", *RECORD_MODULES}),
    (["preimages", "3211456", "--map", "fast", "--method", "vhc", "--list"],
     {"stacksort.experiments", "stacksort.counting", *RECORD_MODULES}),
    (["count-sortable", "--map", "slow", "2", "2", "2"],
     {"stacksort.hooks", "stacksort.experiments", "json", *RECORD_MODULES}),
])
def test_command_loads_only_what_it_runs(argv, unwanted):
    loaded = modules_loaded_by(f"from stacksort import cli\nassert cli.main({argv!r}) == 0")
    assert "stacksort.cli" in loaded
    assert loaded & unwanted == set()


PUBLIC_API = {
    "counting": ["FIBONACCI_TREE", "GenTreeSpec", "brute_count_avoiders", "count_fast_sortable",
                 "count_slow_sortable", "fuss_catalan", "generating_tree_level_counts",
                 "uniform_avoider_tree"],
    "experiments": ["CensusResult", "distance_census", "fertility_demo", "find_exceptional",
                    "gap_census", "image_pair_counts", "scan_conjectures"],
    "hooks": ["Hook", "HookConfig", "VhcFilter", "brute_preimages", "build_preimage_trees",
              "catalan", "catalan_product", "color_classes", "count_preimages",
              "count_preimages_vhc", "descent_tops", "enumerate_vhc", "in_order_preimages",
              "induced_coloring", "induced_composition", "is_valid_config"],
    "sorting": ["SortVariant", "collapse_letters", "distance", "distance_bound",
                "exceptional_family", "fertility_witness", "sort_fast", "sort_permutation",
                "sort_slow", "sort_via_stack", "standardize_ascending", "standardize_descending",
                "worst_case_word"],
    "trees": ["PlaneTree", "in_class", "in_order", "postorder", "sort_via_trees",
              "word_to_tree"],
    "words": ["ContentVector", "DomainError", "InvariantError", "Pattern", "SizeLimitError",
              "Word", "contains_pattern", "content", "enumerate_normalized", "enumerate_words",
              "format_word", "identity", "is_normalized", "normalized_count", "parse_word",
              "positive_compositions", "word_space_size"],
}


def test_public_api_resolves_to_the_defining_modules(monkeypatch):
    names = sorted([*PUBLIC_API, *(n for ns in PUBLIC_API.values() for n in ns)])
    assert len(names) == 73 and stacksort.__all__ == names
    assert set(names) <= set(dir(stacksort)) and stacksort.__version__ == "0.1.0"
    star: dict = {}
    exec("from stacksort import *", star)
    for module_name, module_names in PUBLIC_API.items():
        module = sys.modules[f"stacksort.{module_name}"]
        assert getattr(stacksort, module_name) is module is star[module_name]
        for name in module_names:
            assert getattr(stacksort, name) is getattr(module, name) is star[name]
    # the package reads the defining module on every access, so it never goes stale
    monkeypatch.setattr(stacksort.hooks, "catalan", len)
    assert stacksort.catalan is len
    with pytest.raises(AttributeError):
        stacksort.no_such_name
