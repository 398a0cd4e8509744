import json

import pytest

from stacksort import catalan, cli, counting, parse_word
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


def test_sort_spaced_word_with_large_letters(capsys):
    word = "3 5 7 10 10 2 4 6 8 9 1"
    code, out, _ = run(capsys, "sort", word, "--map", "slow", "--steps", "5")
    assert code == 0 and out.strip() == "1 2 3 4 5 6 7 8 9 10 10"


def test_sort_negative_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sort", "21", "--map", "fast", "--steps", "-3"])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err


def test_parallel_clamped_to_cpu_count(monkeypatch):
    # parsing only: no worker pool is started
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli.parse_args(["--parallel", "100000", "distance", "21"]).parallel == 2
    assert cli.parse_args(["--parallel", "1", "distance", "21"]).parallel == 1
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--parallel", "0", "distance", "21"])
    assert exc.value.code == 2


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "3662451")
    assert code == 0 and out.strip() == "fast=4 slow=3 gap=1"


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


def test_preimages_dp_default_has_no_length_cap(capsys):
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


def test_vhc_show_coloring(capsys):
    code, out, _ = run(capsys, "--format", "json", "vhc", "212", "--show-coloring")
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["configs"][0]["colors"] == [0, 1, 2]


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


def test_uniform(capsys):
    code, out, _ = run(capsys, "uniform", "--ell", "2", "--n", "2", "--check")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "3"
    assert "match=True" in lines[1]


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
                                  '{"fast": []}'])
def test_corrupt_cache_is_refused(tmp_path, capsys, text):
    cache = tmp_path / "memo.json"
    cache.write_text(text, encoding="utf-8")
    before = dict(counting._slow_memo)
    code, out, err = run(capsys, "--cache", str(cache), "count-sortable", "--map", "slow", "2", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert counting._slow_memo == before
