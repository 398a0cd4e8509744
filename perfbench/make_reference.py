"""Build the expected results in perfbench/data/, cross-checked by independent methods.

    PYTHONPATH=src python3 perfbench/make_reference.py [census|preimages|avoiders|cli-tour ...]

With no argument every reference is rebuilt.  Each value the benchmark
checks is computed here by the library path the benchmark times, and again
by a method that does not share that path; any disagreement aborts before a
file is written.  The preimage pools are drawn from a fixed seed, and a
benchmark run's --seed then picks its words from them (workloads.py).
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from workloads import DATA, PATTERN_SETS, census_digest, listing_digest, recurrence_digest, word_text

from stacksort import (
    CensusResult,
    SortVariant,
    brute_count_avoiders,
    brute_preimages,
    content,
    count_fast_sortable,
    count_preimages,
    count_slow_sortable,
    distance,
    distance_census,
    enumerate_normalized,
    fertility_witness,
    fuss_catalan,
    in_order_preimages,
    normalized_count,
    positive_compositions,
    sort_fast,
    sort_slow,
    sort_via_stack,
    word_space_size,
)
from stacksort.hooks import MAX_SPACE

POOL_SEED = 1809_09158


def write(name: str, data: dict) -> None:
    DATA.mkdir(exist_ok=True)
    path = DATA / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def recount_census(m: int) -> dict:
    """Gap census from `sorting.distance` over `enumerate_normalized`, not the census loop."""
    hist: dict[int, int] = {}
    exceptional = []
    total = 0
    for w in enumerate_normalized(m):
        df, ds = distance(w, SortVariant.FAST), distance(w, SortVariant.SLOW)
        hist[df - ds] = hist.get(df - ds, 0) + 1
        if df > ds:
            exceptional.append((w, df, ds))
        total += 1
    return {"total": total, "hist": dict(sorted(hist.items())), "exceptional": exceptional}


def make_census() -> None:
    m = workloads.WORKLOADS["census"]["params"]["length"]
    digest = census_digest(distance_census(m))
    again = recount_census(m)
    # The paper's figures for length 8.
    assert digest["total"] == again["total"] == normalized_count(m) == 545_835
    assert digest["exceptional_count"] == len(again["exceptional"]) == 172
    assert digest["gap_histogram"] == {str(g): n for g, n in again["hist"].items()}
    assert digest == census_digest(CensusResult(m, again["total"], again["hist"], again["exceptional"]))
    write("census", {"length": m, **digest})


def check_preimages(w: tuple, v: SortVariant) -> tuple[int, dict]:
    """Count and listing of w's preimages, checked against each other and brute force."""
    n = count_preimages(w, v, limit=len(w))
    listing = in_order_preimages(w, v, limit=max(len(w), 12))
    assert len(listing) == len(set(listing)) == n, (w, v)
    assert all(sort_via_stack(u, v) == w for u in listing), (w, v)
    if word_space_size(content(w)) <= MAX_SPACE:
        assert sorted(listing) == list(brute_preimages(w, v)), (w, v)
    return n, listing_digest(listing)


def pool_words(rng: random.Random, length: int, size: int) -> list[tuple]:
    """Images sort(u) of random words u, alphabet size from length/2 to length.

    Every ninth word is a raw random word that does not end in its maximum,
    so it has no preimage under either operator.
    """
    words: list[tuple] = []
    seen = set()
    while len(words) < size:
        k = rng.randint(math.ceil(length / 2), length)
        u = tuple(rng.randint(1, k) for _ in range(length))
        if len(words) % 9 == 8:
            if u[-1] == max(u):
                continue
            w = u
        else:
            w = sort_via_stack(u, SortVariant.FAST if len(words) % 2 else SortVariant.SLOW)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def make_preimages() -> None:
    params = workloads.WORKLOADS["preimages"]["params"]
    rng = random.Random(POOL_SEED)
    count_pool, list_pool = [], []
    for length in params["count_lengths"]:
        for w in pool_words(rng, length, params["count_pool_per_length"]):
            entry = {"word": list(w), "cost_ms": 0.0}
            for v in SortVariant:
                start = perf_counter()
                n = count_preimages(w, v, limit=len(w))
                entry["cost_ms"] += 1e3 * (perf_counter() - start)
                assert check_preimages(w, v)[0] == n
                entry[v.value] = n
            if w[-1] != max(w):
                assert entry["fast"] == entry["slow"] == 0, w
            else:
                assert max(entry["fast"], entry["slow"]) >= 1, w
            entry["cost_ms"] = round(entry["cost_ms"], 3)
            count_pool.append(entry)
        print(f"count pool, length {length}: done", file=sys.stderr)
    identity = tuple(range(1, 11))
    for length in params["list_lengths"]:
        words = pool_words(rng, length, params["list_pool_per_length"])
        for w in words + ([identity] if length == len(identity) else []):
            entry = {"word": list(w), "always": w == identity, "cost_ms": 0.0}
            for v in SortVariant:
                start = perf_counter()
                in_order_preimages(w, v)
                entry["cost_ms"] += 1e3 * (perf_counter() - start)
                entry[v.value] = check_preimages(w, v)[1]
            entry["cost_ms"] = round(entry["cost_ms"], 3)
            list_pool.append(entry)
    # 1..10 has the Catalan number of preimages (231-avoiding permutations).
    catalan10 = math.comb(20, 10) // 11
    assert [e for e in list_pool if e["always"]][0]["fast"]["n"] == catalan10 == 16_796
    write("preimages", {"pool_seed": POOL_SEED, "count": count_pool, "list": list_pool})


def make_avoiders() -> None:
    params = workloads.WORKLOADS["avoiders"]["params"]
    contents = [c for s in params["brute_sums"] for c in positive_compositions(s)]
    contents.append(tuple(params["extra_content"]))
    brute = {}
    for c in contents:
        for name, patterns in PATTERN_SETS.items():
            n = brute_count_avoiders(c, patterns)
            # One fast pass sorts exactly the 231-avoiders, one slow pass the
            # words avoiding 231 and 221.
            expected = count_fast_sortable(c) if name == "231" else count_slow_sortable(c)
            assert n == expected, (c, name)
            brute[f"brute {word_text(c)} {name}"] = n
    recurrence = {}
    for s in range(1, params["recurrence_max_sum"] + 1):
        rows = [(c, count_fast_sortable(c), count_slow_sortable(c)) for c in positive_compositions(s)]
        for c, _, slow in rows:
            if len(set(c)) == 1:
                assert slow == fuss_catalan(c[0], len(c)), c
        recurrence[f"recurrence {s}"] = recurrence_digest(rows)
    write("avoiders", {"brute": brute, "recurrence": recurrence})


CLI_TOUR = [
    ["sort", "3662451", "--map", "slow", "--steps", "3", "--trace"],
    ["distance", "3662451"],
    ["preimages", "3211456", "--map", "fast", "--method", "vhc", "--list"],
    # The README puts --format json last, where argparse rejects it (exit 2).
    ["--format", "json", "vhc", "212", "--filter", "L", "--show-coloring"],
    ["count-sortable", "--map", "slow", "2", "2", "2"],
    ["uniform", "--ell", "2", "--n", "4", "--check"],
    ["gentree", "--rule", "fibonacci", "--depth", "8"],
    ["gentree", "--rule", "catalan-power", "--ell", "2", "--depth", "4"],
    ["exceptional", "--max-len", "7", "--list"],
    ["gap-census", "--len", "7", "--gap", "1"],
    ["conjectures", "--max-len", "7"],
    ["fertility-demo", "--m", "3"],
]
CACHE_COMMAND = ["--cache", "{cache}", "count-sortable", "--map", "slow"] + ["4"] * 10


def check_cli_golden(golden: dict[str, str]) -> None:
    """Check the golden output against library results computed another way."""
    def out(args):
        return golden[" ".join(args)].splitlines()

    chain = [(3, 6, 6, 2, 4, 5, 1)]
    for _ in range(3):
        chain.append(sort_slow(chain[-1]))  # the recursive definition, not the stack machine
    assert [line.split()[-1] for line in out(CLI_TOUR[0])] == ["".join(map(str, u)) for u in chain]
    w = (3, 6, 6, 2, 4, 5, 1)
    df = ds = 0
    u = w
    while u != tuple(sorted(w)):
        u, df = sort_fast(u), df + 1
    u = w
    while u != tuple(sorted(w)):
        u, ds = sort_slow(u), ds + 1
    assert out(CLI_TOUR[1]) == [f"fast={df} slow={ds} gap={df - ds}"]
    brute = brute_preimages((3, 2, 1, 1, 4, 5, 6), SortVariant.FAST)
    assert out(CLI_TOUR[2]) == [str(len(brute))] + ["".join(map(str, u)) for u in brute]
    vhc = json.loads(golden[" ".join(CLI_TOUR[3])])
    assert sum(c["catalan"] for c in vhc["configs"]) == len(brute_preimages((2, 1, 2), SortVariant.SLOW))
    assert out(CLI_TOUR[4]) == [str(brute_count_avoiders((2, 2, 2), PATTERN_SETS["231,221"]))]
    direct = brute_count_avoiders((2, 2, 2, 2), PATTERN_SETS["231,221"])
    assert out(CLI_TOUR[5]) == [str(fuss_catalan(2, 4)), f"direct={direct} match=True"]
    fib = [1, 2]
    while len(fib) < 8:
        fib.append(fib[-1] + fib[-2])
    assert out(CLI_TOUR[6]) == [" ".join(map(str, fib))]
    assert out(CLI_TOUR[7]) == [" ".join(str(fuss_catalan(2, n)) for n in range(1, 5))]
    recounts = {m: recount_census(m) for m in range(1, 8)}
    exceptional_lines = [line for line in out(CLI_TOUR[8]) if line.startswith("m=")]
    for m, line in zip(range(1, 8), exceptional_lines):
        r = recounts[m]
        assert f"normalized={r['total']} exceptional={len(r['exceptional'])}" in line, line
    assert len(exceptional_lines) == 7
    assert out(CLI_TOUR[9]) == [str(recounts[7]["hist"].get(1, 0))]
    assert out(CLI_TOUR[10])[-1] == "ratios nondecreasing: True"
    fertility = out(CLI_TOUR[11])
    for block, extra_one in zip((fertility[0:3], fertility[3:6]), (False, True)):
        witness = fertility_witness(3, extra_one)
        n = len(brute_preimages(witness, SortVariant.FAST))
        assert n == len(brute_preimages(witness, SortVariant.SLOW)) == 6 + extra_one
        assert block == [f"word {''.join(map(str, witness))} expected {n}",
                         f"  fast: vhc={n} trees={n} brute={n}",
                         f"  slow: vhc={n} trees={n} brute={n}"], block
    assert len(fertility) == 6
    assert out(CACHE_COMMAND) == [str(fuss_catalan(4, 10))]


def make_cli_tour() -> None:
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "STACKSORT_CACHE")}
    env["PYTHONPATH"] = str(root / "src")
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "memo.json")
        for args in CLI_TOUR + [CACHE_COMMAND, CACHE_COMMAND]:
            argv = workloads.cli_argv(args, cache)
            proc = subprocess.run([sys.executable, "-m", "stacksort.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            key = " ".join(args)
            assert golden.get(key, proc.stdout) == proc.stdout, "warm cache changed the output"
            golden[key] = proc.stdout
    check_cli_golden(golden)
    write("cli_tour", {
        "commands": [{"args": args, "golden": golden[" ".join(args)]} for args in CLI_TOUR],
        "cache_command": CACHE_COMMAND,
        "cache_golden": golden[" ".join(CACHE_COMMAND)],
    })


MAKERS = {"census": make_census, "preimages": make_preimages, "avoiders": make_avoiders,
          "cli-tour": make_cli_tour}

if __name__ == "__main__":
    for name in sys.argv[1:] or list(MAKERS):
        MAKERS[name]()
