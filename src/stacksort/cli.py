"""Command-line front end.

Every operation of the library is reachable from here with machine-readable
output (--format json; count-sortable also speaks csv).  Words are given as
digit strings when all letters fit in one digit, otherwise space or comma
separated.  Exit codes: 0 success, 1 domain error, 2 size-limit refusal,
usage error or unreadable or unwritable cache file.  Every size limit is a
fixed `MAX_*` constant of `words`; no option raises one.

Each command returns its JSON payload and its plain text, and `main` alone
prints one of them: the payload indented by 2 for --format json, else the
text.  Each command imports the library modules it calls, and no others, so
a run pays start-up only for the code it uses.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import words


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


def _add_word(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("word", help="the input word, e.g. 3662451 or '3 5 7 10 10 2 4 6 8 9 1'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacksort",
        description="Stack-sorting operators on words: sorting, distances, "
        "preimage counting, sortable-word enumeration, and search experiments.",
    )
    parser.add_argument("--format", choices=("plain", "json", "csv"), default="plain",
                        help="output format; csv is for count-sortable only")
    parser.add_argument("--parallel", type=_int_at_least(1), default=1, metavar="N",
                        help="worker processes for the search experiments (default 1, "
                        "at most the number of CPUs)")
    parser.add_argument("--cache", metavar="PATH",
                        help="file of sortable counts, each checked on load; purely a warm start")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort", help="apply an operator, optionally tracing the chain")
    _add_word(p)
    p.add_argument("--map", choices=("fast", "slow"), required=True)
    p.add_argument("--steps", type=_int_at_least(0), default=1,
                   help=f"passes; more than one needs at most {words.MAX_WALK_LEN} letters")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("distance", help="iterations to reach the identity, both operators")
    _add_word(p)

    p = sub.add_parser("preimages", help="count or list the preimages of a word")
    _add_word(p)
    p.add_argument("--map", choices=("fast", "slow"), required=True)
    p.add_argument("--method", choices=("dp", "vhc", "brute", "trees"), default="dp",
                   help=f"dp: interval DP over trees (default, at most {words.MAX_DP_LEN} "
                   "letters); vhc: the hook-configuration sum; brute: exhaust the content "
                   "class; trees: count the reconstructed preimages")
    p.add_argument("--list", action="store_true", dest="list_words")

    p = sub.add_parser("vhc", help="enumerate valid hook configurations")
    _add_word(p)
    p.add_argument("--filter", choices=("all", "binary", "R", "L"), default="all")
    p.add_argument("--show-coloring", action="store_true")

    p = sub.add_parser("count-sortable", help="sortable-word counts along the generating trees")
    p.add_argument("--map", choices=("fast", "slow"), required=True)
    p.add_argument("content", type=int, nargs="+", metavar="c")

    p = sub.add_parser("uniform", help="slow-sortable count for uniform content")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="cross-check against direct enumeration (within limits)")

    p = sub.add_parser("gentree", help="level counts of a generating tree")
    p.add_argument("--axiom", type=int, default=None)
    p.add_argument("--rule", required=True,
                   help="'fibonacci', 'catalan-power' (with --ell), or inline '1:2;2:1,2'")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("exceptional", help="census of words the slow operator sorts faster")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--list", action="store_true", dest="list_words")

    p = sub.add_parser("gap-census", help="count words with a given fast-slow distance gap")
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--gap", type=int, required=True)

    p = sub.add_parser("conjectures", help="scan the open conjectures up to a length")
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("fertility-demo", help="preimage counts of the witness families")
    p.add_argument("--m", type=int, required=True)

    return parser


def _cmd_sort(args):
    from . import sorting

    w = words.parse_word(args.word)
    variant = sorting.SortVariant(args.map)
    if args.steps > 1:  # up to len(w) passes of len(w) letters
        words.check_limit("word length", len(w), words.MAX_WALK_LEN)
    target = tuple(sorted(w))  # the identity word, a fixed point of both operators
    walked = [w]
    while len(walked) <= args.steps and walked[-1] != target:
        walked.append(sorting.sort_via_stack(walked[-1], variant))
    chain = [words.format_word(u) for u in walked]
    text = f"\n  ={args.map}=> ".join(chain) if args.trace else chain[-1]
    return {"map": args.map, "chain": chain}, text


def _cmd_distance(args):
    from . import sorting

    w = words.parse_word(args.word)
    fast_d = sorting.distance(w, sorting.SortVariant.FAST)
    slow_d = sorting.distance(w, sorting.SortVariant.SLOW)
    return ({"word": words.format_word(w), "fast": fast_d, "slow": slow_d, "gap": fast_d - slow_d},
            f"fast={fast_d} slow={slow_d} gap={fast_d - slow_d}")


def _cmd_preimages(args):
    from . import hooks, sorting

    w = words.parse_word(args.word)
    variant = sorting.SortVariant(args.map)
    preimage_list: list[tuple[int, ...]] | None = None
    if args.method in ("dp", "vhc"):
        if args.method == "dp":
            count = hooks.count_preimages(w, variant)
        else:
            count = hooks.count_preimages_vhc(w, variant)
        if args.list_words:
            preimage_list = sorted(hooks.in_order_preimages(w, variant))
    elif args.method == "brute":
        preimage_list = list(hooks.brute_preimages(w, variant))
        count = len(preimage_list)
    else:
        preimage_list = sorted(hooks.in_order_preimages(w, variant))
        count = len(preimage_list)
    payload = {"word": words.format_word(w), "map": args.map,
               "method": args.method, "count": count}
    lines = [str(count)]
    if args.list_words:
        payload["preimages"] = [words.format_word(u) for u in preimage_list]
        lines += payload["preimages"]
    return payload, "\n".join(lines)


def _cmd_vhc(args):
    from . import hooks

    w = words.parse_word(args.word)
    configs = list(hooks.enumerate_vhc(w, hooks.VhcFilter(args.filter)))
    rendered, lines = [], [f"{len(configs)} configuration(s)"]
    for config in configs:
        classes = hooks.color_classes(w, config)  # validates the configuration
        q = [len(ps) for ps in classes]
        entry = {"hooks": [{"sw": [i, w[i - 1]], "ne": [j, w[j - 1]]} for i, j in config],
                 "q": q, "catalan": hooks.catalan_product(q)}
        line = " ".join(f"({i},{w[i - 1]})->({j},{w[j - 1]})" for i, j in config) or "(empty)"
        line += f"  q={tuple(q)}  catalan={entry['catalan']}"
        if args.show_coloring:
            entry["colors"] = [r for _, r in sorted((a, r) for r, ps in enumerate(classes)
                                                    for a in ps)]
            entry["classes"] = classes
            line += f"  colors={tuple(entry['colors'])}"
        rendered.append(entry)
        lines.append(line)
    return ({"word": words.format_word(w), "filter": args.filter, "count": len(configs),
             "configs": rendered}, "\n".join(lines))


def _cmd_count_sortable(args):
    from . import counting

    c = tuple(args.content)
    if args.format == "csv":  # the row carries both counts
        return None, (f"content,fast_sortable,slow_sortable\n\"{' '.join(map(str, c))}\","
                      f"{counting.count_fast_sortable(c)},{counting.count_slow_sortable(c)}")
    count = counting.count_fast_sortable if args.map == "fast" else counting.count_slow_sortable
    value = count(c)
    return {"content": list(c), "map": args.map, "count": str(value)}, str(value)


def _cmd_uniform(args):
    from . import counting

    value = counting.fuss_catalan(args.ell, args.n)
    payload: dict = {"ell": args.ell, "n": args.n, "count": str(value)}
    text = str(value)
    if args.check:
        direct = counting.brute_count_avoiders((args.ell,) * args.n, [(2, 3, 1), (2, 2, 1)])
        payload["direct_enumeration"] = str(direct)
        payload["match"] = direct == value
        text += f"\ndirect={direct} match={direct == value}"
    return payload, text


def _parse_rule(args):
    from . import counting

    if args.rule in ("fibonacci", "catalan-power"):
        spec = (counting.FIBONACCI_TREE if args.rule == "fibonacci"
                else counting.uniform_avoider_tree(args.ell))
        return spec if args.axiom is None else counting.GenTreeSpec(args.axiom, spec.rule)
    table: dict[int, tuple[int, ...]] = {}
    try:
        for clause in args.rule.split(";"):
            label, children = clause.split(":")
            table[int(label)] = tuple(int(t) for t in children.split(",") if t)
    except ValueError:
        raise words.DomainError(f"cannot parse rule {args.rule!r}") from None
    if args.axiom is None:
        raise words.DomainError("an inline rule needs --axiom")
    return counting.GenTreeSpec(args.axiom, table)


def _cmd_gentree(args):
    from . import counting

    spec = _parse_rule(args)
    sizes = [str(s) for s in counting.generating_tree_level_counts(spec, args.depth)]
    return {"axiom": spec.axiom, "depth": args.depth, "level_counts": sizes}, " ".join(sizes)


def _cmd_exceptional(args):
    from . import experiments

    experiments.check_scan_length(args.max_len)
    reports = [
        experiments.find_exceptional(m, parallelism=args.parallel)
        for m in range(1, args.max_len + 1)
    ]
    lines = []
    for report in reports:
        lines.append(f"m={report['parameters']['length']} "
                     f"normalized={report['normalized_words']} "
                     f"exceptional={report['exceptional_count']} ratio={report['ratio']}")
        if args.list_words and report["exceptional_count"]:
            lines += [f"  {witness}" for witness in report["witnesses"]]
            if report["truncated"]:
                lines.append("  ... (truncated)")
    return reports, "\n".join(lines)


def _cmd_gap_census(args):
    from . import experiments

    report = experiments.gap_census(args.length, args.gap, parallelism=args.parallel)
    return report, str(report["count"])


def _cmd_conjectures(args):
    from . import experiments

    report = experiments.scan_conjectures(args.max_len, parallelism=args.parallel)
    lines = []
    for key in ("gap_length_bound", "double_slow_bound"):
        block = report[key]
        status = "no counterexample"
        if block["violations"]:
            status = (f"{block['violations']} violation(s) of \"{block['statement']}\", "
                      f"first {block['counterexample']}")
        lines.append(f"{key}: {status} "
                     f"(checked {report['exceptional_checked']} exceptional words)")
    lines += [f"m={entry['length']} ratio={entry['ratio']}" for entry in report["ratios"]]
    lines.append(f"ratios nondecreasing: {report['ratios_nondecreasing']}")
    return report, "\n".join(lines)


def _cmd_fertility_demo(args):
    from . import experiments

    report = experiments.fertility_demo(args.m)
    lines = []
    for entry in report["words"]:
        lines.append(f"word {entry['word']} expected {entry['expected']}")
        for variant in ("fast", "slow"):
            parts = [f"{k}={v}" for k, v in entry[variant].items() if v is not None]
            lines.append(f"  {variant}: " + " ".join(parts))
    return report, "\n".join(lines)


_HANDLERS = {
    "sort": _cmd_sort,
    "distance": _cmd_distance,
    "preimages": _cmd_preimages,
    "vhc": _cmd_vhc,
    "count-sortable": _cmd_count_sortable,
    "uniform": _cmd_uniform,
    "gentree": _cmd_gentree,
    "exceptional": _cmd_exceptional,
    "gap-census": _cmd_gap_census,
    "conjectures": _cmd_conjectures,
    "fertility-demo": _cmd_fertility_demo,
}


def main(argv: list[str] | None = None) -> int:
    # Counts print exactly, past Python's 4,300-digit int/str limit, which is
    # lifted for this call only (Python 3.10 before 3.10.7 has none).  Parsing
    # stays bounded: one argv token is at most 128 KiB.
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _main(argv)
    previous = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command != "count-sortable":
        parser.error("--format csv is written only by count-sortable")
    if args.cache:
        from . import counting

        if os.path.exists(args.cache):
            try:
                counting.load_memo(args.cache)
            except (OSError, ValueError) as exc:
                print(f"error: cannot load cache file {args.cache}: {exc}", file=sys.stderr)
                return 2
    try:
        payload, text = _HANDLERS[args.command](args)
    except words.SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except words.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    elif text:  # an empty scan prints nothing
        print(text)
    if args.cache:
        try:
            counting.save_memo(args.cache)
        except OSError as exc:
            print(f"error: cannot write cache file {args.cache}: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
