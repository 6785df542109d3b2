"""Command-line interface: stats, oracle, family, enumerate, sample, cseq, verify."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Tuple

from . import dp, enumeration, families, oracle, ranks, verify
from .rationals import format_ratio, ratio_json, to_decimal
from .tree import BLOCK_SEPARATOR, Tree, TreeError, parse_trees, serialize


DECIMALS = 12


class UsageError(Exception):
    """Arguments that parse but contradict each other or their own range."""


def _parse_range(text: str) -> Tuple[int, int]:
    """'A..B' with A <= B -> (A, B); a bare integer N -> (N, N)."""
    lo, sep, hi = text.partition("..")
    try:
        bounds = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"expected N or A..B, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise UsageError(f"empty range {text!r}: {bounds[0]} > {bounds[1]}")
    return bounds


def _parse_size(text: str) -> int:
    """A single size: N, or A..B with A == B."""
    lo, hi = _parse_range(text)
    if lo != hi:
        raise UsageError(f"expected one size, got the range {text!r}")
    return lo


def _parse_sweep(text: str) -> Tuple[str, Tuple[int, int]]:
    """'r=1..20' -> ('r', (1, 20))."""
    name, eq, rng = text.partition("=")
    if not eq or not name.strip():
        raise UsageError(f"bad sweep {text!r}, expected name=A..B")
    return name.strip(), _parse_range(rng)


def _positive_int(text: str) -> int:
    """argparse type of --count and --decimals: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _check_ids(text: str) -> List[str]:
    """argparse type of --checks: known check ids, comma separated, each kept once."""
    ids = list(dict.fromkeys(c.strip() for c in text.split(",") if c.strip()))
    unknown = [c for c in ids if c not in verify.ALL_CHECKS]
    if unknown or not ids:
        bad = f"unknown check ids {unknown}" if unknown else "no check id"
        raise argparse.ArgumentTypeError(f"{bad}; choose from {','.join(verify.ALL_CHECKS)}")
    return ids


def _parse_params(text: str) -> dict:
    """'k=3,r=2' -> {'k': 3, 'r': 2}."""
    params = {}
    for item in text.split(","):
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq:
            raise UsageError(f"bad parameter {item!r}, expected name=value")
        key = key.strip()
        if key in params:
            raise UsageError(f"parameter {key!r} is given twice in --params")
        try:
            params[key] = int(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} needs an integer, got {value!r}") from None
    return params


def _load_trees(path: str) -> List[Tree]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trees(fh.read())


def _load_tree(args) -> Tree:
    """The tree in the --tree file of `stats` or `oracle`, which read one."""
    trees = _load_trees(args.tree)
    if len(trees) > 1:
        raise TreeError(f"{args.tree} holds {len(trees)} trees; {args.command} reads one")
    return trees[0]


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing and closed afterwards, or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout
        sys.stdout.flush()  # a reader that closed stdout shows up here, not at exit


def _write_stats(out, stats: dp.SubtreeStats, args):
    """`stats` as JSON, or as text with --decimals significant digits."""
    if args.format == "json":
        print(json.dumps(stats.to_json_dict(), sort_keys=True, indent=2), file=out)
        return
    digits = args.decimals or DECIMALS
    means = [("mu", stats.mu), ("density", stats.density), ("mu_prime", stats.mu_prime)]
    print(f"n={stats.n}", f"subtrees={stats.subtree_count}", f"order_sum={stats.order_sum}",
          *(f"{name}={format_ratio(v)} ({to_decimal(v, digits)})"
            for name, v in means if v is not None), sep="\n", file=out)


def cmd_stats(args) -> int:
    stats = dp.global_stats(_load_tree(args))
    with _output(args) as out:
        _write_stats(out, stats, args)
    return 0


def cmd_oracle(args) -> int:
    if args.dump and (args.format or args.decimals):
        raise UsageError("--format and --decimals are not read with --dump")
    tree = _load_tree(args)
    with _output(args) as out:
        if args.dump:
            for line in oracle.dump_subsets(tree):
                print(line, file=out)
            return 0
        brute = oracle.oracle_stats(tree)
        _write_stats(out, brute, args)
        if brute != dp.global_stats(tree):
            print("MISMATCH: oracle disagrees with the DP computation", file=out)
            return 1
        print("agreement=ok", file=out)
        return 0


def _family_spec(args):
    """--family and --params as a spec, and --sweep as (name, (lo, hi)) or None."""
    if not args.family:
        raise UsageError("--family NAME is required")
    spec = families.FamilySpec(args.family, _parse_params(args.params or ""))
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    if sweep and sweep[0] in spec.params:
        raise UsageError(f"parameter {sweep[0]!r} is given by both --params and --sweep")
    return spec, sweep


def cmd_family(args) -> int:
    spec, sweep = _family_spec(args)
    if not sweep and (args.format or args.decimals):
        raise UsageError("--format and --decimals are read only with --sweep")
    with _output(args) as out:
        if sweep:
            name, (lo, hi) = sweep
            points = families.density_sweep(spec, name, range(lo, hi + 1))
            if args.format == "json":
                print(json.dumps([{
                    "param": p.param_value, "n": p.n, "leaves": p.leaves,
                    "twigs": p.twigs, "diameter": p.diameter,
                    "density": ratio_json(p.density),
                } for p in points], sort_keys=True, indent=2), file=out)
            else:
                families.write_sweep_csv(points, out, digits=args.decimals or DECIMALS)
        else:
            out.write(serialize(families.make_family(spec)))
    return 0


def _enumerated(args):
    lo, hi = _parse_range(args.n)
    return (t for n in range(lo, hi + 1)
            for t in enumeration.enumerate_trees(n, series_reduced=args.series_reduced))


def _sampled(args):
    n = _parse_size(args.n)
    return (enumeration.sample_series_reduced(n, args.seed + i) for i in range(args.count))


def _write_trees(args, trees) -> int:
    with _output(args) as out:
        for i, tree in enumerate(trees):
            if i:
                print(BLOCK_SEPARATOR, file=out)
            out.write(serialize(tree))
    return 0


def cmd_enumerate(args) -> int:
    return _write_trees(args, _enumerated(args))


def cmd_sample(args) -> int:
    return _write_trees(args, _sampled(args))


def cmd_cseq(args) -> int:
    with _output(args) as out:
        for j, c in enumerate(ranks.c_sequence(args.count)):
            print(f"{j} {format_ratio(c)} {to_decimal(c, 15)}", file=out)
    return 0


def _verify_trees(args):
    """The tree stream of `verify`; its arguments are checked before it starts."""
    if args.source == "enum":
        return _enumerated(args)
    if args.source == "sample":
        return _sampled(args)
    if args.source == "family":
        spec, sweep = _family_spec(args)
        if not sweep:
            return [families.make_family(spec)]
        name, (lo, hi) = sweep
        return (families.make_family(spec.with_param(name, v)) for v in range(lo, hi + 1))
    if not args.tree:
        raise UsageError("--source file needs --tree")
    return _load_trees(args.tree)


# the flags that each --source reads; another of them, if given, is a usage error
_SOURCE_FLAGS = {
    "enum": ("n", "series_reduced"),
    "sample": ("n", "seed", "count"),
    "family": ("family", "params", "sweep"),
    "file": ("tree",),
}


def cmd_verify(args) -> int:
    unread = [flag for flags in _SOURCE_FLAGS.values() for flag in flags
              if flag not in _SOURCE_FLAGS[args.source] and getattr(args, flag) is not None]
    if unread:
        names = ", ".join(dict.fromkeys("--" + flag.replace("_", "-") for flag in unread))
        raise UsageError(f"--source {args.source} does not read {names}")
    if args.source == "sample" and args.n is None:
        raise UsageError("--source sample needs --n N")
    defaults = {"n": "4..12", "series_reduced": False, "seed": 0, "count": 200}
    for flag, value in defaults.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)
    config = {"source": args.source, "checks": args.checks,
              **{flag: getattr(args, flag) for flag in defaults}}
    report = verify.run_checks(_verify_trees(args), args.checks, config=config)
    with _output(args) as out:
        if args.format == "json":
            print(report.to_json(), file=out)
        else:
            print(*report.summary_lines(), sep="\n", file=out)
            print("result=" + ("pass" if report.passed else "FAIL"), file=out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtree-density",
        description="Exact subtree-count and mean-subtree-order invariants of trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, formats=(), decimals=False, tree=False, family=False,
            n_help=None, count=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run, parser=p)  # usage errors print this subcommand's usage
        if formats:
            p.add_argument("--format", choices=formats, help=f"default {formats[0]}")
        if decimals:
            p.add_argument("--decimals", type=_positive_int, help=f"default {DECIMALS}")
        p.add_argument("--out", default=None)
        if tree:
            p.add_argument("--tree", required=True, help="tree file path")
        if family:
            p.add_argument("--family", choices=families.FAMILY_NAMES)
            p.add_argument("--params", help="e.g. k=3,r=2")
            p.add_argument("--sweep", help="e.g. r=1..20")
        if n_help:
            p.add_argument("--n", required=True, help=n_help)
        if count is not None:
            p.add_argument("--count", type=_positive_int, default=count)
        return p

    text_json = ("text", "json")
    add("stats", "exact per-tree invariants", cmd_stats,
        formats=text_json, decimals=True, tree=True)
    p = add("oracle", "brute-force cross-check", cmd_oracle,
            formats=text_json, decimals=True, tree=True)
    p.add_argument("--dump", action="store_true", help="list subtrees one per line")
    add("family", "build a family member or sweep", cmd_family,
        formats=("csv", "json"), decimals=True, family=True)
    p = add("enumerate", "all free trees up to isomorphism", cmd_enumerate, n_help="N or A..B")
    p.add_argument("--series-reduced", action="store_true")
    p = add("sample", "random series-reduced trees", cmd_sample,
            n_help="N, the least vertex count", count=1)
    p.add_argument("--seed", type=int, default=0)
    add("cseq", "coefficient sequence c_j", cmd_cseq, count=6)
    p = add("verify", "run inequality checks over a tree stream", cmd_verify,
            formats=text_json, family=True)
    p.add_argument("--source", choices=tuple(_SOURCE_FLAGS), required=True)
    # no defaults here, so cmd_verify can tell which flags were given
    p.add_argument("--n", help="A..B for enum (default 4..12); N for sample, where it is required")
    p.add_argument("--series-reduced", action="store_true", default=None, help="enum")
    p.add_argument("--seed", type=int, help="sample; default 0")
    p.add_argument("--count", type=_positive_int, help="sample; default 200")
    p.add_argument("--tree", help="tree file for --source file")
    p.add_argument("--checks", type=_check_ids, default=",".join(verify.ALL_CHECKS))
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact counts of large trees exceed 4300 digits
    args = build_parser().parse_args(argv)
    if getattr(args, "format", None) == "json" and getattr(args, "decimals", None):
        args.parser.error("--decimals is not read with --format json")
    try:
        return args.run(args)
    except UsageError as exc:
        args.parser.error(str(exc))  # exits with code 2
    except BrokenPipeError:  # the reader closed stdout, as `| head` does: end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        return 0
    except (TreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
