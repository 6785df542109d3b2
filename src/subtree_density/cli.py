"""Command-line interface: stats, oracle, family, enumerate, sample, cseq, verify."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from typing import Iterable, List, Tuple

from . import dp, enumeration, families, oracle, ranks, verify
from .rationals import _int_text, format_ratio, to_decimal
from .tree import BLOCK_SEPARATOR, SIZE_CAP, Tree, TreeError, _shown, parse_trees, serialize


DECIMALS = 12
DECIMALS_CAP = 10 ** 6  # to_decimal takes tens of ms at this many digits
CSEQ_CAP = 400  # cseq --count 400 takes about 6 s, and 600 about 40 s
Output = Tuple[int, Iterable[str]]  # what a cmd_* returns: exit code, lines for `main` to write


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


def _parse_sweep(text: str) -> Tuple[str, int, int]:
    """'r=1..20' -> ('r', 1, 20)."""
    name, eq, rng = text.partition("=")
    if not eq or not name.strip():
        raise UsageError(f"bad sweep {text!r}, expected name=A..B")
    return (name.strip(), *_parse_range(rng))


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


def _stats_lines(stats: dp.SubtreeStats, args, **extra) -> List[str]:
    """`stats` as JSON with the `extra` keys, or as text with --decimals significant digits."""
    if args.format == "json":
        return [json.dumps({**stats.to_json_dict(), **extra}, sort_keys=True, indent=2)]
    digits = args.decimals or DECIMALS
    means = [("mu", stats.mu), ("density", stats.density), ("mu_prime", stats.mu_prime)]
    return [f"n={stats.n}", f"subtrees={_int_text(stats.subtree_count)}",
            f"order_sum={_int_text(stats.order_sum)}",
            *(f"{name}={format_ratio(v)} ({to_decimal(v, digits)})"
              for name, v in means if v is not None)]


def cmd_stats(args) -> Output:
    return 0, _stats_lines(dp.global_stats(_load_tree(args)), args)


def cmd_oracle(args) -> Output:
    if args.dump and (args.format or args.decimals):
        raise UsageError("--format and --decimals are not read with --dump")
    tree = _load_tree(args)
    if args.dump:
        return 0, oracle.dump_subsets(tree)
    brute = oracle.oracle_stats(tree)
    agree = brute == dp.global_stats(tree)
    if args.format == "json":
        return (0 if agree else 1), _stats_lines(brute, args, agreement=agree)
    verdict = "agreement=ok" if agree else "MISMATCH: oracle disagrees with the DP computation"
    return (0 if agree else 1), [*_stats_lines(brute, args), verdict]


def _family_spec(args):
    """--family and --params as a spec, and --sweep as (name, lo, hi) or None."""
    if not args.family:
        raise UsageError("--family NAME is required")
    spec = families.FamilySpec(args.family, _parse_params(args.params or ""))
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    if sweep and sweep[0] in spec.params:
        raise UsageError(f"parameter {sweep[0]!r} is given by both --params and --sweep")
    return spec, sweep


def cmd_family(args) -> Output:
    spec, sweep = _family_spec(args)
    if not sweep:
        if args.format or args.decimals:
            raise UsageError("--format and --decimals are read only with --sweep")
        return 0, _tree_lines([families.make_family(spec)])
    points = families.density_sweep(spec, *sweep)
    if args.format == "json":
        return 0, [families.sweep_json(points)]
    return 0, [families.sweep_csv(points, args.decimals or DECIMALS)]


def _enumerated(args):
    lo, hi = _parse_range(args.n)
    for n in (lo, hi):  # both ends, before the first tree is built
        enumeration.check_enum_size(n)
    return (t for n in range(lo, hi + 1)
            for t in enumeration.enumerate_trees(n, series_reduced=args.series_reduced))


def _sampled(args):
    n = _parse_size(args.n)
    return (enumeration.sample_series_reduced(n, args.seed + i) for i in range(args.count))


def _tree_lines(trees):
    """Each tree's text, a BLOCK_SEPARATOR line between two trees; made as it is read."""
    for i, tree in enumerate(trees):
        if i:
            yield BLOCK_SEPARATOR
        yield serialize(tree).rstrip("\n")  # main ends each line


def cmd_enumerate(args) -> Output:
    return 0, _tree_lines(_enumerated(args))


def cmd_sample(args) -> Output:
    return 0, _tree_lines(_sampled(args))


def cmd_cseq(args) -> Output:
    if args.count > CSEQ_CAP:  # before the table is built
        raise ValueError(f"--count must be at most {CSEQ_CAP}, got {_shown(args.count)}")
    return 0, (f"{j} {format_ratio(c)} {to_decimal(c, 15)}"
               for j, c in enumerate(ranks.c_sequence(args.count)))


def _family_trees(args):
    spec, sweep = _family_spec(args)
    if not sweep:
        return [families.make_family(spec)]
    return families.sweep_members(spec, *sweep, SIZE_CAP)


def _file_trees(args):
    if not args.tree:
        raise UsageError("--source file needs --tree")
    return _load_trees(args.tree)


# each --source: the flags it reads, another of them being a usage error, and its trees
_SOURCES = {
    "enum": (("n", "series_reduced"), _enumerated),
    "sample": (("n", "seed", "count"), _sampled),
    "family": (("family", "params", "sweep"), _family_trees),
    "file": (("tree",), _file_trees),
}


def cmd_verify(args) -> Output:
    reads, trees = _SOURCES[args.source]
    unread = [flag for flags, _ in _SOURCES.values() for flag in flags
              if flag not in reads and getattr(args, flag) is not None]
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
    report = verify.run_checks(trees(args), args.checks, config=config)
    if args.format == "json":
        lines = [report.to_json()]
    else:
        lines = [*report.summary_lines(), "result=" + ("pass" if report.passed else "FAIL")]
    return (0 if report.passed else 1), lines


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
    p.add_argument("--source", choices=tuple(_SOURCES), required=True)
    # no defaults here, so cmd_verify can tell which flags were given
    p.add_argument("--n", help="A..B for enum (default 4..12); N for sample, where it is required")
    p.add_argument("--series-reduced", action="store_true", default=None, help="enum")
    p.add_argument("--seed", type=int, help="sample; default 0")
    p.add_argument("--count", type=_positive_int, help="sample; default 200")
    p.add_argument("--tree", help="tree file for --source file")
    p.add_argument("--checks", type=_check_ids, default=",".join(verify.ALL_CHECKS))
    return parser


def _check_out(path: str) -> None:
    """Refuse an --out that is a directory or lies in none, before the run does any work."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"--out {path!r}: {folder!r} is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "format", None) == "json" and getattr(args, "decimals", None):
        args.parser.error("--decimals is not read with --format json")
    try:
        if (getattr(args, "decimals", None) or 0) > DECIMALS_CAP:  # before any work
            raise ValueError(f"--decimals must be at most {DECIMALS_CAP}, "
                             f"got {_shown(args.decimals)}")
        if args.out:
            _check_out(args.out)
        code, lines = args.run(args)
        lines = iter(lines)
        # a run that fails before its first line exists leaves stdout and --out as they were
        head = list(itertools.islice(lines, 1))
        with (open(args.out, "w", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as out:
            for line in itertools.chain(head, lines):
                print(line, file=out)
            out.flush()  # a reader that closed stdout shows up here, not at exit
        return code
    except UsageError as exc:
        args.parser.error(str(exc))  # exits with code 2
    except BrokenPipeError:  # the reader closed stdout, as `| head` does: end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        return 0
    except (TreeError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
