"""Command-line interface: stats, oracle, family, enumerate, sample, cseq, verify."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Tuple

from . import dp, enumeration, families, oracle, verify
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
        try:
            params[key] = int(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} needs an integer, got {value!r}") from None
    return params


def _load_trees(path: str) -> List[Tree]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trees(fh.read())


def _emit(out, text: str):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing and closed afterwards, or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout
        sys.stdout.flush()  # a reader that closed stdout shows up here, not at exit


def _stats_text(stats: dp.SubtreeStats, digits: int) -> str:
    lines = [
        f"n={stats.n}",
        f"subtrees={stats.subtree_count}",
        f"order_sum={stats.order_sum}",
        f"mu={format_ratio(stats.mu)} ({to_decimal(stats.mu, digits)})",
        f"density={format_ratio(stats.density)} ({to_decimal(stats.density, digits)})",
    ]
    if stats.mu_prime is not None:
        lines.append(
            f"mu_prime={format_ratio(stats.mu_prime)} ({to_decimal(stats.mu_prime, digits)})")
    return "\n".join(lines) + "\n"


def cmd_stats(args) -> int:
    tree = _load_trees(args.tree)[0]
    stats = dp.global_stats(tree)
    with _output(args) as out:
        if args.format == "json":
            _emit(out, json.dumps(stats.to_json_dict(), sort_keys=True, indent=2))
        else:
            out.write(_stats_text(stats, args.decimals or DECIMALS))
    return 0


def cmd_oracle(args) -> int:
    if args.dump and (args.format or args.decimals):
        raise UsageError("--format and --decimals are not read with --dump")
    tree = _load_trees(args.tree)[0]
    with _output(args) as out:
        if args.dump:
            for line in oracle.dump_subsets(tree):
                _emit(out, line)
            return 0
        brute = oracle.oracle_stats(tree)
        fast = dp.global_stats(tree)
        if args.format == "json":
            _emit(out, json.dumps(brute.to_json_dict(), sort_keys=True, indent=2))
        else:
            out.write(_stats_text(brute, args.decimals or DECIMALS))
        if brute != fast:
            _emit(out, "MISMATCH: oracle disagrees with the DP computation")
            return 1
        _emit(out, "agreement=ok")
        return 0


def _family_spec(args) -> families.FamilySpec:
    if not args.family:
        raise UsageError("--family NAME is required")
    return families.FamilySpec(args.family, _parse_params(args.params or ""))


def cmd_family(args) -> int:
    spec = _family_spec(args)
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    if not sweep and (args.format or args.decimals):
        raise UsageError("--format and --decimals are read only with --sweep")
    with _output(args) as out:
        if sweep:
            name, (lo, hi) = sweep
            points = families.density_sweep(spec, name, range(lo, hi + 1))
            if args.format == "json":
                _emit(out, json.dumps([{
                    "param": p.param_value, "n": p.n, "leaves": p.leaves,
                    "twigs": p.twigs, "diameter": p.diameter,
                    "density": ratio_json(p.density),
                } for p in points], sort_keys=True, indent=2))
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
                _emit(out, BLOCK_SEPARATOR)
            out.write(serialize(tree))
    return 0


def cmd_enumerate(args) -> int:
    return _write_trees(args, _enumerated(args))


def cmd_sample(args) -> int:
    return _write_trees(args, _sampled(args))


def cmd_cseq(args) -> int:
    from .ranks import c_sequence
    with _output(args) as out:
        for j, c in enumerate(c_sequence(args.count)):
            _emit(out, f"{j} {format_ratio(c)} {to_decimal(c, 15)}")
    return 0


def _verify_trees(args):
    """The tree stream of `verify`; its arguments are checked before it starts."""
    if args.source == "enum":
        return _enumerated(args)
    if args.source == "sample":
        return _sampled(args)
    if args.source == "family":
        spec = _family_spec(args)
        if not args.sweep:
            return [families.make_family(spec)]
        name, (lo, hi) = _parse_sweep(args.sweep)
        return (families.make_family(spec.with_param(name, v)) for v in range(lo, hi + 1))
    if not args.tree:
        raise UsageError("--source file needs --tree")
    return _load_trees(args.tree)


def cmd_verify(args) -> int:
    if args.n is None:
        if args.source == "sample":
            raise UsageError("--source sample needs --n N")
        args.n = "4..12"
    config = {
        "source": args.source,
        "checks": args.checks,
        "n": args.n,
        "series_reduced": args.series_reduced,
        "seed": args.seed,
        "count": args.count,
    }
    report = verify.run_checks(_verify_trees(args), args.checks, config=config)
    with _output(args) as out:
        if args.format == "json":
            _emit(out, report.to_json())
        else:
            for line in report.summary_lines():
                _emit(out, line)
            _emit(out, "result=" + ("pass" if report.passed else "FAIL"))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtree-density",
        description="Exact subtree-count and mean-subtree-order invariants of trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, formats=(), decimals=False, tree=False, family=False,
            n_help=None, seed=False, count=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if formats:
            p.add_argument("--format", choices=formats, help=f"default {formats[0]}")
        if decimals:
            p.add_argument("--decimals", type=_positive_int, help=f"default {DECIMALS}")
        p.add_argument("--out", default=None)
        if tree:
            p.add_argument("--tree", required=True, help="tree file path")
        if family:
            p.add_argument("--family", choices=families.FAMILY_NAMES)
            p.add_argument("--params", default="", help="e.g. k=3,r=2")
            p.add_argument("--sweep", default=None, help="e.g. r=1..20")
        if n_help:
            p.add_argument("--n", required=True, help=n_help)
        if seed:
            p.add_argument("--seed", type=int, default=0)
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
    add("sample", "random series-reduced trees", cmd_sample,
        n_help="N, the least vertex count", seed=True, count=1)
    add("cseq", "coefficient sequence c_j", cmd_cseq, count=6)
    p = add("verify", "run inequality checks over a tree stream", cmd_verify,
            formats=text_json, family=True, seed=True, count=200)
    p.add_argument("--source", choices=("enum", "sample", "family", "file"), required=True)
    p.add_argument("--n", default=None,
                   help="A..B for enum (default 4..12); N for sample, where it is required")
    p.add_argument("--series-reduced", action="store_true")
    p.add_argument("--tree", default=None, help="tree file for --source file")
    p.add_argument("--checks", type=_check_ids, default=",".join(verify.ALL_CHECKS))
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact counts of large trees exceed 4300 digits
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) == "json" and getattr(args, "decimals", None):
        parser.error("--decimals is not read with --format json")
    try:
        return args.run(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits with code 2
    except BrokenPipeError:  # the reader closed stdout, as `| head` does: end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        return 0
    except (TreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
