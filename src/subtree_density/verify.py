"""Inequality/equality checks over tree streams, with counterexample reports.

Check ids:
  C1  leaf-minority        leaves are in less than half of all subtrees
  C2  mu-upper             mu < (3n-2)/4 on series-reduced trees
  C3  leaf-count           l >= (n+2)/2 on series-reduced trees
  C4  mu-vs-muprime        mu <= mu' with equality only for P4
  C5  twig-upper           mu < 3n/4 - 2t/5 on series-reduced trees
  C6  stpoly               (2^a + a 2^(a-1))/(2^a+1) <= (28a+16)/45, a >= 2
  C7  alpha-majority       alpha >= alpha_bar at every internal root
  C8  alpha-floor          alpha(T,v) >= n - l - 1 + 2^l at every internal root
  C9  anchor-exists-n30    an anchor exists with |mu - lambda| < 2 (sampled)
  C10 simple-lambda        lambda >= (n+1)/2 + (k-1)/10 at internal roots
  C11 rank-lambda          lambda >= 1 + sum c_j m_j at internal roots
  C12 density-window       1/2 < D < 3/4 on series-reduced trees; D = 1/2 is
                           attained by the six-vertex double star, so C12
                           reports it as a violation

Every comparison is exact rational arithmetic; equality detection never
uses a tolerance.  C10 and C11 are linear per tree: `vertex_views` gives
lambda at every vertex in one pass, C10's bound is the same at every
internal root (k is the internal count), and `ranks.rank_lower_bounds`
gives C11's bound at every root in one rerooting pass.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence

from .dp import global_stats, good_anchor, vertex_view, vertex_views
from .enumeration import canonical_form
from .rationals import format_ratio
from .ranks import rank_lower_bounds, simple_lower_bound
from .tree import Tree, classify_vertices, is_series_reduced

ALL_CHECKS = ("C1", "C2", "C3", "C4", "C5", "C6",
              "C7", "C8", "C9", "C10", "C11", "C12")

STPOLY_MAX = 64


class _TreeContext:
    """Lazy per-tree cache shared by all checks; each value is computed once."""

    def __init__(self, tree: Tree):
        self.tree = tree

    @cached_property
    def stats(self):
        return global_stats(self.tree)

    @cached_property
    def code(self):
        return canonical_form(self.tree)

    @cached_property
    def series_reduced(self):
        return is_series_reduced(self.tree)

    @cached_property
    def internal(self):
        return [v for v in range(self.tree.n) if self.tree.degree(v) >= 2]

    @cached_property
    def views(self):
        return vertex_views(self.tree)


@dataclass
class CheckOutcome:
    check: str
    trees_examined: int = 0
    trees_applicable: int = 0
    violations: List[dict] = field(default_factory=list)
    equality_cases: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "trees_examined": self.trees_examined,
            "trees_applicable": self.trees_applicable,
            "violations": self.violations,
            "equality_cases": self.equality_cases,
        }


@dataclass
class VerificationReport:
    config: dict
    outcomes: List[CheckOutcome]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def outcome(self, check: str) -> CheckOutcome:
        for o in self.outcomes:
            if o.check == check:
                return o
        raise KeyError(check)

    def to_json(self) -> str:
        body = {
            "config": self.config,
            "checks": [o.to_json_dict() for o in self.outcomes],
            "passed": self.passed,
        }
        # wall time kept out of the body so reruns are byte-identical
        return json.dumps({"report": body, "elapsed_seconds": self.elapsed_seconds},
                          sort_keys=True, indent=2)

    def summary_lines(self) -> List[str]:
        lines = ["check   examined  applicable  violations  equalities  status"]
        for o in self.outcomes:
            status = "pass" if o.passed else "FAIL"
            lines.append(
                f"{o.check:<8}{o.trees_examined:>8}{o.trees_applicable:>12}"
                f"{len(o.violations):>12}{len(o.equality_cases):>12}  {status}")
        return lines


def _witness(ctx: _TreeContext, **values) -> dict:
    out = {"n": ctx.tree.n, "canonical_form": list(ctx.code)}
    for k, v in values.items():
        out[k] = format_ratio(v) if isinstance(v, Fraction) else v
    return out


def _check_c1(ctx, out):
    total = ctx.stats.subtree_count
    for v in range(ctx.tree.n):
        if ctx.tree.degree(v) == 1 and not 2 * ctx.stats.containment[v] < total:
            out.violations.append(_witness(ctx, vertex=v,
                                           alpha=str(ctx.stats.containment[v]),
                                           subtree_count=str(total)))


def _check_c2(ctx, out):
    bound = Fraction(3 * ctx.tree.n - 2, 4)
    if not ctx.stats.mu < bound:
        out.violations.append(_witness(ctx, mu=ctx.stats.mu, bound=bound))


def _check_c3(ctx, out):
    l = ctx.tree.n - len(ctx.internal)
    if not 2 * l >= ctx.tree.n + 2:
        out.violations.append(_witness(ctx, leaves=l))


def _check_c4(ctx, out):
    mu, mu_prime = ctx.stats.mu, ctx.stats.mu_prime
    if mu > mu_prime:
        out.violations.append(_witness(ctx, mu=mu, mu_prime=mu_prime))
    elif mu == mu_prime:
        out.equality_cases.append(_witness(ctx, mu=mu))


def _check_c5(ctx, out):
    twigs = len(classify_vertices(ctx.tree).twigs)
    bound = Fraction(3 * ctx.tree.n, 4) - Fraction(2 * twigs, 5)
    if not ctx.stats.mu < bound:
        out.violations.append(_witness(ctx, mu=ctx.stats.mu, twigs=twigs, bound=bound))


def _check_c7(ctx, out):
    total = ctx.stats.subtree_count
    for v in ctx.internal:
        alpha = ctx.stats.containment[v]
        if 2 * alpha < total:
            out.violations.append(_witness(ctx, vertex=v, alpha=str(alpha),
                                           subtree_count=str(total)))
        elif 2 * alpha == total:
            out.equality_cases.append(_witness(ctx, vertex=v))


def _check_c8(ctx, out):
    leaf_count = ctx.tree.n - len(ctx.internal)
    floor = ctx.tree.n - leaf_count - 1 + 2 ** leaf_count
    for v in ctx.internal:
        alpha = ctx.stats.containment[v]
        if alpha < floor:
            out.violations.append(_witness(ctx, vertex=v, alpha=str(alpha),
                                           floor=str(floor)))
        elif alpha == floor:
            out.equality_cases.append(_witness(ctx, vertex=v))


def _check_c9(ctx, out):
    v = good_anchor(ctx.tree, ctx.stats)
    if v is None:
        out.violations.append(_witness(ctx, anchor=None))
        return
    gap = ctx.stats.mu - vertex_view(ctx.tree, v).lam
    if not abs(gap) < 2:
        out.violations.append(_witness(ctx, anchor=v, gap=gap))


def _check_lambda_bound(ctx, out, bounds):
    """lambda(T, v) >= bounds[v] at every internal root v."""
    for v in ctx.internal:
        lam = ctx.views[v].lam
        bound = bounds[v]
        if lam < bound:
            out.violations.append(_witness(ctx, vertex=v, lam=lam, bound=bound))
        elif lam == bound:
            out.equality_cases.append(_witness(ctx, vertex=v, lam=lam))


def _check_c10(ctx, out):
    # k = |internal| at every internal root, so one bound serves them all
    bound = simple_lower_bound(ctx.tree, ctx.internal[0])
    _check_lambda_bound(ctx, out, [bound] * ctx.tree.n)


def _check_c11(ctx, out):
    _check_lambda_bound(ctx, out, rank_lower_bounds(ctx.tree))


def _check_c12(ctx, out):
    d = ctx.stats.density
    if not Fraction(1, 2) < d < Fraction(3, 4):
        out.violations.append(_witness(ctx, density=d))


_series_reduced = attrgetter("series_reduced")
_has_internal = attrgetter("internal")  # true when the list is not empty


def _n_at_least_4(ctx):
    return ctx.tree.n >= 4


def _series_reduced_n30(ctx):
    return ctx.series_reduced and ctx.tree.n >= 30


# check id -> (does it apply to this tree, the check); a tree counts as
# applicable, and the check runs on it, exactly when the first is true
_TREE_CHECKS = {
    "C1": (_n_at_least_4, _check_c1),
    "C2": (_series_reduced, _check_c2),
    "C3": (_series_reduced, _check_c3),
    "C4": (_n_at_least_4, _check_c4),
    "C5": (_series_reduced, _check_c5),
    "C7": (_series_reduced, _check_c7),
    "C8": (_has_internal, _check_c8),
    "C9": (_series_reduced_n30, _check_c9),
    "C10": (_series_reduced, _check_c10),
    "C11": (_series_reduced, _check_c11),
    "C12": (_series_reduced, _check_c12),
}


def check_stpoly(a_max: int = STPOLY_MAX) -> CheckOutcome:
    """(2^a + a 2^(a-1)) / (2^a + 1) <= (28a + 16)/45 for integer a in [2, a_max]."""
    if a_max < 2:
        raise ValueError("a_max must be >= 2")
    out = CheckOutcome(check="C6")
    for a in range(2, a_max + 1):
        out.trees_examined += 1
        out.trees_applicable += 1
        lhs = Fraction(2 ** a + a * 2 ** (a - 1), 2 ** a + 1)
        rhs = Fraction(28 * a + 16, 45)
        if lhs > rhs:
            out.violations.append({"a": a, "lhs": format_ratio(lhs), "rhs": format_ratio(rhs)})
        elif lhs == rhs:
            out.equality_cases.append({"a": a, "value": format_ratio(lhs)})
    return out


def _sort_key(record: dict):
    return (record.get("n", 0), record.get("canonical_form", []),
            record.get("vertex", -1), record.get("a", -1))


def run_checks(trees: Iterable[Tree], checks: Sequence[str],
               config: Optional[dict] = None) -> VerificationReport:
    """Evaluate the requested checks over a tree stream; a repeated id runs once.

    Rooted checks try every internal vertex as root.  The report is
    deterministic: witnesses are ordered by (n, canonical form).
    """
    start = time.monotonic()
    checks = list(dict.fromkeys(checks))
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown check ids: {unknown}")
    outcomes = {c: CheckOutcome(check=c) for c in checks}
    tree_checks = [(outcomes[c], *_TREE_CHECKS[c]) for c in checks if c != "C6"]
    if tree_checks:
        for tree in trees:
            ctx = _TreeContext(tree)
            for out, applies, check in tree_checks:
                out.trees_examined += 1
                if applies(ctx):
                    out.trees_applicable += 1
                    check(ctx, out)
    if "C6" in outcomes:
        outcomes["C6"] = check_stpoly()
    for o in outcomes.values():
        o.violations.sort(key=_sort_key)
        o.equality_cases.sort(key=_sort_key)
    ordered = [outcomes[c] for c in ALL_CHECKS if c in outcomes]
    return VerificationReport(
        config=dict(config or {}),
        outcomes=ordered,
        elapsed_seconds=time.monotonic() - start,
    )
