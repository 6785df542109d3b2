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

Every comparison is exact; equality detection never uses a tolerance.  A
tree's `dp.Tables` is the one owner of N(T), the order sum S, alpha(v) and
sigma(v): its down pass from vertex 0 gives N and S, and only C1 and C7-C11,
which read alpha(v), reroot, carrying sigma(v) only for C9, C10 or C11.
mu = S/N, D = S/(nN), mu' = (S-l)/(N-l+1) and lambda = sigma/alpha meet their
bounds by integer cross-multiplication (lambda only where the integer parts
tie); only a witness builds a Fraction.
C10's bound (5n+k+4)/10 is the same at every internal root (k is the
internal count), and `ranks.rank_bound_numerators` gives C11's bound t/d at
every root in one rerooting pass, so C10 and C11 are linear per tree.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, List, Optional, Sequence

from .dp import Tables, good_anchor
from .dp import vertex_view  # noqa: F401  perfbench/test_perfbench.py reads verify.vertex_view
from .enumeration import canonical_form
from .rationals import _int_text, format_ratio
from .ranks import rank_bound_numerators
from .tree import Tree, classify_vertices, is_series_reduced

ALL_CHECKS = ("C1", "C2", "C3", "C4", "C5", "C6",
              "C7", "C8", "C9", "C10", "C11", "C12")

STPOLY_MAX = 64


class _TreeContext(Tables):
    """A tree's `dp.Tables`, its internal vertices and, for a witness, its canonical form."""

    def __init__(self, tree: Tree, sigma: bool):
        self.tree, self.sigma = tree, sigma  # sigma: whether a requested check reads it
        self.internal = [v for v, a in enumerate(tree.adj) if len(a) >= 2]  # most checks read it

    @cached_property
    def code(self):
        return canonical_form(self.tree)


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


@dataclass
class VerificationReport:
    config: dict
    outcomes: List[CheckOutcome]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_json(self) -> str:
        body = {
            "config": self.config,
            "checks": [asdict(o) for o in self.outcomes],
            "passed": self.passed,
        }
        # wall time kept out of the body so reruns are byte-identical
        return json.dumps({"report": body, "elapsed_seconds": self.elapsed_seconds},
                          sort_keys=True, indent=2)

    def summary_lines(self) -> List[str]:
        lines = ["check   examined  applicable  violations  equalities  status"]
        for o in self.outcomes:
            status = "pass" if o.passed else "FAIL"
            lines.append(f"{o.check:<8}{o.trees_examined:>8}{o.trees_applicable:>12}"
                         f"{len(o.violations):>12}{len(o.equality_cases):>12}  {status}")
        return lines


def _witness(ctx: _TreeContext, **values) -> dict:
    out = {"n": ctx.tree.n, "canonical_form": list(ctx.code)}
    for k, v in values.items():
        v = Fraction(*v) if isinstance(v, tuple) else v  # a (numerator, denominator) pair
        out[k] = format_ratio(v) if isinstance(v, Fraction) else v
    return out


def _check_c1(ctx, out):
    alpha, total = ctx.sums[0], ctx.totals[0]
    for v, a in enumerate(ctx.tree.adj):
        if len(a) == 1 and not 2 * alpha[v] < total:
            out.violations.append(_witness(ctx, vertex=v, alpha=_int_text(alpha[v]),
                                           subtree_count=_int_text(total)))


def _check_c2(ctx, out):
    n, (total, s) = ctx.tree.n, ctx.totals
    if not 4 * s < (3 * n - 2) * total:
        out.violations.append(_witness(ctx, mu=(s, total), bound=(3 * n - 2, 4)))


def _check_c3(ctx, out):
    l = ctx.tree.n - len(ctx.internal)
    if not 2 * l >= ctx.tree.n + 2:
        out.violations.append(_witness(ctx, leaves=l))


def _check_c4(ctx, out):
    # mu' = (S - l)/(N - l + 1): S' adds the empty set and drops the leaf singletons
    (total, s), l = ctx.totals, ctx.tree.n - len(ctx.internal)
    lhs, rhs = s * (total - l + 1), (s - l) * total
    if lhs > rhs:
        out.violations.append(_witness(ctx, mu=(s, total), mu_prime=(s - l, total - l + 1)))
    elif lhs == rhs:
        out.equality_cases.append(_witness(ctx, mu=(s, total)))


def _check_c5(ctx, out):
    twigs = len(classify_vertices(ctx.tree).twigs)
    n, (total, s) = ctx.tree.n, ctx.totals
    # 3n/4 - 2t/5 = (15n - 8t)/20
    if not 20 * s < (15 * n - 8 * twigs) * total:
        out.violations.append(_witness(ctx, mu=(s, total), twigs=twigs,
                                       bound=(15 * n - 8 * twigs, 20)))


def _check_alpha_floor(ctx, out, bound, exact, name, count):
    """alpha(T, v) >= bound at each internal root v, met only if `exact`; witnesses show `count`."""
    alpha = ctx.sums[0]
    for v in ctx.internal:
        if alpha[v] < bound:
            out.violations.append(_witness(ctx, vertex=v, alpha=_int_text(alpha[v]),
                                           **{name: _int_text(count)}))
        elif alpha[v] == bound and exact:
            out.equality_cases.append(_witness(ctx, vertex=v))


def _check_c7(ctx, out):
    # 2 alpha >= N is alpha >= ceil(N/2), and 2 alpha == N needs N even
    total = ctx.totals[0]
    _check_alpha_floor(ctx, out, -(-total // 2), total % 2 == 0, "subtree_count", total)


def _check_c8(ctx, out):
    leaf_count = ctx.tree.n - len(ctx.internal)
    floor = ctx.tree.n - leaf_count - 1 + 2 ** leaf_count
    _check_alpha_floor(ctx, out, floor, True, "floor", floor)


def _check_c9(ctx, out):
    (alpha, sigma), (total, s) = ctx.sums, ctx.totals
    v = good_anchor(ctx.tree, alpha, total)
    if v is None:
        out.violations.append(_witness(ctx, anchor=None))
        return
    # mu - lambda(v) = (S alpha_v - sigma_v N) / (N alpha_v)
    gap, d = s * alpha[v] - sigma[v] * total, total * alpha[v]
    if not abs(gap) < 2 * d:
        out.violations.append(_witness(ctx, anchor=v, gap=(gap, d)))


def _check_lambda_bound(ctx, out, numerators, d):
    """lambda(T, v) = sigma/alpha >= numerators[v]/d at every internal root v.

    Unequal integer parts decide it; only equal ones need the cross-multiplication.
    """
    alpha, sigma = ctx.sums
    for v in ctx.internal:
        lhs, rhs = sigma[v] // alpha[v], numerators[v] // d
        if lhs == rhs:
            lhs, rhs = sigma[v] * d, numerators[v] * alpha[v]
        if lhs < rhs:
            out.violations.append(_witness(ctx, vertex=v, lam=(sigma[v], alpha[v]),
                                           bound=(numerators[v], d)))
        elif lhs == rhs:
            out.equality_cases.append(_witness(ctx, vertex=v, lam=(sigma[v], alpha[v])))


def _check_c10(ctx, out):
    # (n+1)/2 + (k-1)/10 = (5n+k+4)/10 with k = |internal| at every internal root
    n = ctx.tree.n
    _check_lambda_bound(ctx, out, [5 * n + len(ctx.internal) + 4] * n, 10)


def _check_c11(ctx, out):
    _check_lambda_bound(ctx, out, *rank_bound_numerators(ctx.tree))


def _check_c12(ctx, out):
    # D = S/(nN)
    nn, s = ctx.tree.n * ctx.totals[0], ctx.totals[1]
    if not (nn < 2 * s and 4 * s < 3 * nn):
        out.violations.append(_witness(ctx, density=(s, nn)))


# check id -> (least n, series-reduced trees only, reads sigma, the check); a
# tree counts as applicable, and the check runs on it, exactly when it meets
# both rules.  A series-reduced tree has n >= 4, and n >= 3 an internal vertex.
_TREE_CHECKS = {
    "C1": (4, False, False, _check_c1),
    "C2": (4, True, False, _check_c2),
    "C3": (4, True, False, _check_c3),
    "C4": (4, False, False, _check_c4),
    "C5": (4, True, False, _check_c5),
    "C7": (4, True, False, _check_c7),
    "C8": (3, False, False, _check_c8),
    "C9": (30, True, True, _check_c9),
    "C10": (4, True, True, _check_c10),
    "C11": (4, True, True, _check_c11),
    "C12": (4, True, False, _check_c12),
}


def check_stpoly() -> CheckOutcome:
    """(2^a + a 2^(a-1)) / (2^a + 1) <= (28a + 16)/45 for integer a in [2, STPOLY_MAX]."""
    out = CheckOutcome(check="C6")
    out.trees_examined = out.trees_applicable = STPOLY_MAX - 1
    for a in range(2, STPOLY_MAX + 1):
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
    rows = [(outcomes[c], *_TREE_CHECKS[c]) for c in checks if c != "C6"]
    any_reduced_only, sigma = (any(row[i] for row in rows) for i in (2, 3))
    if rows:
        for tree in trees:
            ctx = _TreeContext(tree, sigma)
            reduced = any_reduced_only and is_series_reduced(tree)  # once, and only if read
            for out, least, reduced_only, _, check in rows:
                out.trees_examined += 1
                if tree.n >= least and (reduced or not reduced_only):
                    out.trees_applicable += 1
                    check(ctx, out)
    if "C6" in outcomes:
        outcomes["C6"] = check_stpoly()
    for o in outcomes.values():
        o.violations.sort(key=_sort_key)
        o.equality_cases.sort(key=_sort_key)
    ordered = [outcomes[c] for c in ALL_CHECKS if c in outcomes]
    return VerificationReport(dict(config or {}), ordered, time.monotonic() - start)
