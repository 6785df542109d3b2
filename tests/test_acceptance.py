"""Acceptance suite: one pass/fail line per criterion, exact tolerances."""

import time
from fractions import Fraction

import pytest

from subtree_density.dp import edge_counts, global_stats, good_anchor, vertex_view
from subtree_density.enumeration import (
    ENUM_CAP,
    canonical_form,
    enumerate_trees,
    sample_series_reduced,
)
from subtree_density.families import FamilySpec, density_sweep, make_family
from subtree_density.oracle import oracle_tally
from subtree_density.ranks import c_sequence
from subtree_density.tree import Tree, diameter
from subtree_density.verify import run_checks

from test_tree import path
from test_verify import outcome

FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11,
                    8: 23, 9: 47, 10: 106, 11: 235, 12: 551}

_SR_CACHE = {}


def series_reduced_trees(lo, hi):
    for n in range(lo, hi + 1):
        if n not in _SR_CACHE:
            _SR_CACHE[n] = list(enumerate_trees(n, series_reduced=True))
        yield from _SR_CACHE[n]


def report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_path_formula():
    start = time.monotonic()
    for n in range(1, 201):
        assert global_stats(path(n)).mu == Fraction(n + 2, 3)
    elapsed = time.monotonic() - start
    report(1, elapsed < 5, f"mu(P_n) = (n+2)/3 for n in [1, 200] ({elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for n in range(1, 13):
        count = 0
        for t in enumerate_trees(n):
            count += 1
            total, alpha, vsum, e_alpha = oracle_tally(t)
            order_sum = sum(alpha)
            stats = global_stats(t)
            assert stats.subtree_count == total
            assert stats.order_sum == order_sum
            assert stats.containment == tuple(alpha)
            assert stats.mu == Fraction(order_sum, total)
            for v in range(t.n):
                view = vertex_view(t, v)
                assert view.alpha == alpha[v]
                assert view.lam == Fraction(vsum[v], alpha[v])
            for e in t.edges:
                assert edge_counts(t, e) == (e_alpha[e], total - e_alpha[e])
            checked += 1
        assert count == FREE_TREE_COUNTS[n]
    elapsed = time.monotonic() - start
    report(2, elapsed < 120,
           f"DP matches the brute-force oracle on {checked} trees, n <= 12 ({elapsed:.1f}s)")


# The six-vertex double star: two adjacent degree-3 vertices, each with two
# leaves.  It has 4 leaf singletons, 4 + 4 subtrees holding one centre but
# not the other, and 16 holding both: 28 subtrees of total order 84, so
# mu = 3 and D = 1/2 exactly.  The strict window 1/2 < D fails there.
DOUBLE_STAR_FORM = (0, 1, 2, 2, 1, 1)
DOUBLE_STAR_C12 = [{"n": 6, "canonical_form": list(DOUBLE_STAR_FORM), "density": "1/2"}]


def test_criterion_3_density_window():
    half, three_quarters = Fraction(1, 2), Fraction(3, 4)
    outside = []
    at_half = []
    for t in series_reduced_trees(4, ENUM_CAP):
        d = global_stats(t).density
        if not half <= d < three_quarters:
            outside.append((t.n, t.edges, d))
        if d == half:
            at_half.append(t)
    ok = not outside
    ok = ok and [canonical_form(t) for t in at_half] == [DOUBLE_STAR_FORM]
    ok = ok and all((total, sum(alpha)) == (28, 84)
                    for total, alpha, _, _ in map(oracle_tally, at_half))
    detail = (f"1/2 <= D(T) < 3/4 for all series-reduced trees, 4 <= n <= {ENUM_CAP}; "
              "D = 1/2 only at the six-vertex double star (28 subtrees, order sum 84)")
    if outside:
        detail += f"; outside the window: {outside}"
    if not ok:
        detail += f"; D = 1/2 at: {[canonical_form(t) for t in at_half]}"
    report(3, ok, detail)


def test_criterion_4_inequality_suite():
    start = time.monotonic()

    def all_trees(lo, hi):
        for n in range(lo, hi + 1):
            yield from enumerate_trees(n)

    general = run_checks(all_trees(4, 14), ["C1", "C4", "C6"])
    sr = run_checks(series_reduced_trees(4, 16),
                    ["C2", "C3", "C5", "C7", "C8", "C10", "C11", "C12"])
    failed = [o.check for r in (general, sr) for o in r.outcomes
              if not o.passed and o.check != "C12"]
    ok = not failed
    c12 = outcome(sr, "C12")
    ok = ok and c12.violations == DOUBLE_STAR_C12
    c4 = outcome(general, "C4")
    ok = ok and [e["canonical_form"] for e in c4.equality_cases] == [list(canonical_form(path(4)))]
    c6 = outcome(general, "C6")
    ok = ok and [e["a"] for e in c6.equality_cases] == [2, 3]
    elapsed = time.monotonic() - start
    detail = (f"C4 equality = {{P4}}, stpoly equality = {{2, 3}}, "
              f"C12 witness = {{double star}} ({elapsed:.1f}s)")
    if failed:
        detail = f"failing checks: {failed}; " + detail
    else:
        detail = "C1-C8, C10, C11 hold; " + detail
    if c12.violations != DOUBLE_STAR_C12:
        detail += f"; C12 violations: {c12.violations}"
    report(4, ok and elapsed < 600, detail)


def test_criterion_5_extremal_equalities():
    from subtree_density.dp import rooted_counts
    ok = True
    for n in range(2, 21):
        for l in range(1, n):
            t = make_family(FamilySpec("leafy_path", {"n": n, "l": l}))
            ok = ok and rooted_counts(t, 0).alpha_root == n - l - 1 + 2 ** l
    for m in range(0, 40):
        for k in range(0, 14):
            n = 1 + m + 3 * k
            if m + k < 2 or n > 40:
                continue
            t = make_family(FamilySpec("broom", {"m": m, "k": k}))
            # non-leaf count is k + 1 (the root plus the k interior children)
            ok = ok and vertex_view(t, 0).lam == Fraction(n + 1, 2) + Fraction(k, 10)
    report(5, ok, "leafy_path and broom attain their bounds with exact equality")


def test_criterion_6_coefficient_table():
    cs = c_sequence(65)
    ok = cs[:6] == [Fraction(1, 2), Fraction(3, 5), Fraction(69, 100),
                    Fraction(1471, 1900), Fraction(4819, 5700), Fraction(70783, 78660)]
    for j in range(65):
        ok = ok and 1 - Fraction(1 + Fraction(3 * j, 2), 2 ** (j + 1) + j) <= cs[j]
        ok = ok and cs[j] <= 1 - Fraction(1 + j, 2 ** (j + 1) + j)
    ok = ok and all(a <= b for a, b in zip(cs, cs[1:]))
    report(6, ok, "first six c_j exact; bounds and monotonicity hold through j = 64")


def test_criterion_7_anchor_at_scale():
    start = time.monotonic()
    ok = True
    cases = 0
    for i, n_target in enumerate((30, 60, 120)):
        count = 167 if i else 166
        for seed in range(count):
            t = sample_series_reduced(n_target, seed=1000 * n_target + seed)
            stats = global_stats(t)
            v = good_anchor(t, stats.containment, stats.subtree_count)
            if v is None or not abs(stats.mu - vertex_view(t, v).lam) < 2:
                ok = False
            cases += 1
    elapsed = time.monotonic() - start
    report(7, ok and cases == 500 and elapsed < 300,
           f"anchor found with |mu - lambda| < 2 on all {cases} samples ({elapsed:.1f}s)")


def test_criterion_8a_star_sweep():
    pts = density_sweep(FamilySpec("star", {}), "m", range(1, 201))
    ok = all(Fraction(a.leaves, a.n) < Fraction(b.leaves, b.n)
             for a, b in zip(pts[1:], pts[2:]))
    ok = ok and abs(pts[-1].density - Fraction(1, 2)) < Fraction(1, 100)
    report("8a", ok, "star sweep: leaf fraction -> 1 and |D - 1/2| < 0.01 at m = 200")


def test_criterion_8b_starfish_radius_sweep():
    pts = density_sweep(FamilySpec("starfish", {"k": 3}), "r", range(1, 61))
    ok = all(a.density < b.density for a, b in zip(pts, pts[1:]))
    ok = ok and pts[-1].density > Fraction(72, 100)
    ok = ok and Fraction(pts[-1].twigs, pts[-1].n) < Fraction(2, 100)
    report("8b", ok, "starfish k=3: D increasing, D > 0.72 and twig fraction < 0.02 at r = 60")


def test_criterion_8c_starfish_diagonal():
    rows = []
    for i in range(3, 31):
        t = make_family(FamilySpec("starfish", {"k": i, "r": i}))
        rows.append((Fraction(diameter(t), t.n), global_stats(t).density))
    ok = all(a[0] > b[0] for a, b in zip(rows, rows[1:]))
    ok = ok and all(a[1] < b[1] for a, b in zip(rows, rows[1:]))
    ok = ok and rows[-1][1] > Fraction(70, 100)
    report("8c", ok, "diagonal starfish: diameter/n decreasing while D rises past 0.70")
