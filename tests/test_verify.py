import decimal
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subtree_density import tree as tree_module, verify
from subtree_density import dp
from subtree_density.dp import SubtreeStats, global_stats, good_anchor, vertex_sums, vertex_view
from subtree_density.enumeration import canonical_form, enumerate_trees, sample_series_reduced
from subtree_density.ranks import rank_bound_numerators, rank_lower_bound, simple_lower_bound
from subtree_density.rationals import format_ratio
from subtree_density.tree import Tree, classify_vertices, is_series_reduced
from subtree_density.verify import ALL_CHECKS, check_stpoly, run_checks

from test_tree import path, star


def enum_range(lo, hi, series_reduced=False):
    for n in range(lo, hi + 1):
        yield from enumerate_trees(n, series_reduced=series_reduced)


def outcome(report, check):
    return next(o for o in report.outcomes if o.check == check)


TREE_CHECKS = [c for c in ALL_CHECKS if c != "C6"]
VERTEX_CHECKS = ("C1", "C7", "C8", "C9", "C10", "C11")  # read alpha or sigma at each vertex


def inject_tables(monkeypatch, sums, totals=None):
    """Every tree's checks read `sums` as (alpha, sigma), and `totals`, if given, as (N, S)."""
    monkeypatch.setattr(verify._TreeContext, "sums", property(lambda ctx: sums))
    if totals is not None:
        monkeypatch.setattr(verify._TreeContext, "totals", property(lambda ctx: totals))


class TestStpoly:
    def test_no_violations_to_64(self):
        out = check_stpoly()
        assert out.passed
        assert [e["a"] for e in out.equality_cases] == [2, 3]

    def test_a2_value(self):
        out = check_stpoly()
        assert out.equality_cases[0]["value"] == "8/5"


class TestRunChecks:
    def test_c1_small_range(self):
        report = run_checks(enum_range(4, 10), ["C1"])
        out = outcome(report, "C1")
        assert out.passed
        assert out.trees_examined == 106 + 47 + 23 + 11 + 6 + 3 + 2
        assert out.trees_applicable == out.trees_examined

    def test_c4_equality_is_p4(self):
        report = run_checks(enum_range(4, 10), ["C4"])
        out = outcome(report, "C4")
        assert out.passed
        assert len(out.equality_cases) == 1
        assert out.equality_cases[0]["canonical_form"] == list(canonical_form(path(4)))

    def test_c4_series_reduced_has_no_equality(self):
        report = run_checks(enum_range(4, 10, series_reduced=True), ["C4"])
        out = outcome(report, "C4")
        assert out.passed and not out.equality_cases

    def test_series_reduced_suite(self):
        trees = list(enum_range(4, 11, series_reduced=True))
        report = run_checks(trees, ["C2", "C3", "C5", "C7", "C10", "C11"])
        assert report.passed
        for c in ("C2", "C3", "C5"):
            assert outcome(report, c).trees_applicable == len(trees)

    def test_c12_flags_the_density_boundary_tree(self):
        # the double star (two adjacent degree-3 vertices, two leaves each)
        # has density exactly 1/2, the unique boundary case for n <= 11;
        # the strict-window check must report it
        report = run_checks(enum_range(4, 11, series_reduced=True), ["C12"])
        out = outcome(report, "C12")
        assert len(out.violations) == 1
        v = out.violations[0]
        assert v["n"] == 6 and v["density"] == "1/2"

    def test_c8_every_internal_root(self):
        report = run_checks(enum_range(2, 10), ["C8"])
        assert outcome(report, "C8").passed

    def test_c9_on_samples(self):
        trees = [sample_series_reduced(30, seed) for seed in range(10)]
        report = run_checks(trees, ["C9"])
        out = outcome(report, "C9")
        assert out.passed and out.trees_applicable == 10

    def test_c6_inside_run(self):
        report = run_checks([], ["C6"])
        assert outcome(report, "C6").passed

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks([], ["C99"])

    def test_violation_reported(self):
        # P4 is not series-reduced, so feed it to C1 with a doctored claim:
        # a path of 3 vertices is below the n >= 4 cutoff and inapplicable
        report = run_checks([path(3)], ["C1"])
        out = outcome(report, "C1")
        assert out.trees_examined == 1 and out.trees_applicable == 0

    def test_count_witnesses_beyond_int_digit_limit(self, monkeypatch):
        # N(star(15000)) and the C8 floor 2**15000 have 4,516 digits, past the
        # default int-to-str limit; doctored sums make leaf 1 a C1 witness and
        # the centre a C7 and a C8 one
        t = star(15000)
        alpha, sigma, total = vertex_sums(t)
        inject_tables(monkeypatch, ([1, total] + alpha[2:], sigma))
        report = run_checks([t], ["C1", "C7", "C8"])
        count = str(decimal.Decimal(total))  # Decimal(int) is exact and not bound by the limit
        expected = {"C1": {"vertex": 1, "alpha": count, "subtree_count": count},
                    "C7": {"vertex": 0, "alpha": "1", "subtree_count": count},
                    "C8": {"vertex": 0, "alpha": "1", "floor": str(decimal.Decimal(2 ** 15000))}}
        for check, fields in expected.items():
            (witness,) = outcome(report, check).violations
            assert {k: witness[k] for k in fields} == fields

    def test_report_determinism(self):
        def go():
            return run_checks(enum_range(4, 8), ["C1", "C4", "C8"],
                              config={"n": "4..8"}).to_json()
        a, b = json.loads(go()), json.loads(go())
        assert a["report"] == b["report"]

    def test_summary_lines(self):
        report = run_checks(enum_range(4, 6), ["C1", "C12"])
        lines = report.summary_lines()
        assert len(lines) == 3
        assert lines[1].startswith("C1") and lines[1].rstrip().endswith("pass")

    def test_repeated_ids_run_once(self):
        trees = list(enum_range(4, 8))
        for check in ("C1", "C12"):
            once = json.loads(run_checks(trees, [check]).to_json())["report"]
            twice = json.loads(run_checks(trees, [check, check]).to_json())["report"]
            assert twice == once
        assert outcome(run_checks(trees, ["C1", "C1"]), "C1").trees_examined == len(trees)

    def test_applicability_per_check(self):
        trees = list(enum_range(1, 9)) + [path(30), star(28), star(29)]
        trees += [sample_series_reduced(30, seed) for seed in range(3)]
        expected = {
            "n >= 4": sum(t.n >= 4 for t in trees),
            "series-reduced": sum(is_series_reduced(t) for t in trees),
            "internal vertex": sum(t.n >= 3 for t in trees),
            "series-reduced, n >= 30": sum(is_series_reduced(t) and t.n >= 30
                                           for t in trees),
        }
        rule = {"C1": "n >= 4", "C4": "n >= 4", "C8": "internal vertex",
                "C9": "series-reduced, n >= 30"}
        report = run_checks(trees, TREE_CHECKS)
        for c in TREE_CHECKS:
            out = outcome(report, c)
            assert out.trees_examined == len(trees)
            assert out.trees_applicable == expected[rule.get(c, "series-reduced")], c

    def test_all_check_ids_known(self):
        report = run_checks(enum_range(4, 5), list(ALL_CHECKS))
        assert [o.check for o in report.outcomes] == list(ALL_CHECKS)


class TestRootedChecksCost:
    """One down pass per tree gives N and S to every check, and only C1 and
    C7-C11 reroot from it, once per tree, carrying sigma only for C9-C11: a
    tree is oriented once, when it is built, not once per check, per pass or
    per root."""

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        original, calls = getattr(module, name), []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "subtree_density" and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    @pytest.mark.parametrize("n", [60, 300])
    def test_orient_calls_bounded(self, monkeypatch, n):
        trees = [sample_series_reduced(n, seed) for seed in range(3)]
        calls = self._count_calls(monkeypatch, tree_module, "orient")
        second_passes = [self._count_calls(monkeypatch, dp, name)
                         for name in ("global_stats", "vertex_view")]
        for t in trees:
            calls.clear()
            report = run_checks([Tree(t.n, t.edges)], TREE_CHECKS)
            assert outcome(report, "C11").trees_applicable == 1
            assert len(calls) == 1
        assert second_passes == [[], []]

    @pytest.mark.parametrize("checks", [("C2", "C3", "C4", "C5", "C12"), TREE_CHECKS] +
                             [(c,) for c in VERTEX_CHECKS], ids=",".join)
    def test_one_down_pass_and_rerooting_only_for_vertex_checks(self, monkeypatch, checks):
        # every check applies to each tree: series-reduced, n >= 30
        trees = [sample_series_reduced(n, seed) for n, seed in ((30, 0), (45, 1), (80, 2))]
        trees += [star(40), caterpillar(20)]
        down = self._count_calls(monkeypatch, dp, "_down_pass")
        rerooted = self._count_calls(monkeypatch, dp, "_top_down")
        report = run_checks(trees, checks)
        assert all(o.trees_applicable == len(trees) for o in report.outcomes)
        assert [args[0] for args in down] == trees
        assert len(rerooted) == (len(trees) if set(checks) & set(VERTEX_CHECKS) else 0)
        # down_sum only goes to the rerooting pass when a check reads sigma
        reads_sigma = bool(set(checks) & {"C9", "C10", "C11"})
        assert [args[3] is not None for args in rerooted] == [reads_sigma] * len(rerooted)

    def test_fraction_constructions_bounded(self, monkeypatch):
        # a Fraction per vertex would be about 2n; without a witness no check builds one
        trees = [sample_series_reduced(300, seed) for seed in range(3)]
        original, made = Fraction.__new__, []

        def counted(cls, *args, **kwargs):
            made.append(cls)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        for t in trees:
            made.clear()
            report = run_checks([t], TREE_CHECKS)
            assert report.passed and not any(o.equality_cases for o in report.outcomes)
            assert outcome(report, "C9").trees_applicable == 1
            assert made == []


def caterpillar(spine):
    """Series-reduced caterpillar: a spine path with one leaf at each spine
    vertex and one more leaf at each end, 2 * spine + 2 vertices."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    return Tree(2 * spine + 2, edges + [(0, 2 * spine), (spine - 1, 2 * spine + 1)])


def _lambda_reference(t, bound):
    """C10 or C11 from Fractions: (violations, equality cases) over the internal roots."""
    violations, equalities = [], []
    for v in range(t.n):
        if t.degree(v) < 2:
            continue
        lam, b = vertex_view(t, v).lam, bound(t, v)
        if lam < b:
            violations.append((v, format_ratio(lam), format_ratio(b)))
        elif lam == b:
            equalities.append((v, format_ratio(lam)))
    return violations, equalities


def _lambda_outcomes(t):
    report = run_checks([t], ["C10", "C11"])
    return {c: ([(w["vertex"], w["lam"], w["bound"]) for w in outcome(report, c).violations],
                [(w["vertex"], w["lam"]) for w in outcome(report, c).equality_cases])
            for c in ("C10", "C11")}


def _assert_matches_reference(t):
    assert _lambda_outcomes(t) == {"C10": _lambda_reference(t, simple_lower_bound),
                                   "C11": _lambda_reference(t, rank_lower_bound)}


class TestLambdaChecks:
    """C10 and C11 compare lambda with their bounds in integers."""

    @given(st.integers(4, 120), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_reference_sampled(self, n, seed):
        _assert_matches_reference(sample_series_reduced(n, seed))

    def test_matches_fraction_reference_exhaustive(self):
        for t in enum_range(4, 12, series_reduced=True):
            _assert_matches_reference(t)

    @pytest.mark.parametrize("m", range(3, 7))
    def test_star_centre_is_an_equality_case(self, m):
        # lambda(K_{1,m}, centre) = 1 + m/2, which both bounds attain
        lam = format_ratio(1 + Fraction(m, 2))
        assert _lambda_outcomes(star(m)) == {"C10": ([], [(0, lam)]), "C11": ([], [(0, lam)])}

    def test_violation_witness_is_reduced_exactly(self, monkeypatch):
        # at the centre of star(5), alpha = 32 and sigma = 112, so lambda = 7/2,
        # which C10's (35, 10) and C11's unreduced (t, d) both equal; tripling
        # alpha and sigma there leaves lambda unreduced too
        t = star(5)
        alpha, sigma, total = vertex_sums(t)
        assert (alpha[0], sigma[0]) == (32, 112)
        for sigma0, expected in ((111, ([(0, "111/32", "7/2")], [])), (112, ([], [(0, "7/2")]))):
            inject_tables(monkeypatch, ([96] + alpha[1:], [3 * sigma0] + sigma[1:]))
            assert _lambda_outcomes(t) == {"C10": expected, "C11": expected}

    @pytest.mark.parametrize("sigma0, expected, products", [
        (95, ([(0, "95/32", "7/2")], []), 0),  # integer parts 2 < 3 decide a violation
        (160, ([], []), 0),  # integer parts 5 > 3: no witness
        (111, ([(0, "111/32", "7/2")], []), 4),  # parts 3 = 3: cross-multiplied,
        (112, ([], [(0, "7/2")]), 4),  # sigma*d and t*alpha in each of C10 and C11
    ])
    def test_integer_parts_decide_before_cross_multiplying(self, monkeypatch, sigma0,
                                                             expected, products):
        # the centre of star(5) as above, its alpha and sigma tripled; the
        # bound 7/2 has integer part 3
        seen = []

        class Counted(int):
            def __mul__(self, other):
                seen.append(other)
                return int(self) * other

            __rmul__ = __mul__

        t = star(5)
        alpha, sigma, _ = vertex_sums(t)
        inject_tables(monkeypatch, ([Counted(96)] + alpha[1:], [Counted(3 * sigma0)] + sigma[1:]))
        assert _lambda_outcomes(t) == {"C10": expected, "C11": expected}
        assert len(seen) == products

    def test_deep_caterpillar(self):
        t = caterpillar(300)
        assert t.n == 602 and is_series_reduced(t)
        numerators, d = rank_bound_numerators(t)
        for r in (0, 150, 299):  # both spine ends and the middle
            assert Fraction(numerators[r], d) == rank_lower_bound(t, r)
        report = run_checks([t], ["C10", "C11"])
        assert report.passed and outcome(report, "C11").trees_applicable == 1


MEAN_CHECKS = ("C2", "C4", "C5", "C9", "C12")


def _mean_reference(t, stats=None, lam=None):
    """C2, C4, C5, C9 and C12 in Fractions, from global_stats and vertex_view
    unless given: check id -> (violations, equality cases), each witness
    without its n and canonical form."""
    if stats is None:
        stats, lam = global_stats(t), lambda v: vertex_view(t, v).lam
    n, out = t.n, {c: ([], []) for c in MEAN_CHECKS}
    mu = format_ratio(stats.mu)
    if n >= 4:
        if stats.mu > stats.mu_prime:
            out["C4"][0].append({"mu": mu, "mu_prime": format_ratio(stats.mu_prime)})
        elif stats.mu == stats.mu_prime:
            out["C4"][1].append({"mu": mu})
    if not is_series_reduced(t):
        return out
    bound = Fraction(3 * n - 2, 4)
    if not stats.mu < bound:
        out["C2"][0].append({"mu": mu, "bound": format_ratio(bound)})
    twigs = len(classify_vertices(t).twigs)
    bound = Fraction(3 * n, 4) - Fraction(2 * twigs, 5)
    if not stats.mu < bound:
        out["C5"][0].append({"mu": mu, "twigs": twigs, "bound": format_ratio(bound)})
    if not Fraction(1, 2) < stats.density < Fraction(3, 4):
        out["C12"][0].append({"density": format_ratio(stats.density)})
    if n >= 30:
        v = good_anchor(t, stats.containment, stats.subtree_count)
        if v is None:
            out["C9"][0].append({"anchor": None})
        elif not abs(stats.mu - lam(v)) < 2:
            out["C9"][0].append({"anchor": v, "gap": format_ratio(stats.mu - lam(v))})
    return out


def _mean_outcomes(t):
    report = run_checks([t], MEAN_CHECKS)

    def strip(records):
        return [{k: v for k, v in w.items() if k not in ("n", "canonical_form")}
                for w in records]

    return {c: (strip(outcome(report, c).violations), strip(outcome(report, c).equality_cases))
            for c in MEAN_CHECKS}


class TestMeanChecks:
    """C2, C4, C5, C9 and C12 compare mu, mu', D and lambda with their bounds
    by integer cross-multiplication."""

    @given(st.integers(4, 120), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_reference_sampled(self, n, seed):
        t = sample_series_reduced(n, seed)
        assert _mean_outcomes(t) == _mean_reference(t)

    def test_matches_fraction_reference_exhaustive(self):
        # all free trees hold P4, C4's equality case, and the double star, C12's witness
        found = set()
        for t in list(enum_range(4, 9)) + list(enum_range(10, 14, series_reduced=True)):
            got = _mean_outcomes(t)
            assert got == _mean_reference(t)
            found |= {(c, t.n, bool(e)) for c, (v, e) in got.items() if v or e}
        assert found == {("C4", 4, True), ("C12", 6, False)}

    # star(30) with a doctored (alpha, sigma, N) table read with S = sum(alpha),
    # the violated checks and the checks with an equality case
    @pytest.mark.parametrize("doctor, violated, equal", [
        # mu = n = 31, above C2's, C5's and C12's bounds; lambda(0) = 29 and 30
        # put the gap on C9's bound of 2 and just inside it
        (lambda a, s, total: ([total] * 31, [29 * total] + s[1:], total),
         {"C2", "C5", "C9", "C12"}, set()),
        (lambda a, s, total: ([total] * 31, [30 * total] + s[1:], total),
         {"C2", "C5", "C12"}, set()),
        # mu = 1 > mu' = 1/2, D = 1/31, and no anchor
        (lambda a, s, total: ([1] * 31, [1] * 31, 31), {"C4", "C9", "C12"}, set()),
        # mu = mu' = 30/29 with l = 30 leaves
        (lambda a, s, total: ([30] * 31, [30] * 31, 899), {"C9", "C12"}, {"C4"}),
        # lambda(0) = 1 and lambda(0) = 100: a positive and a negative gap
        (lambda a, s, total: (a, [a[0]] + s[1:], total), {"C9"}, set()),
        (lambda a, s, total: (a, [100 * a[0]] + s[1:], total), {"C9"}, set()),
    ])
    def test_witnesses_match_fraction_reference(self, monkeypatch, doctor, violated, equal):
        t = star(30)
        alpha, sigma, total = doctor(*vertex_sums(t))
        inject_tables(monkeypatch, (alpha, sigma), (total, sum(alpha)))
        got = _mean_outcomes(t)
        stats = SubtreeStats.from_totals(t, total, alpha)
        assert got == _mean_reference(t, stats, lambda v: Fraction(sigma[v], alpha[v]))
        assert {c for c, (v, _) in got.items() if v} == violated
        assert {c for c, (_, e) in got.items() if e} == equal
