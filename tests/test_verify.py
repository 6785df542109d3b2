import json
import sys

import pytest

from subtree_density import tree as tree_module
from subtree_density.enumeration import canonical_form, enumerate_trees, sample_series_reduced
from subtree_density.tree import is_series_reduced
from subtree_density.verify import ALL_CHECKS, check_stpoly, run_checks

from test_tree import path, star


def enum_range(lo, hi, series_reduced=False):
    for n in range(lo, hi + 1):
        yield from enumerate_trees(n, series_reduced=series_reduced)


class TestStpoly:
    def test_no_violations_to_64(self):
        out = check_stpoly(64)
        assert out.passed
        assert [e["a"] for e in out.equality_cases] == [2, 3]

    def test_a2_value(self):
        out = check_stpoly(2)
        assert out.equality_cases[0]["value"] == "8/5"

    def test_validation(self):
        with pytest.raises(ValueError):
            check_stpoly(1)


class TestRunChecks:
    def test_c1_small_range(self):
        report = run_checks(enum_range(4, 10), ["C1"])
        out = report.outcome("C1")
        assert out.passed
        assert out.trees_examined == 106 + 47 + 23 + 11 + 6 + 3 + 2
        assert out.trees_applicable == out.trees_examined

    def test_c4_equality_is_p4(self):
        report = run_checks(enum_range(4, 10), ["C4"])
        out = report.outcome("C4")
        assert out.passed
        assert len(out.equality_cases) == 1
        assert out.equality_cases[0]["canonical_form"] == list(canonical_form(path(4)))

    def test_c4_series_reduced_has_no_equality(self):
        report = run_checks(enum_range(4, 10, series_reduced=True), ["C4"])
        out = report.outcome("C4")
        assert out.passed and not out.equality_cases

    def test_series_reduced_suite(self):
        trees = list(enum_range(4, 11, series_reduced=True))
        report = run_checks(trees, ["C2", "C3", "C5", "C7", "C10", "C11"])
        assert report.passed
        for c in ("C2", "C3", "C5"):
            assert report.outcome(c).trees_applicable == len(trees)

    def test_c12_flags_the_density_boundary_tree(self):
        # the double star (two adjacent degree-3 vertices, two leaves each)
        # has density exactly 1/2, the unique boundary case for n <= 11;
        # the strict-window check must report it
        report = run_checks(enum_range(4, 11, series_reduced=True), ["C12"])
        out = report.outcome("C12")
        assert len(out.violations) == 1
        v = out.violations[0]
        assert v["n"] == 6 and v["density"] == "1/2"

    def test_c8_every_internal_root(self):
        report = run_checks(enum_range(2, 10), ["C8"])
        assert report.outcome("C8").passed

    def test_c9_on_samples(self):
        trees = [sample_series_reduced(30, seed) for seed in range(10)]
        report = run_checks(trees, ["C9"])
        out = report.outcome("C9")
        assert out.passed and out.trees_applicable == 10

    def test_c6_inside_run(self):
        report = run_checks([], ["C6"])
        assert report.outcome("C6").passed

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks([], ["C99"])

    def test_violation_reported(self):
        # P4 is not series-reduced, so feed it to C1 with a doctored claim:
        # a path of 3 vertices is below the n >= 4 cutoff and inapplicable
        report = run_checks([path(3)], ["C1"])
        out = report.outcome("C1")
        assert out.trees_examined == 1 and out.trees_applicable == 0

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
        assert run_checks(trees, ["C1", "C1"]).outcome("C1").trees_examined == len(trees)

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
        tree_checks = [c for c in ALL_CHECKS if c != "C6"]
        report = run_checks(trees, tree_checks)
        for c in tree_checks:
            out = report.outcome(c)
            assert out.trees_examined == len(trees)
            assert out.trees_applicable == expected[rule.get(c, "series-reduced")], c

    def test_all_check_ids_known(self):
        report = run_checks(enum_range(4, 5), list(ALL_CHECKS))
        assert [o.check for o in report.outcomes] == list(ALL_CHECKS)


class TestRootedChecksCost:
    """C10 and C11 orient each tree a fixed number of times, not once per root."""

    @staticmethod
    def _count_orient(monkeypatch):
        original, calls = tree_module.orient, []

        def counted(tree, root):
            calls.append(root)
            return original(tree, root)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "subtree_density" and \
                    getattr(module, "orient", None) is original:
                monkeypatch.setattr(module, "orient", counted)
        return calls

    @pytest.mark.parametrize("n", [60, 300])
    def test_orient_calls_bounded(self, monkeypatch, n):
        trees = [sample_series_reduced(n, seed) for seed in range(3)]
        calls = self._count_orient(monkeypatch)
        for t in trees:
            calls.clear()
            report = run_checks([t], ["C10", "C11"])
            assert report.outcome("C11").trees_applicable == 1
            assert 1 <= len(calls) <= 4
