import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from subtree_density import dp
from subtree_density.dp import (
    SubtreeStats,
    Tables,
    all_containment_counts,
    edge_counts,
    global_stats,
    good_anchor,
    rooted_counts,
    totals,
    vertex_sums,
    vertex_view,
)
from subtree_density.enumeration import sample_series_reduced
from subtree_density.families import broom, star_chain, starfish
from subtree_density.oracle import oracle_stats, oracle_tally
from subtree_density.tree import Tree, TreeError

from test_tree import path, star, random_trees
from test_verify import caterpillar

P4 = path(4)
K13 = star(3)


class TestRootedCounts:
    @pytest.mark.parametrize("root", [-1, 7])
    def test_root_is_a_vertex(self, root):
        with pytest.raises(TreeError, match=rf"^root {root} is not a vertex in 0\.\.4$"):
            rooted_counts(path(5), root)

    def test_single_vertex(self):
        rc = rooted_counts(path(1), 0)
        assert rc.alpha_root == 1 and rc.alpha_bar_root == 0

    def test_star_center(self):
        rc = rooted_counts(K13, 0)
        assert rc.alpha_root == 8
        assert rc.alpha_bar_root == 3

    def test_p4_end(self):
        rc = rooted_counts(P4, 0)
        assert rc.alpha_root == 4 and rc.alpha_bar_root == 6

    def test_product_recurrence(self):
        # down_count[u] = prod over children (down_count[c] + 1)
        t = star(4)
        rc = rooted_counts(t, 0)
        assert rc.down_count[0] == 2 ** 4

    def test_down_sum_dominates(self):
        rc = rooted_counts(path(6), 2)
        assert all(s >= c for s, c in zip(rc.down_sum, rc.down_count))


class TestContainment:
    def test_p3(self):
        assert all_containment_counts(path(3)) == (3, 4, 3)

    def test_k13(self):
        assert all_containment_counts(K13) == (8, 5, 5, 5)

    def test_single(self):
        assert all_containment_counts(path(1)) == (1,)

    @given(random_trees(10))
    @settings(max_examples=60, deadline=None)
    def test_rerooting_consistency(self, t):
        counts = all_containment_counts(t)
        for v in range(t.n):
            assert counts[v] == rooted_counts(t, v).alpha_root


class TestGlobalStats:
    def test_path_formula(self):
        s = global_stats(path(10))
        assert s.mu == 4  # (10 + 2) / 3

    def test_p4_equality(self):
        s = global_stats(P4)
        assert s.mu == 2 and s.mu_prime == 2

    def test_k13(self):
        s = global_stats(K13)
        assert s.subtree_count == 11
        assert s.order_sum == 23
        assert s.mu == Fraction(23, 11)
        assert s.density == Fraction(23, 44)
        assert s.mu_prime == Fraction(20, 9)
        assert s.s_prime_count == 9 and s.s_prime_order_sum == 20

    def test_single_vertex_mu_prime_absent(self):
        s = global_stats(path(1))
        assert s.mu == 1 and s.mu_prime is None

    def test_json_counts_are_strings(self):
        d = global_stats(K13).to_json_dict()
        blob = json.loads(json.dumps(d))
        assert blob["subtree_count"] == "11"
        assert blob["mu"] == {"num": "23", "den": "11"}
        assert blob["containment"] == ["8", "5", "5", "5"]

    @given(random_trees(10))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, t):
        assert global_stats(t) == oracle_stats(t)


class TestTotals:
    """(N(T), S) from the down pass alone: each subtree counted once, at its
    vertex nearest the root."""

    @given(random_trees(9))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, t):
        total, alphas, _, _ = oracle_tally(t)
        assert totals(t) == (total, sum(alphas))

    @given(random_trees(40))
    @settings(max_examples=80, deadline=None)
    def test_matches_vertex_sums(self, t):
        alpha, _, total = vertex_sums(t)
        assert totals(t) == (total, sum(alpha))

    def test_star_beyond_int_digit_limit(self):
        t = star(15000)
        alpha, _, total = vertex_sums(t)
        assert totals(t) == (total, sum(alpha))


class TestTables:
    """`Tables` runs a tree's down pass once and reads N, S, alpha and sigma off it."""

    @given(random_trees(30))
    @settings(max_examples=40, deadline=None)
    def test_without_sigma(self, t):
        alpha, sigma = Tables(t, sigma=False).sums
        assert sigma is None and alpha == vertex_sums(t)[0]

    @given(random_trees(30))
    @settings(max_examples=40, deadline=None)
    def test_totals(self, t):
        stats = global_stats(t)  # its own alpha-only passes, apart from `Tables`
        assert Tables(t).totals == totals(t) == (stats.subtree_count, stats.order_sum)

    def test_one_down_pass(self, monkeypatch):
        calls, original = [], dp._down_pass
        monkeypatch.setattr(dp, "_down_pass", lambda *args: calls.append(args) or original(*args))
        t = sample_series_reduced(40, 0)
        tables = Tables(t)
        (alpha, sigma), (total, s) = tables.sums, tables.totals
        assert calls == [(t, 0)]
        assert (alpha, sigma, total) == vertex_sums(t) and s == sum(alpha)


class TestVertexView:
    @pytest.mark.parametrize("root", [-1, 5])
    def test_root_is_a_vertex(self, root):
        with pytest.raises(TreeError, match=rf"^root {root} is not a vertex in 0\.\.4$"):
            vertex_view(path(5), root)

    def test_k13_center(self):
        v = vertex_view(K13, 0)
        assert v.alpha == 8 and v.lam == Fraction(5, 2)

    def test_p4_second(self):
        v = vertex_view(P4, 1)
        assert v.alpha == 6 and v.lam == Fraction(5, 2)

    def test_single_vertex(self):
        v = vertex_view(path(1), 0)
        assert v.alpha == 1 and v.lam == 1 and v.lambda_bar is None

    @given(random_trees(9))
    @settings(max_examples=40, deadline=None)
    def test_accounting_identity(self, t):
        s = global_stats(t)
        for u in range(t.n):
            view = vertex_view(t, u)
            assert view.alpha + view.alpha_bar == s.subtree_count
            if view.lambda_bar is not None:
                assert (view.alpha * view.lam + view.alpha_bar * view.lambda_bar
                        == s.order_sum)

    @given(random_trees(9))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, t):
        _, alphas, sigmas, _ = oracle_tally(t)
        for u, (alpha, osum) in enumerate(zip(alphas, sigmas)):
            view = vertex_view(t, u)
            assert view.alpha == alpha
            assert view.lam == Fraction(osum, alpha)


class TestVertexViews:
    """Per-vertex values at every vertex: vertex_sums, and vertex_view rooted at each."""

    @given(random_trees(9))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, t):
        s = oracle_stats(t)
        alpha, sigma, _ = vertex_sums(t)
        _, alphas, sigmas, _ = oracle_tally(t)
        for u, (a, osum) in enumerate(zip(alphas, sigmas)):
            view = vertex_view(t, u)
            assert view.alpha == alpha[u] == a and view.alpha_bar == s.subtree_count - a
            assert view.lam == Fraction(sigma[u], alpha[u]) == Fraction(osum, a)
            if view.alpha_bar:
                assert view.lambda_bar == Fraction(s.order_sum - osum, view.alpha_bar)
            else:
                assert view.lambda_bar is None

    @given(random_trees(9))
    @settings(max_examples=40, deadline=None)
    def test_sums_match_oracle(self, t):
        total, alphas, sigmas, _ = oracle_tally(t)
        assert vertex_sums(t) == (list(alphas), list(sigmas), total)

    def test_star_beyond_oracle_limit(self):
        # closed forms for K_{1,m}; test_star_closed_forms pins them to the oracle
        m = 200
        alpha, sigma, total = vertex_sums(star(m))
        assert (alpha[0], sigma[0]) == (2 ** m, 2 ** m + m * 2 ** (m - 1))
        leaf = (2 ** (m - 1) + 1, 1 + 2 ** m + (m - 1) * 2 ** (m - 2))
        assert list(zip(alpha, sigma))[1:] == [leaf] * m
        assert total == 2 ** m + m

    @pytest.mark.parametrize("m", range(2, 10))
    def test_star_closed_forms(self, m):
        _, alphas, sigmas, _ = oracle_tally(star(m))
        profiles = list(zip(alphas, sigmas))
        assert profiles[0] == (2 ** m, 2 ** m + m * 2 ** (m - 1))
        leaf = (2 ** (m - 1) + 1, 1 + 2 ** m + (m - 1) * 2 ** (m - 2))
        assert profiles[1:] == [leaf] * m


def _twin_branches():
    """Vertex 0 above a three-leaf star and an eight-vertex path: two siblings
    with down_count 8 and down_sum 20 and 36, listed next to each other."""
    edges = [(0, 1), (1, 2), (1, 3), (1, 4), (0, 5)] + [(i, i + 1) for i in range(5, 12)]
    return Tree(13, edges)


def _assert_matches_vertex_view(t):
    alpha, sigma, total = vertex_sums(t)
    assert global_stats(t).containment == tuple(alpha)
    for v in range(t.n):
        view = vertex_view(t, v)
        assert view.alpha == alpha[v] and view.alpha_bar == total - alpha[v]
        assert view.lam == Fraction(sigma[v], alpha[v])


class TestRerootingRoutes:
    """The rerooting pass's sibling shares and light and heavy routes against
    vertex_view, one down pass per root, on trees beyond the oracle's reach."""

    @pytest.mark.parametrize("make", [
        lambda: star_chain(40, 5), lambda: broom(10, 30), lambda: starfish(6, 6),
        lambda: path(200), lambda: star(300), lambda: caterpillar(60), _twin_branches,
        lambda: sample_series_reduced(40, 0), lambda: sample_series_reduced(150, 1),
        lambda: sample_series_reduced(400, 2),
    ], ids=["star_chain", "broom", "starfish", "path", "star", "caterpillar", "twins",
            "sampled-40", "sampled-150", "sampled-400"])
    def test_matches_vertex_view(self, make):
        _assert_matches_vertex_view(make())

    @given(random_trees(40))
    @settings(max_examples=80, deadline=None)
    def test_matches_vertex_view_random(self, t):
        _assert_matches_vertex_view(t)

    def test_star_leaves_share_one_int(self):
        t = star(2000)
        alpha, sigma, _ = vertex_sums(t)
        for values in (global_stats(t).containment, alpha, sigma):
            assert len({id(x) for x in values[1:]}) == 1

    def test_star_chain_leaves_share_per_star(self):
        s, p = 30, 5
        t = star_chain(s, p)
        alpha, sigma, _ = vertex_sums(t)
        for values in (global_stats(t).containment, alpha, sigma):
            for i in range(s):
                assert len({id(values[i * p + j]) for j in range(1, p)}) == 1


class _CountingInt(int):
    """An int that tallies its hashes, string conversions, sums and products."""

    calls = Counter()

    def __hash__(self):
        self.calls["hash"] += 1
        return int.__hash__(self)

    def __str__(self):
        self.calls["str"] += 1
        return int.__repr__(self)

    def __add__(self, other):
        self.calls["arith"] += 1
        return int(self) + other

    def __mul__(self, other):
        self.calls["arith"] += 1
        return int(self) * other

    __radd__, __rmul__ = __add__, __mul__


def _centre_mid_range(m):
    """star(m) with its centre relabelled m // 2, so the leaves' run breaks there."""
    c = m // 2
    return Tree(m + 1, [(c, v) for v in range(m + 1) if v != c])


def _assert_totals_and_text(t):
    stats = global_stats(t)
    assert stats.order_sum == sum(stats.containment)
    doc = stats.to_json_dict()
    assert doc["containment"] == [str(c) for c in stats.containment]
    assert doc["order_sum"] == str(stats.order_sum)


class TestContainmentRuns:
    """from_totals and to_json_dict take each run of one int object once."""

    def test_one_object_is_added_and_converted_once(self):
        x = _CountingInt(2 ** 200 + 1)
        _CountingInt.calls.clear()
        stats = SubtreeStats.from_totals(star(999), 2 ** 999, [x] * 1000)
        doc = stats.to_json_dict()
        assert stats.order_sum == 1000 * int(x)
        assert doc["containment"] == [int.__repr__(x)] * 1000
        calls = _CountingInt.calls
        assert calls["hash"] <= 2 and calls["str"] == 1 and calls["arith"] <= 2

    @given(random_trees(30))
    @settings(max_examples=60, deadline=None)
    def test_random(self, t):
        _assert_totals_and_text(t)

    # the last three pass 600 digits, so their leaves take their neighbours' digits
    # (star_chain-700, star-3000) or hand theirs to the neighbour (centre-mid-range-3000)
    @pytest.mark.parametrize("make", [
        lambda: _centre_mid_range(40), lambda: broom(10, 30), lambda: star_chain(20, 5),
        lambda: star_chain(700, 5), lambda: star(3000), lambda: _centre_mid_range(3000),
    ], ids=["star-centre-mid-range", "broom", "star_chain",
            "star_chain-700", "star-3000", "star-centre-mid-range-3000"])
    def test_families(self, make):
        _assert_totals_and_text(make())

    def test_leaf_counts_share_their_neighbours_conversion(self, monkeypatch):
        # star_chain(700, 5): 700 distinct counts past 600 digits, 350 of them leaves'
        converted = []
        monkeypatch.setattr(dp, "_int_text", lambda v: converted.append(v) or str(v))
        stats = global_stats(star_chain(700, 5))
        long_counts = {c for c in stats.containment if len(str(c)) > 600}
        doc = stats.to_json_dict()
        assert doc["containment"] == [str(c) for c in stats.containment]
        assert len(long_counts) == 700 and len(long_counts.intersection(converted)) == 350

    def test_centre_mid_range_breaks_the_run(self):
        # vertex 0 is the root of the rerooting pass: a leaf with its own int,
        # equal in value to the other leaves' shared one
        t = _centre_mid_range(40)
        containment = global_stats(t).containment
        assert len({id(c) for c in containment[1:20] + containment[21:]}) == 1
        assert containment[0] == containment[1] and containment[0] is not containment[1]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("digit_limit", [4300, 640])
    def test_json_beyond_int_digit_limit(self, digit_limit):
        # the centre's 2**15000 has 4,516 digits, past the default limit of 4,300;
        # 640 is the lowest non-zero limit CPython allows
        stats = global_stats(star(15000))
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            lifted = stats.to_json_dict()
            digits = {c: str(c) for c in set(stats.containment)}
            assert lifted["containment"] == [digits[c] for c in stats.containment]
            sys.set_int_max_str_digits(digit_limit)
            assert stats.to_json_dict() == lifted
            assert sys.get_int_max_str_digits() == digit_limit
        finally:
            sys.set_int_max_str_digits(limit)


class TestEdgeCounts:
    def test_p2(self):
        assert edge_counts(path(2), (0, 1)) == (1, 2)

    def test_p4_middle(self):
        assert edge_counts(P4, (1, 2)) == (4, 6)

    def test_k13(self):
        assert edge_counts(K13, (0, 2)) == (4, 7)

    def test_non_edge_rejected(self):
        with pytest.raises(TreeError, match="not an edge"):
            edge_counts(P4, (0, 3))

    @given(random_trees(9))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, t):
        total, _, _, alpha_e = oracle_tally(t)
        for e in t.edges:
            assert edge_counts(t, e) == (alpha_e[e], total - alpha_e[e])


def _anchor_with_edge_scan(t):
    """The vertex scan, then an internal endpoint of the first edge e of
    tree.edges with 2*alpha_e >= n*alpha_bar_e, each by edge_counts."""
    s = global_stats(t)
    n, total = t.n, s.subtree_count
    for v in range(n):
        if t.degree(v) >= 2 and 2 * s.containment[v] >= n * (total - s.containment[v]):
            return v
    for e in t.edges:
        alpha_e, alpha_bar_e = edge_counts(t, e)
        if 2 * alpha_e >= n * alpha_bar_e:
            for w in e:
                if t.degree(w) >= 2:
                    return w
    return None


def _good_anchor(t):
    s = global_stats(t)
    return good_anchor(t, s.containment, s.subtree_count)


class TestGoodAnchor:
    def test_k13(self):
        assert _good_anchor(K13) == 0  # 2*8 >= 4*3

    def test_p4_none(self):
        assert _good_anchor(P4) is None

    def test_matches_edge_scan_exhaustive(self):
        from subtree_density.enumeration import enumerate_trees
        for n in range(1, 13):
            for t in enumerate_trees(n):
                assert _good_anchor(t) == _anchor_with_edge_scan(t)

    @given(random_trees(40))
    @settings(max_examples=100, deadline=None)
    def test_matches_edge_scan(self, t):
        assert _good_anchor(t) == _anchor_with_edge_scan(t)

    def test_anchor_accuracy(self):
        # wherever an anchor exists, |mu - lambda| < 2
        from subtree_density.enumeration import enumerate_trees
        for n in range(2, 10):
            for t in enumerate_trees(n):
                v = _good_anchor(t)
                if v is not None:
                    assert abs(global_stats(t).mu - vertex_view(t, v).lam) < 2
