from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from subtree_density import ranks
from subtree_density.dp import vertex_view
from subtree_density.enumeration import enumerate_trees
from subtree_density.families import FamilySpec, make_family
from subtree_density.ranks import (
    c_sequence,
    rank_bound_numerators,
    rank_lower_bound,
    rank_profile,
    simple_lower_bound,
)
from subtree_density.tree import orient

from test_tree import path, random_trees, star
from test_verify import caterpillar


def _rank_histogram(t, root):
    """Histogram of the explicit definition: the rank of a non-root vertex v
    is the edge count of a longest path that starts at v and avoids its parent."""
    parent, _ = orient(t, root)

    def height(v, came_from):
        return max((1 + height(w, v) for w in t.adj[v] if w != came_from), default=0)

    ranks = [height(v, parent[v]) for v in range(t.n) if v != root]
    return tuple(ranks.count(j) for j in range(max(ranks, default=-1) + 1))


class TestRankProfile:
    def test_star_center(self):
        assert rank_profile(star(3), 0) == (3,)

    def test_p4_second_vertex(self):
        assert rank_profile(path(4), 1) == (2, 1)

    def test_broom(self):
        t = make_family(FamilySpec("broom", {"m": 1, "k": 1}))
        assert rank_profile(t, 0) == (3, 1)

    def test_single_vertex(self):
        assert rank_profile(path(1), 0) == ()

    def test_rank_is_longest_downward_path(self):
        # ranks 1, 0 on the left of vertex 2 and 2, 1, 0 on its right
        assert rank_profile(path(6), 2) == (2, 2, 1)
        for n in range(2, 9):
            for t in enumerate_trees(n):
                for root in range(t.n):
                    assert rank_profile(t, root) == _rank_histogram(t, root)

    def test_profile_invariants_exhaustive(self):
        for n in range(2, 9):
            for t in enumerate_trees(n):
                for root in range(t.n):
                    m = rank_profile(t, root)
                    assert sum(m) == t.n - 1
                    assert all(a >= b for a, b in zip(m, m[1:]))


class TestCoefficients:
    def test_published_values(self):
        assert c_sequence(6) == [
            Fraction(1, 2), Fraction(3, 5), Fraction(69, 100),
            Fraction(1471, 1900), Fraction(4819, 5700), Fraction(70783, 78660),
        ]

    def test_c2_direct_substitution(self):
        assert c_sequence(3)[2] == 1 - Fraction(1 + 1 + Fraction(1, 2) + Fraction(3, 5), 10)

    def test_recurrence_first_40(self):
        cs = c_sequence(40)
        for j, c in enumerate(cs):
            assert c == 1 - Fraction(1 + Fraction(j, 2) + sum(cs[:j]), 2 ** (j + 1) + j)

    def test_bounds_first_64(self):
        cs = c_sequence(64)
        for j, c in enumerate(cs):
            assert Fraction(1, 2) <= c <= 1
            assert c >= 1 - Fraction(1 + Fraction(3 * j, 2), 2 ** (j + 1) + j)
            assert c <= 1 - Fraction(1 + j, 2 ** (j + 1) + j)
        assert all(a <= b for a, b in zip(cs, cs[1:]))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            c_sequence(0)

    def test_integer_table_matches_fraction_recurrence(self):
        cs, total = [], Fraction(0)
        for j in range(302):
            cs.append(1 - (1 + Fraction(j, 2) + total) / (2 ** (j + 1) + j))
            total += cs[-1]
        for count in (1, 2, 7, 40, 302):
            d, t = ranks._coefficient_table(count)
            assert len(t) == count
            assert all(tj * c.denominator == c.numerator * d for tj, c in zip(t, cs))

    def test_bounds_build_no_fraction(self, monkeypatch):
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        ranks._coefficient_table.cache_clear()
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        numerators, d = rank_bound_numerators(caterpillar(300))
        assert built == [] and len(numerators) == 602


class TestLowerBounds:
    def test_single_vertex(self):
        t = path(1)
        assert rank_lower_bound(t, 0) == 1
        assert simple_lower_bound(t, 0) == 1

    def test_star_equality(self):
        t = star(3)
        assert rank_lower_bound(t, 0) == Fraction(5, 2)
        assert vertex_view(t, 0).lam == Fraction(5, 2)

    def test_broom_11(self):
        t = make_family(FamilySpec("broom", {"m": 1, "k": 1}))
        lam = vertex_view(t, 0).lam
        assert rank_lower_bound(t, 0) == Fraction(31, 10) <= lam
        assert simple_lower_bound(t, 0) == Fraction(31, 10) == lam

    def test_broom_02(self):
        t = make_family(FamilySpec("broom", {"m": 0, "k": 2}))
        assert simple_lower_bound(t, 0) == Fraction(21, 5) == vertex_view(t, 0).lam

    def test_bounds_hold_exhaustively(self):
        # both bounds, every internal root, all series-reduced trees n <= 12
        for n in range(4, 13):
            for t in enumerate_trees(n, series_reduced=True):
                for v in range(t.n):
                    if t.degree(v) < 2:
                        continue
                    lam = vertex_view(t, v).lam
                    assert lam >= simple_lower_bound(t, v)
                    assert lam >= rank_lower_bound(t, v)


def _per_root(t):
    return [rank_lower_bound(t, r) for r in range(t.n)]


def _all_roots(t):
    numerators, d = rank_bound_numerators(t)
    return [Fraction(x, d) for x in numerators]


class TestRankLowerBounds:
    @given(st.one_of(random_trees(40), st.integers(1, 40).map(path),
                     st.integers(1, 40).map(star)))
    @settings(max_examples=150, deadline=None)
    @example(path(1))
    @example(path(2))
    def test_matches_per_root_bound(self, t):
        assert _all_roots(t) == _per_root(t)

    def test_exhaustive_to_9(self):
        for n in range(1, 10):
            for t in enumerate_trees(n):
                assert _all_roots(t) == _per_root(t)

    def test_exact_fractions(self):
        for t in (path(1), star(3)):
            numerators, d = rank_bound_numerators(t)
            assert all(type(x) is int for x in (*numerators, d))
            assert all(type(b) is Fraction for b in _per_root(t))
