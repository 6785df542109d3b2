import itertools
import sys
from fractions import Fraction

import pytest

from subtree_density import dp, families
from subtree_density.dp import global_stats, rooted_counts, vertex_view
from subtree_density.families import (
    FamilyError,
    FamilySpec,
    density_sweep,
    make_family,
    sweep_csv,
)
from subtree_density.tree import classify_vertices, diameter, is_series_reduced


def build(name, **params):
    return make_family(FamilySpec(name, params))


class TestConstructors:
    def test_path_and_star(self):
        assert build("path", n=4).edges == ((0, 1), (1, 2), (2, 3))
        assert build("star", m=3).edges == ((0, 1), (0, 2), (0, 3))

    def test_broom(self):
        t = build("broom", m=1, k=1)
        assert t.n == 5
        assert t.degree(0) == 2  # one leaf child, one interior child
        assert t.degree(2) == 3

    def test_leafy_path_alpha(self):
        t = build("leafy_path", n=4, l=2)
        assert rooted_counts(t, 0).alpha_root == 5  # n - l - 1 + 2^l

    def test_leafy_path_degenerate_hub_is_root(self):
        t = build("leafy_path", n=4, l=3)
        assert t.degree(0) == 3

    def test_starfish_structure(self):
        t = build("starfish", k=3, r=2)
        cls = classify_vertices(t)
        assert t.n == 10
        assert len(cls.leaves) == 6 and len(cls.twigs) == 3
        assert diameter(t) == 4
        assert is_series_reduced(t)

    def test_starfish_counts_general(self):
        for k in (3, 4, 5):
            for r in (2, 3, 4):
                t = build("starfish", k=k, r=r)
                cls = classify_vertices(t)
                assert t.n == 1 + k * (2 * r - 1)
                assert len(cls.leaves) == k * r
                assert len(cls.twigs) == k
                assert diameter(t) == 2 * r
                assert is_series_reduced(t)

    def test_star_chain_series_reduced(self):
        for s, p in ((2, 3), (3, 4), (5, 5)):
            assert is_series_reduced(build("star_chain", s=s, p=p))

    def test_parameter_validation(self):
        with pytest.raises(FamilyError, match="k >= 3"):
            build("starfish", k=2, r=2)
        with pytest.raises(FamilyError, match="n >= l"):
            build("leafy_path", n=3, l=3)
        with pytest.raises(FamilyError, match="m \\+ k >= 1"):
            build("broom", m=0, k=0)
        with pytest.raises(FamilyError, match="unknown family"):
            build("caterpillar", n=5)
        with pytest.raises(FamilyError, match="missing"):
            build("starfish", k=3)
        with pytest.raises(FamilyError, match="extra"):
            build("path", n=4, m=1)

    @pytest.mark.parametrize("name, params", [
        ("path", {"n": 7}), ("star", {"m": 5}), ("star_chain", {"s": 3, "p": 4}),
        ("broom", {"m": 2, "k": 3}), ("leafy_path", {"n": 9, "l": 3}),
        ("starfish", {"k": 3, "r": 4}),
    ])
    def test_size_cap_reads_the_vertex_count(self, monkeypatch, name, params):
        n = build(name, **params).n
        monkeypatch.setattr(families, "SIZE_CAP", n)
        assert build(name, **params).n == n
        monkeypatch.setattr(families, "SIZE_CAP", n - 1)
        with pytest.raises(FamilyError, match=f"has {n} vertices > cap {n - 1}$"):
            build(name, **params)

    @pytest.mark.parametrize("name", families.FAMILY_NAMES)
    def test_size_formula_non_decreasing_in_each_parameter(self, name):
        # sweep_members bounds a whole sweep by its member at hi, which needs this
        _, names, size = families._CONSTRUCTORS[name]
        for values in itertools.product(range(-6, 7), repeat=len(names)):
            for i in range(len(names)):
                bigger = values[:i] + (values[i] + 1,) + values[i + 1:]
                assert size(*values) <= size(*bigger), (values, bigger)


class TestEqualityCases:
    def test_broom_lambda(self):
        # lambda at the root meets (n+1)/2 + k/10 exactly, k interior children
        for m in range(0, 5):
            for k in range(0, 4):
                if m + k < 2:
                    continue
                t = build("broom", m=m, k=k)
                lam = vertex_view(t, 0).lam
                assert lam == Fraction(t.n + 1, 2) + Fraction(k, 10)

    def test_leafy_path_alpha_floor(self):
        for n in range(2, 15):
            for l in range(1, n):
                t = build("leafy_path", n=n, l=l)
                assert rooted_counts(t, 0).alpha_root == n - l - 1 + 2 ** l


class TestSweeps:
    def test_path_density_closed_form(self):
        pts = density_sweep(FamilySpec("path", {}), "n", 4, 30)
        for p in pts:
            assert p.density == Fraction(p.n + 2, 3 * p.n)

    def test_star_density_towards_half(self):
        pts = density_sweep(FamilySpec("star", {}), "m", 1, 50)
        # Density dips, peaks near m = 9, then decreases steadily toward 1/2.
        tail = pts[8:]
        assert all(a.density > b.density for a, b in zip(tail, tail[1:]))
        # m = 1 is a single edge where both endpoints count as leaves, so the
        # leaf fraction is only monotone from m = 2 onward.
        assert all(Fraction(a.leaves, a.n) < Fraction(b.leaves, b.n)
                   for a, b in zip(pts[1:], pts[2:]))
        assert abs(pts[-1].density - Fraction(1, 2)) < Fraction(2, 100)

    def test_starfish_density_increases(self):
        pts = density_sweep(FamilySpec("starfish", {"k": 3}), "r", 1, 20)
        assert all(a.density < b.density for a, b in zip(pts, pts[1:]))
        assert pts[-1].density > Fraction(70, 100)

    @pytest.mark.parametrize("name, params, sweep", [
        ("path", {}, ("n", 2, 30)), ("star", {}, ("m", 1, 40)),
        ("star_chain", {"p": 5}, ("s", 1, 12)), ("broom", {"m": 3}, ("k", 0, 12)),
        ("leafy_path", {"l": 3}, ("n", 4, 20)), ("starfish", {"k": 3}, ("r", 1, 12)),
    ])
    def test_density_without_rerooting(self, monkeypatch, name, params, sweep):
        # the densities global_stats gives, with global_stats and the rerooting pass failing
        spec = FamilySpec(name, params)
        expected = [global_stats(t).density for t in
                    families.sweep_members(spec, *sweep, families.SWEEP_CAP)]

        def fail(*args):
            raise AssertionError("density_sweep ran the rerooting pass")

        for key, mod in list(sys.modules.items()):
            for fn in (global_stats, dp._top_down):
                if key.split(".")[0] == "subtree_density" and \
                        getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, fail)
        assert [p.density for p in density_sweep(spec, *sweep)] == expected

    def test_vertex_cap(self):
        with pytest.raises(FamilyError, match="cap"):
            density_sweep(FamilySpec("path", {}), "n", 10, 6000)

    def test_csv_output(self):
        pts = density_sweep(FamilySpec("path", {}), "n", 4, 5)
        lines = sweep_csv(pts, 12).splitlines()
        assert lines[0] == ("param,n,leaves,twigs,diameter,density_num,density_den,"
                            "density_decimal,leaf_fraction_decimal,twig_fraction_decimal")
        assert lines[1].startswith("4,4,2,2,3,1,2,0.5")
        assert len(lines) == 3
