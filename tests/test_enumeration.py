import itertools
import random

import pytest

from subtree_density import enumeration
from subtree_density.enumeration import (
    ENUM_CAP,
    _free_level_sequences,
    _representative,
    _rooted_levels,
    canonical_form,
    centroids,
    enumerate_trees,
    prufer_to_tree,
    random_labeled_tree,
    rooted_level_sequences,
    sample_series_reduced,
    suppress_degree_two,
    tree_from_level_sequence,
)
from subtree_density.tree import Tree, TreeError, is_series_reduced

from test_tree import path, star

# free trees up to isomorphism on 1..14 vertices (OEIS A000055)
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]

# series-reduced trees on 1..ENUM_CAP vertices (OEIS A000014)
SERIES_REDUCED_COUNTS = [0, 0, 0, 1, 1, 2, 2, 4, 5, 10, 14, 26, 42, 78, 132, 249, 445, 842]

# rooted trees on 1..10 vertices (OEIS A000081)
ROOTED_TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def counting_series(top):
    """(rooted, free, series-reduced) tree counts on 0..top vertices, from
    generating functions alone.  MSET is the Euler transform: the multisets of
    trees from a class.  Rooted trees R = x MSET(R) (A000081); free trees
    R - (R^2 - R(x^2))/2 (Otter 1948, A000055).  A series-reduced branch has a
    root without exactly one child, B = x (MSET(B) - B); a vertex-rooted tree has
    a root without exactly two children, V = x (MSET(B) - MSET_2(B)); free trees
    F = V - (B^2 - B(x^2))/2 (Harary and Prins 1959, A000014)."""
    def mset_next(a, m):
        # coefficient len(m) of MSET(A) = prod_k (1 - x^k)^(-a_k)
        n = len(m)
        return sum(sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * m[n - k]
                   for k in range(1, n + 1)) // n

    def square(a, n):  # coefficient n of A(x)^2
        return sum(a[i] * a[n - i] for i in range(n + 1))

    def at_square(a, n):  # coefficient n of A(x^2)
        return a[n // 2] if n % 2 == 0 else 0

    r, mr, b, mb = [0], [1], [0], [1]
    for n in range(1, top + 1):
        r.append(mr[n - 1])
        mr.append(mset_next(r, mr))
        b.append(mb[n - 1] - b[n - 1])
        mb.append(mset_next(b, mb))
    free = [r[n] - (square(r, n) - at_square(r, n)) // 2 for n in range(top + 1)]
    reduced = [0] + [mb[n - 1] - (square(b, n - 1) + at_square(b, n - 1)) // 2
                     - (square(b, n) - at_square(b, n)) // 2 for n in range(1, top + 1)]
    return r, free, reduced


def brute_representative(tree):
    """The greatest canonical level sequence over every root of degree < 2."""
    return max(_rooted_levels(tree.adj, v) for v in range(tree.n) if tree.degree(v) < 2)


def relabel(tree, perm):
    return Tree(tree.n, [(perm[u], perm[v]) for u, v in tree.edges])


def _components_without(tree, v):
    """The vertex sets of the components of T - v, by graph search."""
    seen, components = {v}, []
    for start in range(tree.n):
        if start in seen:
            continue
        seen.add(start)
        stack, component = [start], []
        while stack:
            u = stack.pop()
            component.append(u)
            for w in tree.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(component)
    return components


def reference_rooted_level_sequences(n):
    """Canonical level sequences of the rooted trees on n vertices, in decreasing
    order, by the successor rule: find the last entry p with level > 1, locate
    its parent q, then repeat the segment L[q:p] cyclically to the end."""
    if n == 1:
        yield (0,)
        return
    levels = list(range(n))
    while True:
        yield tuple(levels)
        p = max((i for i in range(n) if levels[i] > 1), default=-1)
        if p < 0:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        period = p - q
        for i in range(p, n):
            levels[i] = levels[i - period]


def reference_enumerate_trees(n, series_reduced=False):
    """Generate and dedup: the first rooting of each class among all rooted trees."""
    seen = set()
    for levels in reference_rooted_level_sequences(n):
        tree = tree_from_level_sequence(levels)
        if series_reduced and not is_series_reduced(tree):
            continue
        code = canonical_form(tree)
        if code not in seen:
            seen.add(code)
            yield tree


class TestCanonicalForm:
    def test_isomorphism_invariance(self):
        t = path(4)
        assert canonical_form(t) == canonical_form(relabel(t, [2, 0, 1, 3]))

    def test_distinguishes(self):
        assert canonical_form(path(4)) != canonical_form(star(3))

    def test_starfish_arm_permutation(self):
        from subtree_density.families import FamilySpec, make_family
        t = make_family(FamilySpec("starfish", {"k": 3, "r": 2}))
        rng = random.Random(5)
        for _ in range(5):
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(t, perm)) == canonical_form(t)

    def test_all_relabelings_n6(self):
        # exhaustive: every relabeling of every 6-vertex tree agrees
        for t in enumerate_trees(6):
            code = canonical_form(t)
            for perm in itertools.permutations(range(6)):
                assert canonical_form(relabel(t, list(perm))) == code

    def test_long_path_closed_form(self):
        # rooted at a middle vertex: the longer half, then the shorter one
        assert canonical_form(path(5000)) == (0, *range(1, 2501), *range(1, 2500))

    def test_centroids(self):
        assert centroids(path(4)) == [1, 2]
        assert centroids(star(5)) == [0]
        assert centroids(path(1)) == [0]
        for n in range(1, 11):
            for t in enumerate_trees(n):
                largest = [max(map(len, _components_without(t, v)), default=0)
                           for v in range(t.n)]
                assert centroids(t) == [v for v in range(t.n) if largest[v] == min(largest)]


class TestEnumeration:
    def test_level_sequence_roundtrip(self):
        seqs = list(rooted_level_sequences(4))
        assert seqs[0] == (0, 1, 2, 3)
        trees = [tree_from_level_sequence(s) for s in seqs]
        assert len(trees) == 4  # rooted trees on 4 vertices

    def test_rooted_level_sequences_match_reference(self):
        for n, expected in enumerate(ROOTED_TREE_COUNTS, start=1):
            seqs = list(rooted_level_sequences(n))
            assert seqs == list(reference_rooted_level_sequences(n))
            assert len(seqs) == expected

    @pytest.mark.parametrize("series_reduced, top", [(True, 14), (False, 11)])
    def test_same_trees_labels_and_order_as_reference(self, series_reduced, top):
        for n in range(1, top + 1):
            assert (list(enumerate_trees(n, series_reduced=series_reduced))
                    == list(reference_enumerate_trees(n, series_reduced=series_reduced)))

    def test_small_census(self):
        for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
            assert sum(1 for _ in enumerate_trees(n)) == expected

    def test_series_reduced_census(self):
        assert len(SERIES_REDUCED_COUNTS) == ENUM_CAP
        for n, expected in enumerate(SERIES_REDUCED_COUNTS, start=1):
            got = sum(1 for _ in enumerate_trees(n, series_reduced=True))
            assert got == expected

    def test_series_reduced_filter_keeps_representatives(self):
        for n in range(1, 13):
            assert (list(enumerate_trees(n, series_reduced=True))
                    == [t for t in enumerate_trees(n) if is_series_reduced(t)])

    def test_n4(self):
        trees = list(enumerate_trees(4))
        codes = {canonical_form(t) for t in trees}
        assert codes == {canonical_form(path(4)), canonical_form(star(3))}
        sr = list(enumerate_trees(4, series_reduced=True))
        assert len(sr) == 1 and canonical_form(sr[0]) == canonical_form(star(3))

    def test_no_duplicate_forms(self):
        for n in range(1, 15):
            codes = [canonical_form(t) for t in enumerate_trees(n)]
            assert len(codes) == len(set(codes))

    def test_typed_counts_match_counting_series(self):
        rooted, free, reduced = counting_series(ENUM_CAP)
        assert ROOTED_TREE_COUNTS == rooted[1:len(ROOTED_TREE_COUNTS) + 1]
        assert FREE_TREE_COUNTS == free[1:len(FREE_TREE_COUNTS) + 1]
        # the series counts the one- and two-vertex trees; the census counts
        # 0 there, since a series-reduced tree needs an internal vertex
        assert reduced[1:3] == [1, 1] and SERIES_REDUCED_COUNTS[:2] == [0, 0]
        assert SERIES_REDUCED_COUNTS[2:] == reduced[3:]

    @pytest.mark.parametrize("series_reduced, top", [(False, 12), (True, 16)])
    def test_representative_is_greatest_leaf_rooting(self, series_reduced, top):
        for n in range(1, top + 1):
            for levels in _free_level_sequences(n, series_reduced):
                assert (_representative(levels)
                        == brute_representative(tree_from_level_sequence(levels)))

    def _rooted_levels_per_class(self, monkeypatch, n, series_reduced):
        calls = []

        def counted(adj, root):
            calls.append(root)
            return _rooted_levels(adj, root)

        monkeypatch.setattr(enumeration, "_rooted_levels", counted)
        classes = sum(1 for _ in enumerate_trees(n, series_reduced=series_reduced))
        return len(calls) / classes

    @pytest.mark.parametrize("n, series_reduced", [(14, False), (18, True)])
    def test_representative_roots_few_leaves(self, monkeypatch, n, series_reduced):
        # one peripheral leaf per neighbour: about 2.5 rootings per class,
        # where every leaf gives 7.0 and 12.6
        assert self._rooted_levels_per_class(monkeypatch, n, series_reduced) <= 3

    @pytest.mark.parametrize("m", [3, 4])
    def test_star_is_rooted_once(self, monkeypatch, m):
        # K_{1,m} is the only series-reduced tree on m + 1 vertices
        assert self._rooted_levels_per_class(monkeypatch, m + 1, True) == 1

    def test_cap(self):
        with pytest.raises(TreeError, match="1 <= n <="):
            list(enumerate_trees(19))

    def test_prufer_cross_check(self):
        # independent census: canonical dedup over ALL labeled trees of order n
        for n in range(3, 9):
            codes = set()
            for seq in itertools.product(range(n), repeat=n - 2):
                codes.add(canonical_form(prufer_to_tree(list(seq), n)))
            assert len(codes) == FREE_TREE_COUNTS[n - 1]


class TestSampling:
    def test_prufer_decode(self):
        # sequence (3, 3) on 4 vertices is the star centered at 3
        t = prufer_to_tree([3, 3], 4)
        assert t == Tree(4, [(0, 3), (1, 3), (2, 3)])

    def test_random_labeled_tree_valid(self):
        rng = random.Random(1)
        for _ in range(20):
            t = random_labeled_tree(rng.randrange(1, 40), rng)
            assert len(t.edges) == t.n - 1

    def test_suppress_degree_two(self):
        # spider with subdivided legs: interior path vertices get spliced out
        t = Tree(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
        reduced = suppress_degree_two(t)
        assert all(reduced.degree(v) != 2 for v in range(reduced.n))

    def test_suppress_path_two_kept(self):
        assert suppress_degree_two(path(5)) == path(2)

    def test_sample_postconditions(self):
        t = sample_series_reduced(30, seed=42)
        assert t.n >= 30
        assert is_series_reduced(t)
        l = sum(1 for v in range(t.n) if t.degree(v) == 1)
        assert 2 * l >= t.n + 2

    def test_sample_deterministic(self):
        assert sample_series_reduced(25, seed=9) == sample_series_reduced(25, seed=9)

    def test_sample_target_guard(self):
        with pytest.raises(TreeError, match="n_target"):
            sample_series_reduced(3, seed=0)
