import hashlib
import heapq
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from subtree_density import enumeration, tree as tree_module
from subtree_density.enumeration import (
    ENUM_CAP,
    SAMPLE_RETRIES,
    FORM_CAP,
    _draws,
    _prufer_neighbours,
    _rooted_pool,
    _suppressed,
    canonical_form,
    centroids,
    enumerate_trees,
    rooted_level_sequences,
    sample_series_reduced,
    tree_from_level_sequence,
)
from subtree_density.tree import Tree, TreeError, _depths, is_series_reduced, orient, serialize

from test_tree import path, prufer_tree, random_trees, star
from test_verify import caterpillar

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


# SHA-256 over `serialize` of every tree from enumerate_trees(n, series_reduced)
# for n = 1..top, in order: the representatives' labels and their order
ENUMERATION_DIGESTS = {
    (False, 14): "46bc08e9dfaa6846d86b866bb658e3756558cfdd9d7e09d19609e3db30552567",
    (True, 18): "f1fe42d938e34cf14cf1b691b88c7de3f739881915a609b957ca58f853b00ed4",
}


def hang(branches):
    """The level sequence of a new root above `branches`, largest first."""
    levels = [0]
    for branch in sorted(branches, reverse=True):
        levels += [x + 1 for x in branch]
    return levels


def rooted_levels(adj, root):
    """Canonical level sequence rooted at `root`, as lists: each vertex hangs its
    children's sequences, largest first, shifted one level down."""
    parent, order = orient(adj, root)
    below = [[] for _ in adj]
    for u in order[:0:-1]:
        below[parent[u]].append(hang(below[u]))
    return hang(below[root])


def reference_canonical_form(tree):
    """The smaller of the list-built sequences rooted at the centroids."""
    return tuple(min(rooted_levels(tree.adj, c) for c in centroids(tree)))


def brute_representative(tree):
    """The greatest canonical level sequence over every root of degree < 2."""
    return max(rooted_levels(tree.adj, v) for v in range(tree.n) if tree.degree(v) < 2)


@st.composite
def deep_trees(draw):
    """A spine of 520 to 700 vertices with up to 40 more hung off it, labels shuffled:
    rooted at a centroid, its forms reach depths above 255."""
    spine = draw(st.integers(520, 700))
    edges = [(i, i + 1) for i in range(spine - 1)]
    for v in range(spine, spine + draw(st.integers(0, 40))):
        edges.append((draw(st.integers(0, v - 1)), v))
    perm = draw(st.permutations(range(len(edges) + 1)))
    return Tree(len(perm), [(perm[u], perm[v]) for u, v in edges])


def reference_prufer_neighbours(seq, n):
    """Heap decode: join each entry to the smallest leaf, then the last two leaves."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    adj = [[] for _ in range(n)]
    for x in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    adj[a].append(b)
    adj[b].append(a)
    return adj


def reference_splice(adj):
    """Replace each degree-2 vertex by an edge between its two neighbours, then
    number the kept vertices 0..k-1 in their original label order."""
    nbrs = {v: set(a) for v, a in enumerate(adj)}
    for v in range(len(adj)):
        if len(nbrs[v]) == 2:  # splicing v out leaves every other degree as it was
            a, b = nbrs.pop(v)
            nbrs[a].remove(v)
            nbrs[a].add(b)
            nbrs[b].remove(v)
            nbrs[b].add(a)
    number = {v: i for i, v in enumerate(sorted(nbrs))}
    return Tree(len(number), [(number[u], number[w]) for u in nbrs for w in nbrs[u] if u < w])


def reference_sample(n, seed):
    """sample_series_reduced from its contract: Pruefer entries from randrange,
    the heap decode, the splice, and a tenth more vertices per retry."""
    rng = random.Random(seed)
    size = max(n + 4, (n * 5) // 3)
    for _ in range(SAMPLE_RETRIES):
        seq = [rng.randrange(size) for _ in range(size - 2)]
        candidate = reference_splice(reference_prufer_neighbours(seq, size))
        if candidate.n >= n and is_series_reduced(candidate):
            return candidate
        size += max(1, size // 10)


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


def oracle_edges(levels):
    """(parent, i) for each vertex i > 0: its parent is the last j < i at level[i]-1."""
    last_at = {levels[0]: 0}
    for i in range(1, len(levels)):
        yield last_at[levels[i] - 1], i
        last_at[levels[i]] = i


@st.composite
def level_sequences(draw, max_n=300):
    """Valid level sequences: 0, then each level in 1..(the level before it) + 1."""
    levels = [0]
    for x in draw(st.lists(st.integers(0, 2 ** 16), max_size=max_n - 1)):
        levels.append(1 + x % (levels[-1] + 1))
    return tuple(levels)


class TestLevelSequenceBuild:
    """`tree_from_level_sequence` against `Tree()` over the oracle's edges."""

    @staticmethod
    def assert_same_tree(levels):
        want = Tree(len(levels), oracle_edges(levels))
        # == and hash before `edges` is read, then field by field
        assert tree_from_level_sequence(levels) == want
        assert want == tree_from_level_sequence(levels)
        assert hash(tree_from_level_sequence(levels)) == hash(want)
        got = tree_from_level_sequence(levels)
        assert (got.n, got.edges, got.adj, got.parent, got.order) == \
            (want.n, want.edges, want.adj, want.parent, want.order)

    def test_every_rooted_tree_to_10(self):
        for n in range(1, 11):
            for levels in reference_rooted_level_sequences(n):
                self.assert_same_tree(levels)

    @settings(max_examples=60, deadline=None)
    @given(level_sequences())
    def test_drawn_sequences(self, levels):
        self.assert_same_tree(levels)

    @pytest.mark.parametrize("levels", [tuple(range(300)), (0,) + (1,) * 299],
                             ids=["deep", "flat"])
    def test_extremes(self, levels):
        self.assert_same_tree(levels)

    def test_bytes_as_the_enumerator_gives_them(self):
        levels = (0, 1, 2, 2, 1, 2, 3, 1)
        assert tree_from_level_sequence(bytes(levels)) == tree_from_level_sequence(levels)

    @pytest.mark.parametrize("levels, message", [
        ((0, 2), "level 2 at index 1 is not in 1..1"),
        ((0, 1, 0), "level 0 at index 2 is not in 1..2"),
        ((0, 1, 1, 3), "level 3 at index 3 is not in 1..2"),
        ((1, 2), "level sequence must start at 0, got 1 at index 0"),
        ((), "vertex count must be a positive integer"),
    ], ids=["skips-a-level", "second-root", "skips-past-a-sibling", "starts-at-1", "empty"])
    def test_bad_sequence_names_its_first_bad_entry(self, levels, message):
        with pytest.raises(TreeError) as err:
            tree_from_level_sequence(levels)
        assert str(err.value) == message


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

    def test_path_of_20000_closed_form(self):
        # 10,000 levels, far past one byte per level
        assert canonical_form(path(20000)) == (0, *range(1, 10001), *range(1, 10000))

    @given(random_trees(60))
    def test_matches_list_reference(self, t):
        assert canonical_form(t) == reference_canonical_form(t)

    @pytest.mark.parametrize("make", [lambda: path(600), lambda: path(601),
                                      lambda: caterpillar(600)],
                             ids=["path-600", "path-601", "caterpillar-600"])
    def test_matches_list_reference_past_one_byte(self, make):
        t = make()
        code = canonical_form(t)
        assert max(code) > 255 and code == reference_canonical_form(t)

    @settings(max_examples=25, deadline=None)
    @given(deep_trees())
    def test_matches_list_reference_on_deep_trees(self, t):
        code = canonical_form(t)
        assert max(code) > 255 and code == reference_canonical_form(t)

    def test_size_cap(self, monkeypatch):
        # a centroid is at depth <= n // 2 from every vertex, and chr stops at maxunicode
        assert FORM_CAP // 2 == sys.maxunicode
        monkeypatch.setattr(enumeration, "FORM_CAP", 9)
        assert canonical_form(path(9)) == (0, 1, 2, 3, 4, 1, 2, 3, 4)
        with pytest.raises(TreeError, match=r"canonical_form requires n <= 9, got 10"):
            canonical_form(path(10))

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

    @pytest.mark.parametrize("series_reduced", [False, True])
    def test_pool_holds_the_rooted_trees_within_its_bound(self, series_reduced):
        # a branch or half of a free tree on n vertices has size + height <= n - 1
        for m, bound in [(10, 10), (10, 7), (8, 12)]:
            want = set()
            for size in range(1, m + 1):
                for levels in reference_rooted_level_sequences(size):
                    t = tree_from_level_sequence(levels)
                    one_child = any(t.degree(v) == 2 - (v == 0) for v in range(size))
                    if size + max(levels) <= bound and not (series_reduced and one_child):
                        want.add(levels)
            pool = [tuple(f) for f in _rooted_pool(m, series_reduced, bound)]
            assert len(pool) == len(want) and set(pool) == want
            assert [len(f) for f in pool] == sorted(map(len, pool))

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
        # each tree is labelled in preorder of its representative, so the
        # depths from vertex 0, in label order, are that level sequence
        for n in range(1, top + 1):
            for t in enumerate_trees(n, series_reduced):
                assert _depths(t.adj, 0)[2] == brute_representative(t)

    @pytest.mark.parametrize("n, series_reduced", [(14, False), (18, True)])
    def test_representative_is_read_off_the_build(self, monkeypatch, n, series_reduced):
        # no rooting is searched and nothing is oriented: no `_form`, and no `orient`,
        # since the level sequence gives each tree's breadth-first order
        calls = {"_form": 0, "orient": 0}

        def counted(module, name):
            original = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, call)

        counted(enumeration, "_form")
        counted(tree_module, "orient")
        classes = sum(1 for _ in enumerate_trees(n, series_reduced=series_reduced))
        counts = SERIES_REDUCED_COUNTS if series_reduced else FREE_TREE_COUNTS
        assert classes == counts[n - 1]
        assert calls == {"_form": 0, "orient": 0}

    @pytest.mark.parametrize("series_reduced, top", sorted(ENUMERATION_DIGESTS))
    def test_trees_labels_and_order_keep_their_bytes(self, series_reduced, top):
        digest = hashlib.sha256()
        for n in range(1, top + 1):
            for t in enumerate_trees(n, series_reduced):
                digest.update(serialize(t).encode())
        assert digest.hexdigest() == ENUMERATION_DIGESTS[series_reduced, top]

    def test_cap(self):
        with pytest.raises(TreeError, match="1 <= n <="):
            list(enumerate_trees(19))

    def test_prufer_cross_check(self):
        # independent census: canonical dedup over ALL labeled trees of order n
        for n in range(3, 9):
            codes = set()
            for seq in itertools.product(range(n), repeat=n - 2):
                codes.add(canonical_form(prufer_tree(seq, n)))
            assert len(codes) == FREE_TREE_COUNTS[n - 1]


class TestSampling:
    def test_prufer_decode(self):
        # sequence (3, 3) on 4 vertices is the star centered at 3
        assert _prufer_neighbours([3, 3], 4) == [[3], [3], [3], [0, 1, 2]]

    def test_prufer_decode_matches_heap_reference(self):
        # the same (leaf, entry) pairs in the same order give equal neighbour lists
        for n in range(2, 8):
            for seq in itertools.product(range(n), repeat=n - 2):
                assert _prufer_neighbours(seq, n) == reference_prufer_neighbours(seq, n)
        rng = random.Random(11)
        for n in (8, 9, 30, 301, 3000):
            for alphabet in (n, max(1, n // 10), 2):  # uniform, then few repeated entries
                seq = [rng.randrange(alphabet) for _ in range(n - 2)]
                assert _prufer_neighbours(seq, n) == reference_prufer_neighbours(seq, n)

    @pytest.mark.parametrize("size", [1, 2, 3, 255, 256, 257, 1023, 1024, 1025])
    def test_draws_match_randrange(self, size):
        # 257 and 1025 reject almost half of their getrandbits draws
        for seed in range(3):
            ours, theirs = random.Random(seed), random.Random(seed)
            for count in (0, 1, 2, size, 3 * size):
                assert _draws(ours, size, count) == [theirs.randrange(size) for _ in range(count)]
                assert ours.getstate() == theirs.getstate()

    def test_suppress_degree_two(self):
        # spider with subdivided legs: interior path vertices get spliced out,
        # and the kept 0, 2, 3, 6 become 0, 1, 2, 3
        t = Tree(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
        assert Tree(*_suppressed(t.adj)) == Tree(4, [(0, 1), (1, 2), (1, 3)])

    def test_suppress_path_two_kept(self):
        assert Tree(*_suppressed(path(5).adj)) == path(2)

    def test_splice_matches_reference(self):
        for n in range(1, 8):
            for seq in itertools.product(range(n), repeat=max(0, n - 2)):
                adj = reference_prufer_neighbours(seq, n) if n > 1 else [[]]
                assert Tree(*_suppressed(adj)) == reference_splice(adj)

    def test_sample_postconditions(self):
        t = sample_series_reduced(30, seed=42)
        assert t.n >= 30
        assert is_series_reduced(t)
        l = sum(1 for v in range(t.n) if t.degree(v) == 1)
        assert 2 * l >= t.n + 2

    def test_sample_deterministic(self):
        assert sample_series_reduced(25, seed=9) == sample_series_reduced(25, seed=9)

    @pytest.mark.parametrize("n", [4, 5, 6, 10, 30, 40, 120, 300, 400])
    def test_sample_matches_tree_composition(self, n):
        # the sampler against a reference that shares none of its code, and
        # that keeps the series-reduced test the sampler leaves out
        for seed in range(30):
            assert sample_series_reduced(n, seed) == reference_sample(n, seed)

    def test_sample_builds_only_the_tree_it_returns(self, monkeypatch):
        # at n = 30, seeds 0, 2 and 17 reject one, one and two draws
        built, draws = [], []
        monkeypatch.setattr(enumeration, "Tree", lambda *a: built.append(a) or Tree(*a))
        monkeypatch.setattr(enumeration, "_draws", lambda *a: draws.append(a) or _draws(*a))
        for seed in (0, 2, 17):
            assert sample_series_reduced(30, seed) == reference_sample(30, seed)
        assert (len(built), len(draws)) == (3, 7)

    def test_sample_target_guard(self):
        with pytest.raises(TreeError, match="n_target"):
            sample_series_reduced(3, seed=0)

    @pytest.mark.parametrize("n", [10 ** 6 + 1, 10 ** 30], ids=["cap-plus-1", "10**30"])
    def test_sample_size_cap(self, monkeypatch, n):
        def no_draws(*args):
            raise AssertionError("drew for a size above the cap")

        monkeypatch.setattr(enumeration, "_draws", no_draws)
        with pytest.raises(TreeError, match=r"n_target <= 1000000, got 1"):
            sample_series_reduced(n, seed=0)
