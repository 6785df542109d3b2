import sys

import pytest
from hypothesis import given, settings, strategies as st

from subtree_density import families
from subtree_density.enumeration import enumerate_trees
from subtree_density.tree import (
    ParseError,
    Tree,
    TreeError,
    classify_vertices,
    diameter,
    is_series_reduced,
    orient,
    parse_tree,
    parse_trees,
    serialize,
)


# CPython 3.10.7 and later refuse to parse more than 4,300 digits by default
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int-to-str digit limit")


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(m):
    return Tree(m + 1, [(0, i) for i in range(1, m + 1)])


def prufer_neighbours(seq, n):
    """Neighbour lists of the labeled tree on n >= 2 vertices with Pruefer sequence `seq`.

    Linear: `ptr` only moves up; an x that turns into a leaf below it is the smallest leaf."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj = [[] for _ in range(n)]
    leaf = ptr = degree.index(1)
    for x in seq:
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    adj[leaf].append(n - 1)
    adj[n - 1].append(leaf)
    return adj


def prufer_tree(seq, n):
    """The labeled tree on n >= 2 vertices with Pruefer sequence `seq`."""
    adj = prufer_neighbours(seq, n)
    return Tree(n, [(u, w) for u, a in enumerate(adj) for w in a if u < w])


def random_trees(max_n=12):
    """Hypothesis strategy: labeled trees from Pruefer sequences."""
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        if n <= 2:
            return path(n)
        seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        return prufer_tree(seq, n)
    return st.composite(build)()


def reference_diameter(t):
    """The greatest distance between two vertices, by a breadth-first search from each."""
    longest = 0
    for start in range(t.n):
        dist, queue = {start: 0}, [start]
        for u in queue:
            for w in t.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        longest = max(longest, *dist.values())
    return longest


def leaf_deleted(tree):
    """Oracle for twigs: the tree induced on the internal vertices, and the
    relabeling (new -> old).  With no internal vertex it is empty: a TreeError."""
    kept = [v for v in range(tree.n) if tree.degree(v) >= 2]
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in tree.edges if u in index and v in index]
    return Tree(len(kept), edges), tuple(kept)


class TestConstruction:
    def test_two_vertex(self):
        t = parse_tree("2\n0 1")
        assert t.n == 2 and t.edges == ((0, 1),)

    def test_path_encoding(self):
        t = parse_tree("4\n0 1\n1 2\n2 3")
        assert t == path(4)

    def test_too_many_edges(self):
        with pytest.raises(TreeError, match="edge count"):
            parse_tree("4\n0 1\n1 2\n0 3\n0 2")

    def test_out_of_range(self):
        with pytest.raises(TreeError, match="out of range"):
            Tree(3, [(0, 1), (1, 3)])

    def test_self_loop(self):
        with pytest.raises(TreeError, match="self-loop"):
            Tree(3, [(0, 1), (2, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(TreeError, match="duplicate"):
            Tree(3, [(0, 1), (1, 0)])

    def test_disconnected(self):
        with pytest.raises(TreeError, match="not connected"):
            Tree(4, [(0, 1), (1, 2), (0, 2)])  # 3 edges, vertex 3 isolated

    def test_comments_and_blanks(self):
        t = parse_tree("# a path\n\n3  # n\n0 1\n1 2  # last edge\n")
        assert t == path(3)

    def test_parse_error_has_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_tree("3\n0 x\n1 2")

    @pytest.mark.parametrize("text, message", [
        ("12x\n", "line 1: invalid vertex count '12x'"),
        ("3\n0 1 2\n", "line 2: expected an edge 'u v', got '0 1 2'"),
        ("3\n0 x\n", "line 2: non-integer edge endpoint in '0 x'"),
        pytest.param("9" * 400_000, "line 1: invalid vertex count '" + "9" * 40
                     + "…' (400000 characters)", marks=NEEDS_DIGIT_LIMIT),
        ("3\n0 1\n" + "1 " * 50_000, "line 3: expected an edge 'u v', got '" + "1 " * 20
         + "…' (99999 characters)"),
        ("3\n0 1\n1 " + "x" * 9_000, "line 3: non-integer edge endpoint in '1 " + "x" * 38
         + "…' (9002 characters)"),
    ], ids=["count", "edge", "endpoint", "long-count", "long-edge", "long-endpoint"])
    def test_parse_error_quotes_a_bounded_prefix(self, text, message):
        # a short token or line is quoted whole; a long one by its first 40
        # characters and its length, so a 400,000-digit line gives a short message
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert str(exc.value) == message and len(message) < 200

    def test_roundtrip(self):
        t = Tree(5, [(3, 4), (0, 1), (1, 2), (2, 3)])
        assert parse_tree(serialize(t)) == t

    @given(random_trees())
    def test_roundtrip_property(self, t):
        assert parse_tree(serialize(t)) == t

    @given(random_trees())
    def test_adjacency_ascending(self, t):
        assert all(list(a) == sorted(a) for a in t.adj)


def ordered_tree_checks(n, edges):
    """`Tree.__init__`'s checks one at a time, in the order that decides which
    fault a message names: the oracle for its fast path and `_diagnose`."""
    if not isinstance(n, int) or n < 1:
        raise TreeError("vertex count must be a positive integer")
    norm = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise TreeError(f"edge endpoint out of range [0, {n}): ({u}, {v})")
        if u == v:
            raise TreeError(f"self-loop at vertex {u}")
        norm.append((u, v) if u < v else (v, u))
    norm.sort()
    for a, b in zip(norm, norm[1:]):
        if a == b:
            raise TreeError(f"duplicate edge {a}")
    if len(norm) != n - 1:
        raise TreeError(f"edge count {len(norm)} != n-1 = {n - 1}")
    adj = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    if len(orient(adj, 0)[1]) != n:
        raise TreeError("graph is not connected")
    return tuple(norm)


@st.composite
def edge_lists(draw):
    """(n, edges): pairs at random, or a tree's edges shuffled and flipped with
    at most one fault: an endpoint out of range, a self-loop, a repeat, a
    missing edge, an edge moved, or a chord that leaves a new vertex apart."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 6))
        pair = st.tuples(st.integers(-1, n), st.integers(-1, n))
        return n, draw(st.lists(pair, max_size=n + 1))
    t = draw(random_trees(8))
    n, edges = t.n, [e if draw(st.booleans()) else e[::-1] for e in draw(st.permutations(t.edges))]
    fault = draw(st.sampled_from(["none", "range", "loop", "repeat", "drop", "move", "chord"]))
    if n > 2 and fault != "none":
        i, u = draw(st.integers(0, n - 2)), edges[0][0]
        if fault == "range":
            edges[i] = (u, draw(st.sampled_from([-1, n])))
        elif fault == "loop":
            edges[i] = (u, u)
        elif fault == "repeat":
            edges.append(edges[i])
        elif fault == "drop":
            del edges[i]
        elif fault == "move":
            edges[i] = (u, draw(st.integers(0, n - 1).filter(lambda v: v != u)))
        else:
            edges.insert(i, draw(st.sampled_from(
                [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in t.edges])))
            n += 1
    return n, edges


@given(edge_lists(), st.booleans())
@settings(max_examples=250, deadline=None)
def test_tree_matches_ordered_checks(case, as_iterator):
    # the fast path and `_diagnose` give the same tree or the same first fault
    n, edges = case

    def outcome(build):
        try:
            return build()
        except TreeError as exc:
            return str(exc)
    built = outcome(lambda: Tree(n, iter(edges) if as_iterator else edges).edges)
    assert built == outcome(lambda: ordered_tree_checks(n, edges))


@pytest.mark.parametrize("n, edges, message", [
    (10 ** 5000, [], "edge count 0 != n-1 = " + "9" * 40 + "… (5000 characters)"),
    (int("1" * 4000), [], "edge count 0 != n-1 = " + "1" * 40 + "… (4000 characters)"),
    (3, [(0, 1), (1, -10 ** 5000)], "edge endpoint out of range [0, 3): (1, -1"
     + "0" * 38 + "… (5002 characters))"),
], ids=["past-digit-limit", "under-digit-limit", "endpoint"])
def test_tree_error_quotes_a_bounded_prefix(n, edges, message):
    # a number of over 40 characters is cut to them and its length, and one
    # past the int-to-str digit limit still gives a TreeError
    with pytest.raises(TreeError) as exc:
        Tree(n, edges)
    assert str(exc.value) == message


# arbitrary text, and text over the characters the format uses
TREE_TEXT = st.one_of(st.text(), st.text(alphabet="0123456789 -#\nx", max_size=60))


@given(TREE_TEXT)
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_tree_errors(text):
    for parse in (parse_tree, parse_trees):
        try:
            parse(text)
        except TreeError:  # ParseError is a TreeError
            pass


class TestParseTrees:
    def test_separator_inside_comment_is_text(self):
        assert parse_trees("4\n0 1\n1 2 # --- note\n2 3\n") == [path(4)]

    def test_blocks(self):
        text = "# two trees\n2\n0 1\n  ---  # separator\n3\n0 1\n1 2\n---\n"
        assert parse_trees(text) == [path(2), path(3)]

    def test_error_line_counts_from_file_start(self):
        with pytest.raises(ParseError, match="line 6"):
            parse_trees("2\n0 1\n---\n3\n0 1\n1 x\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_trees("# nothing\n---\n")


class TestOrient:
    @given(random_trees(), st.randoms(use_true_random=False))
    def test_tree_keeps_orientation_from_zero(self, t, rng):
        parent, order = orient(t.adj, 0)
        assert type(t.parent) is tuple and type(t.order) is tuple
        assert (list(t.parent), list(t.order)) == (parent, order)
        # another input order of the same edges, each either way round, is the same tree
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
        rng.shuffle(edges)
        other = Tree(t.n, edges)
        assert other == t and hash(other) == hash(t)
        assert (other.parent, other.order) == (t.parent, t.order)

    def test_path_rooted_inside(self):
        parent, order = orient(path(4).adj, 2)
        assert parent == [1, 2, -1, 2]
        assert order[0] == 2 and sorted(order) == [0, 1, 2, 3]

    @given(random_trees(), st.data())
    def test_parents_come_first(self, t, data):
        root = data.draw(st.integers(0, t.n - 1))
        parent, order = orient(t.adj, root)
        position = {v: i for i, v in enumerate(order)}
        assert order[0] == root and parent[root] == -1
        assert sorted(order) == list(range(t.n))
        for v in order[1:]:
            assert v in t.adj[parent[v]] and position[parent[v]] < position[v]
        # each vertex's children sit next to each other, which `dp._top_down` relies on
        for u in range(t.n):
            at = sorted(position[w] for w in t.adj[u] if parent[w] == u)
            assert at == list(range(at[0], at[0] + len(at)) if at else [])


class TestClassification:
    def test_star(self):
        cls = classify_vertices(star(3))
        assert cls.leaves == frozenset({1, 2, 3})
        assert cls.twigs == frozenset({0})

    def test_p4(self):
        cls = classify_vertices(path(4))
        assert cls.leaves == frozenset({0, 3})
        assert cls.twigs == frozenset({1, 2})

    def test_single_vertex_rejected(self):
        with pytest.raises(TreeError, match="undefined"):
            classify_vertices(path(1))

    @given(random_trees())
    def test_partition(self, t):
        if t.n == 1:
            return
        cls = classify_vertices(t)
        internal = frozenset(v for v in range(t.n) if t.degree(v) >= 2)
        assert cls.leaves | internal == frozenset(range(t.n))
        assert not cls.leaves & internal
        assert cls.twigs <= internal

    @given(random_trees())
    def test_twigs_are_leaves_of_leaf_deleted(self, t):
        if t.n < 3:
            return
        cls = classify_vertices(t)
        inner, labels = leaf_deleted(t)
        if inner.n == 1:
            derived = {labels[0]}
        else:
            derived = {labels[v] for v in range(inner.n) if inner.degree(v) == 1}
        assert cls.twigs == derived


class TestPredicates:
    def test_series_reduced(self):
        assert is_series_reduced(star(3))
        assert not is_series_reduced(path(4))
        assert not is_series_reduced(path(1))
        assert not is_series_reduced(path(2))

    def test_leaf_deleted_path(self):
        inner, labels = leaf_deleted(path(4))
        assert inner == path(2) and labels == (1, 2)

    def test_leaf_deleted_star(self):
        inner, labels = leaf_deleted(star(3))
        assert inner.n == 1 and labels == (0,)

    def test_leaf_deleted_edge_rejected(self):
        with pytest.raises(TreeError):
            leaf_deleted(path(2))

    def test_diameter(self):
        assert diameter(path(7)) == 6
        assert diameter(star(3)) == 2
        assert diameter(path(1)) == 0
        assert diameter(path(20000)) == 19999

    @given(random_trees(max_n=40))
    def test_diameter_matches_all_pairs(self, t):
        assert diameter(t) == reference_diameter(t)

    def test_diameter_of_every_free_tree(self):
        # enumerated trees are rooted at a peripheral leaf 0; reversed, 0 sits deeper
        for n in range(1, 11):
            for t in enumerate_trees(n):
                flipped = Tree(n, [(n - 1 - u, n - 1 - v) for u, v in t.edges])
                assert diameter(t) == diameter(flipped) == reference_diameter(t)

    @pytest.mark.parametrize("name, params", [
        ("path", {"n": 9}), ("star", {"m": 5}), ("star_chain", {"s": 4, "p": 3}),
        ("broom", {"m": 3, "k": 4}), ("leafy_path", {"n": 9, "l": 3}),
        ("starfish", {"k": 3, "r": 4}),
    ], ids=["path", "star", "star_chain", "broom", "leafy_path", "starfish"])
    def test_diameter_of_families(self, name, params):
        t = families.make_family(families.FamilySpec(name, params))
        assert diameter(t) == reference_diameter(t)

    def test_diameter_walks_once(self, monkeypatch):
        # `Tree` keeps the walk from 0, so only the one from its last vertex is new
        t, calls = families.starfish(3, 4), []
        monkeypatch.setattr("subtree_density.tree.orient",
                            lambda adj, root: calls.append(root) or orient(adj, root))
        assert diameter(t) == 8 and calls == [t.order[-1]]
