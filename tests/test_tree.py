import pytest
from hypothesis import given, settings, strategies as st

from subtree_density.enumeration import prufer_to_tree
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


def path(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(m):
    return Tree(m + 1, [(0, i) for i in range(1, m + 1)])


def random_trees(max_n=12):
    """Hypothesis strategy: labeled trees from Pruefer sequences."""
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        if n <= 2:
            return path(n)
        seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        return prufer_to_tree(seq, n)
    return st.composite(build)()


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

    def test_roundtrip(self):
        t = Tree(5, [(3, 4), (0, 1), (1, 2), (2, 3)])
        assert parse_tree(serialize(t)) == t

    @given(random_trees())
    def test_roundtrip_property(self, t):
        assert parse_tree(serialize(t)) == t

    @given(random_trees())
    def test_adjacency_ascending(self, t):
        assert all(list(a) == sorted(a) for a in t.adj)


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
        assert cls.leaves | cls.internal == frozenset(range(t.n))
        assert not cls.leaves & cls.internal
        assert cls.twigs <= cls.internal

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
