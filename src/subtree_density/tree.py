"""Undirected trees on vertices 0..n-1: validation, parsing, classification."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from .rationals import _int_text

BLOCK_SEPARATOR = "---"
SIZE_CAP = 10 ** 6  # largest sample n_target and family member; sampling 10**7 runs out of memory


class TreeError(ValueError):
    """Structurally invalid tree or invalid parameters."""


class ParseError(TreeError):
    """Malformed tree file input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Tree:
    """Immutable tree with a canonical, lexicographically sorted edge list.

    `Tree(n, edges)` validates everything: endpoint ranges, no self-loops or
    duplicate edges, exactly n-1 edges, connectivity (acyclicity follows).
    `parent` and `order` are `orient(adj, 0)` as tuples, kept from that check.
    """

    __slots__ = ("n", "_edges", "adj", "parent", "order")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if not isinstance(n, int) or n < 1:
            raise TreeError("vertex count must be a positive integer")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # `_diagnose` reads them again
        norm = sorted([(u, v) if u < v else (v, u) for u, v in edges])
        # n-1 edges within range that reach all n vertices hold no self-loop or repeat
        if len(norm) != n - 1 or norm and (norm[0][0] < 0 or max(map(itemgetter(1), norm)) >= n):
            _diagnose(n, edges, norm)
        adj = [[] for _ in range(n)]
        for u, v in norm:  # sorted (u, v) with u < v keeps every list ascending
            adj[u].append(v)
            adj[v].append(u)
        self.n, self._edges = n, tuple(norm)
        self.adj = tuple(tuple(a) for a in adj)
        parent, order = orient(self.adj, 0)
        if len(order) != n:
            _diagnose(n, edges, norm)
        self.parent, self.order = tuple(parent), tuple(order)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        if self._edges is None:  # ascending `adj` lists give the pairs in sorted order
            self._edges = tuple([(u, v) for u, a in enumerate(self.adj) for v in a if u < v])
        return self._edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Tree) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"


def _assemble(adj, parent, order) -> Tree:
    """A `Tree` of checked fields: ascending `adj` lists, then `orient(adj, 0)` as tuples."""
    tree = object.__new__(Tree)
    tree.n, tree._edges, tree.adj, tree.parent, tree.order = len(adj), None, adj, parent, order
    return tree


def _shown(x) -> str:
    """str(x), cut to 40 characters and its length; ints print at any digit count."""
    text = _int_text(x) if isinstance(x, int) else str(x)
    return text if len(text) <= 40 else f"{text[:40]}… ({len(text)} characters)"


def _diagnose(n: int, edges, norm) -> None:
    """Raise the first fault: an edge's range, then its self-loop, in input order; a
    repeat in the sorted `norm`; the edge count; connectivity."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise TreeError(f"edge endpoint out of range [0, {_shown(n)}): "
                            f"({_shown(u)}, {_shown(v)})")
        if u == v:
            raise TreeError(f"self-loop at vertex {_shown(u)}")
    for a, b in zip(norm, norm[1:]):
        if a == b:
            raise TreeError(f"duplicate edge ({_shown(a[0])}, {_shown(a[1])})")
    if len(norm) != n - 1:
        raise TreeError(f"edge count {len(norm)} != n-1 = {_shown(n - 1)}")
    raise TreeError("graph is not connected")


@dataclass(frozen=True)
class VertexClassification:
    leaves: frozenset
    twigs: frozenset


def _content_lines(text: str) -> List[Tuple[int, str]]:
    """(line number, content) of each line that is not blank once its comment is cut."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [(lineno, line) for lineno, raw in enumerate(lines, start=1) if (line := raw.strip())]


def _quoted(text: str) -> str:
    """repr(text), or of its first 40 characters and its length when it is longer."""
    return repr(text) if len(text) <= 40 else f"{text[:40] + '…'!r} ({len(text)} characters)"


def _parse_block(lines: List[Tuple[int, str]]) -> Tuple[int, List[Tuple[int, int]]]:
    """(n, edges) of one tree's content lines; the caller's `Tree` runs once they are freed."""
    if not lines:
        raise ParseError("empty input: missing vertex count")
    lineno, fields = lines[0][0], lines[0][1].split()
    if len(fields) != 1:
        raise ParseError("expected a single vertex count", lineno)
    try:
        n = int(fields[0])
    except ValueError:
        raise ParseError(f"invalid vertex count {_quoted(fields[0])}", lineno) from None
    try:
        edges = [(int(u), int(v)) for u, v in map(str.split, map(itemgetter(1), lines[1:]))]
    except ValueError:  # read again, to name the first bad line
        for lineno, line in lines[1:]:
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(f"expected an edge 'u v', got {_quoted(line)}", lineno) from None
            try:
                int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(f"non-integer edge endpoint in {_quoted(line)}", lineno) from None
        raise
    return n, edges


def parse_tree(text: str) -> Tree:
    """Parse the tree file format: first line n, then n-1 lines "u v".

    '#' starts a comment; blank lines are ignored.
    """
    return Tree(*_parse_block(_content_lines(text)))


def parse_trees(text: str) -> List[Tree]:
    """Parse a file of trees in the `parse_tree` format, separated by `---` lines.

    A separator is a line that reads exactly `---` once its comment is cut.
    Error line numbers count from the start of the file.
    """
    blocks: List[list] = [[]]
    for lineno, line in _content_lines(text):
        if line == BLOCK_SEPARATOR:
            blocks.append([])
        else:
            blocks[-1].append((lineno, line))
    trees = [Tree(*_parse_block(b)) for b in blocks if b]
    if not trees:
        raise ParseError("empty input: no tree")
    return trees


def orient(adj: Sequence[Sequence[int]], root: int) -> Tuple[List[int], List[int]]:
    """Parent array (-1 at the root) and breadth-first discovery order from `root`.

    `adj` lists each vertex's neighbours, as `Tree.adj` does.  Every vertex
    comes after its parent in that order, so walking it forwards goes
    top-down and walking it backwards meets children first; a vertex's
    children sit next to each other, in `adj` order.
    """
    parent = [-2] * len(adj)
    parent[root] = -1
    order = [root]
    for u in order:  # the loop reaches what it appends: breadth-first
        for w in adj[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
    return parent, order


def serialize(tree: Tree) -> str:
    """Canonical text form; parse(serialize(t)) == t."""
    lines = [str(tree.n)]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"


def classify_vertices(tree: Tree) -> VertexClassification:
    """The leaves (degree one) and the twigs.

    A twig is an internal vertex with at least d(v)-1 leaf neighbours,
    equivalently a leaf of the leaf-deleted tree.
    """
    if tree.n == 1:
        raise TreeError("classification undefined for single vertex")
    leaf_set = frozenset(v for v in range(tree.n) if tree.degree(v) == 1)
    twigs = frozenset(v for v, a in enumerate(tree.adj)
                      if len(a) >= 2 and sum(w in leaf_set for w in a) >= len(a) - 1)
    return VertexClassification(leaves=leaf_set, twigs=twigs)


def is_series_reduced(tree: Tree) -> bool:
    """True iff the tree has an internal vertex and all internal degrees are >= 3."""
    return tree.n >= 3 and 2 not in map(len, tree.adj)


def _depths(adj: Sequence[Sequence[int]], root: int) -> Tuple[List[int], List[int], List[int]]:
    """`orient(adj, root)` and each vertex's distance from `root`, in one walk of its order."""
    parent, order = orient(adj, root)
    depth = [0] * len(adj)
    for w in order[1:]:
        depth[w] = depth[parent[w]] + 1
    return parent, order, depth


def diameter(tree: Tree) -> int:
    """Edge count of a longest path: the greatest distance from `tree.order[-1]`,
    a vertex farthest from 0, since the stored order is breadth-first from 0."""
    return max(_depths(tree.adj, tree.order[-1])[2])
