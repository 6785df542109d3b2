"""Undirected trees on vertices 0..n-1: validation, parsing, classification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

BLOCK_SEPARATOR = "---"


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

    Construction validates everything: endpoint ranges, no self-loops or
    duplicate edges, exactly n-1 edges, connectivity (acyclicity follows).
    `parent` and `order` are `orient(adj, 0)` as tuples, kept from that check.
    """

    __slots__ = ("n", "edges", "adj", "parent", "order")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
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
        for u, v in norm:  # sorted (u, v) with u < v keeps every list ascending
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(norm)
        self.adj = tuple(tuple(a) for a in adj)
        parent, order = orient(self.adj, 0)
        if len(order) != n:
            raise TreeError("graph is not connected")
        self.parent, self.order = tuple(parent), tuple(order)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Tree) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"


@dataclass(frozen=True)
class VertexClassification:
    leaves: frozenset
    internal: frozenset
    twigs: frozenset


def _content_lines(text: str):
    """(line number, content) of each line that is not blank once its comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_block(lines) -> Tree:
    n = None
    edges = []
    for lineno, line in lines:
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError("expected a single vertex count", lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise ParseError(f"invalid vertex count {fields[0]!r}", lineno) from None
            continue
        if len(fields) != 2:
            raise ParseError(f"expected an edge 'u v', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer edge endpoint in {line!r}", lineno) from None
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input: missing vertex count")
    return Tree(n, edges)


def parse_tree(text: str) -> Tree:
    """Parse the tree file format: first line n, then n-1 lines "u v".

    '#' starts a comment; blank lines are ignored.
    """
    return _parse_block(_content_lines(text))


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
    trees = [_parse_block(b) for b in blocks if b]
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
    """Partition vertices into leaves/internal and identify twigs.

    A twig is an internal vertex with at least d(v)-1 leaf neighbours,
    equivalently a leaf of the leaf-deleted tree.
    """
    if tree.n == 1:
        raise TreeError("classification undefined for single vertex")
    leaf_set = frozenset(v for v in range(tree.n) if tree.degree(v) == 1)
    internal = frozenset(v for v in range(tree.n) if tree.degree(v) >= 2)
    twigs = frozenset(
        v for v in internal
        if sum(1 for w in tree.adj[v] if w in leaf_set) >= tree.degree(v) - 1)
    return VertexClassification(leaves=leaf_set, internal=internal, twigs=twigs)


def is_series_reduced(tree: Tree) -> bool:
    """True iff the tree has an internal vertex and all internal degrees are >= 3."""
    if tree.n < 3:
        return False
    return all(tree.degree(v) != 2 for v in range(tree.n))


def _sweeps(adj: Sequence[Sequence[int]], start: int) -> List[List[int]]:
    """Distances from `start`, then from a vertex farthest from it, which ends a longest path.

    If `start` ends one too, v's eccentricity is the larger of its two distances.
    """
    dists, far = [], start
    for _ in range(2):
        parent, order = orient(adj, far)
        depth = [0] * len(adj)
        for w in order[1:]:
            depth[w] = depth[parent[w]] + 1
        dists.append(depth)
        far = max(range(len(adj)), key=depth.__getitem__)
    return dists


def diameter(tree: Tree) -> int:
    """Edge count of a longest path: the greatest distance from a vertex farthest from 0."""
    return max(_sweeps(tree.adj, 0)[1])
