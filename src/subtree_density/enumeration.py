"""Free-tree enumeration up to isomorphism, canonical forms, random sampling.

Rooted trees are generated by the level-sequence successor method (each
rooted isomorphism class exactly once, in decreasing lexicographic order of
canonical level sequence); free trees are obtained by deduplicating on a
centroid-rooted canonical form.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, List, Tuple

from .tree import Tree, TreeError, is_series_reduced, orient

ENUM_CAP = 18
SAMPLE_RETRIES = 1000


def rooted_level_sequences(n: int) -> Iterator[Tuple[int, ...]]:
    """Canonical level sequences of all rooted trees on n vertices.

    Levels start at 0 for the root.  Successor rule: find the last entry
    p with level > 1, locate its parent q, then repeat the segment L[q:p]
    cyclically to the end.
    """
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


def tree_from_level_sequence(levels: Tuple[int, ...]) -> Tree:
    """Build the tree; vertex i's parent is the last j < i at level[i]-1."""
    n = len(levels)
    last_at = {levels[0]: 0}
    edges = []
    for i in range(1, n):
        parent = last_at[levels[i] - 1]
        edges.append((parent, i))
        last_at[levels[i]] = i
    return Tree(n, edges)


def centroids(tree: Tree) -> List[int]:
    """The one or two vertices minimising the largest component of T - v."""
    n = tree.n
    parent, order = orient(tree, 0)
    size = [1] * n
    heavy = [0] * n  # size of the largest child subtree
    for u in order[:0:-1]:
        p = parent[u]
        size[p] += size[u]
        if size[u] > heavy[p]:
            heavy[p] = size[u]
    best = None
    found: List[int] = []
    for v in range(n):
        weight = max(heavy[v], n - size[v])
        if best is None or weight < best:
            best = weight
            found = [v]
        elif weight == best:
            found.append(v)
    return found


def _rooted_code(tree: Tree, root: int) -> tuple:
    """Nested-tuple AHU code of the tree rooted at `root` (iterative)."""
    parent, order = orient(tree, root)
    codes: List[tuple] = [()] * tree.n
    kids = [[] for _ in range(tree.n)]
    for u in order[:0:-1]:
        codes[u] = tuple(sorted(kids[u], reverse=True))
        kids[parent[u]].append(codes[u])
    codes[root] = tuple(sorted(kids[root], reverse=True))
    return codes[root]


def _flatten(code: tuple) -> Tuple[int, ...]:
    out = []
    stack = [(code, 0)]
    while stack:
        node, depth = stack.pop()
        out.append(depth)
        # push children reversed so they emerge in canonical order
        for child in reversed(node):
            stack.append((child, depth + 1))
    return tuple(out)


def canonical_form(tree: Tree) -> Tuple[int, ...]:
    """Canonical level sequence, rooted at the centroid.

    For bicentroidal trees the lexicographically smaller of the two
    encodings is used.  Equal forms iff isomorphic.
    """
    return min(_flatten(_rooted_code(tree, c)) for c in centroids(tree))


def enumerate_trees(n: int, series_reduced: bool = False) -> Iterator[Tree]:
    """One representative per free-tree isomorphism class on n vertices.

    Series-reducedness is an isomorphism invariant, so filtering before the
    dedup drops whole classes and keeps the same first representative of
    every other one.
    """
    if not 1 <= n <= ENUM_CAP:
        raise TreeError(f"enumeration requires 1 <= n <= {ENUM_CAP}, got {n}")
    seen = set()
    for levels in rooted_level_sequences(n):
        tree = tree_from_level_sequence(levels)
        if series_reduced and not is_series_reduced(tree):
            continue
        code = canonical_form(tree)
        if code in seen:
            continue
        seen.add(code)
        yield tree


def prufer_to_tree(seq: List[int], n: int) -> Tree:
    """Labeled tree on n >= 2 vertices from a Pruefer sequence of length n-2."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(n, edges)


def random_labeled_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n == 1:
        return Tree(1, [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return prufer_to_tree(seq, n)


def suppress_degree_two(tree: Tree) -> Tree:
    """Homeomorphic reduction: splice out every degree-2 vertex.

    Vertices of degree != 2 are kept and relabeled 0..k-1 in original
    label order; each maximal chain of degree-2 vertices becomes one edge.
    Every tree keeps at least one vertex: a leaf, or its single vertex.
    """
    kept = [v for v in range(tree.n) if tree.degree(v) != 2]
    index = {v: i for i, v in enumerate(kept)}
    edges = set()
    for u in kept:
        for w in tree.adj[u]:
            prev, cur = u, w
            while tree.degree(cur) == 2:
                a, b = tree.adj[cur]
                prev, cur = cur, (b if a == prev else a)
            if u < cur:
                edges.add((index[u], index[cur]))
    return Tree(len(kept), sorted(edges))


def sample_series_reduced(n_target: int, seed: int) -> Tree:
    """Deterministic random series-reduced tree with at least n_target vertices.

    Draws uniform labeled trees on n_target + slack vertices and suppresses
    degree-2 vertices; grows the slack until the reduction is large enough.
    """
    if n_target < 4:
        raise TreeError("sample_series_reduced requires n_target >= 4")
    rng = random.Random(seed)
    size = max(n_target + 4, (n_target * 5) // 3)
    for _ in range(SAMPLE_RETRIES):
        candidate = suppress_degree_two(random_labeled_tree(size, rng))
        if candidate.n >= n_target and is_series_reduced(candidate):
            return candidate
        size += max(1, size // 10)
    raise TreeError(f"failed to sample a series-reduced tree after {SAMPLE_RETRIES} retries")
