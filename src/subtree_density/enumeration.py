"""Free-tree enumeration up to isomorphism, canonical forms, random sampling.

Each tree is built once, as a root above a multiset of smaller rooted trees:
a free tree is its centroid above branches of fewer than n/2 vertices, or
two n/2-vertex rooted trees joined at the central edge (Otter 1948).
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, List, Sequence, Tuple

from .tree import Tree, TreeError, _sweeps, is_series_reduced, orient

ENUM_CAP = 18
SAMPLE_RETRIES = 1000


def _hang(branches: List[List[int]]) -> List[int]:
    """Canonical level sequence of a new root above `branches`, largest first."""
    levels = [0]
    for branch in sorted(branches, reverse=True):
        levels += [x + 1 for x in branch]
    return levels


def _multisets(pool: List[List[int]], total: int, start: int = 0) -> Iterator[List[List[int]]]:
    """Multisets of trees from pool[start:], which is sorted by size, with `total` vertices."""
    if total == 0:
        yield []
    for i in range(start, len(pool)):
        if len(pool[i]) > total:
            return
        for rest in _multisets(pool, total - len(pool[i]), i):
            rest.append(pool[i])
            yield rest


def _rooted_pool(m: int, series_reduced: bool) -> List[List[int]]:
    """Rooted trees on at most m vertices, by size; under `series_reduced`, no one-child vertex."""
    pool: List[List[int]] = []
    for size in range(1, m + 1):
        pool += [_hang(branches) for branches in _multisets(pool, size - 1)
                 if not (series_reduced and len(branches) == 1)]
    return pool


def rooted_level_sequences(n: int) -> Iterator[Tuple[int, ...]]:
    """Canonical level sequences of all rooted trees on n vertices, in decreasing order."""
    yield from sorted((tuple(s) for s in _rooted_pool(n, False) if len(s) == n), reverse=True)


def _free_level_sequences(n: int, series_reduced: bool) -> Iterator[List[int]]:
    """A level sequence of each free tree on n vertices, built around its centroid."""
    if series_reduced and n < 3:
        return  # a series-reduced tree has an internal vertex
    pool = _rooted_pool(n // 2, series_reduced)
    for branches in _multisets([s for s in pool if 2 * len(s) < n], n - 1):
        if len(branches) >= 3 or not series_reduced:
            yield _hang(branches)
    for half, other in _multisets([s for s in pool if 2 * len(s) == n], n):
        yield half + [x + 1 for x in other]


def _level_edges(levels: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """(parent, i) for each vertex i > 0: its parent is the last j < i at level[i]-1."""
    last_at = {levels[0]: 0}
    for i in range(1, len(levels)):
        yield last_at[levels[i] - 1], i
        last_at[levels[i]] = i


def tree_from_level_sequence(levels: Sequence[int]) -> Tree:
    """Build the tree, labelled in preorder."""
    return Tree(len(levels), _level_edges(levels))


def centroids(tree: Tree) -> List[int]:
    """The one or two vertices minimising the largest component of T - v."""
    n, parent, order = tree.n, tree.parent, tree.order
    size = [1] * n
    heavy = [0] * n  # size of the largest child subtree
    for u in order[:0:-1]:
        p = parent[u]
        size[p] += size[u]
        if size[u] > heavy[p]:
            heavy[p] = size[u]
    # a centroid's largest component has at most n/2 vertices, and any other vertex's more
    return [v for v in range(n) if 2 * max(heavy[v], n - size[v]) <= n]


def _rooted_levels(adj: Sequence[Sequence[int]], root: int) -> List[int]:
    """Canonical level sequence of the tree with neighbour lists `adj`, rooted at `root`."""
    parent, order = orient(adj, root)
    below: List[list] = [[] for _ in adj]
    for u in order[:0:-1]:
        below[parent[u]].append(_hang(below[u]))
        below[u] = None  # a path would otherwise keep quadratically many levels
    return _hang(below[root])


def canonical_form(tree: Tree) -> Tuple[int, ...]:
    """Canonical level sequence, rooted at the centroid.

    For bicentroidal trees the lexicographically smaller of the two
    encodings is used.  Equal forms iff isomorphic.
    """
    return tuple(min(_rooted_levels(tree.adj, c) for c in centroids(tree)))


def _representative(levels: List[int]) -> List[int]:
    """The greatest leaf-rooted canonical level sequence of the tree with these levels."""
    adj: List[List[int]] = [[] for _ in levels]
    for p, c in _level_edges(levels):
        adj[p].append(c)
        adj[c].append(p)
    near, far = _sweeps(adj, levels.index(max(levels)))  # the deepest vertex ends a longest path
    diam = max(near)
    # peripheral vertices are leaves (or the one vertex); keep one per neighbour
    ends = {tuple(adj[v]): v for v in range(len(adj)) if max(near[v], far[v]) == diam}
    return max(_rooted_levels(adj, v) for v in ends.values())


def check_enum_size(n: int) -> None:
    """Raise TreeError unless enumerate_trees accepts n."""
    if not 1 <= n <= ENUM_CAP:
        raise TreeError(f"enumeration requires 1 <= n <= {ENUM_CAP}, got {n}")


def enumerate_trees(n: int, series_reduced: bool = False) -> Iterator[Tree]:
    """One representative per free-tree isomorphism class on n vertices.

    A class's representative is its greatest canonical level sequence rooted
    at a leaf, labelled in preorder; the classes come out in decreasing order
    of it.  Only peripheral leaves, one per neighbour, are tried as roots:
    - rooted at r the sequence starts 0, 1, ..., ecc(r), as the deepest
      branch sorts first, so only a leaf with ecc = diameter can attain it;
    - two leaves on one neighbour are swapped by an automorphism;
    - for the ends a, b of a longest path, ecc(v) = max(d(a, v), d(b, v));
      the generator's deepest vertex is such an a, so two sweeps find them.
    """
    check_enum_size(n)
    found = [_representative(levels) for levels in _free_level_sequences(n, series_reduced)]
    for levels in sorted(found, reverse=True):
        yield tree_from_level_sequence(levels)


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
