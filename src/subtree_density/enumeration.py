"""Free-tree enumeration up to isomorphism, canonical forms, random sampling.

Each tree is built once, as a root above a multiset of smaller rooted trees:
a free tree is its centroid above branches of fewer than n/2 vertices, or
two n/2-vertex rooted trees joined at the central edge (Otter 1948).
Representatives and canonical forms are `_form` strings, compared as level sequences.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterator, List, Sequence, Tuple

from .tree import SIZE_CAP, Tree, TreeError, _depths, _shown

ENUM_CAP = 18
SAMPLE_RETRIES = 1000
FORM_CAP = 2 * 0x10FFFF + 1  # chr() stops at 0x10FFFF, and centroids are at depth <= n // 2


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


def _form(parent: Sequence[int], order: Sequence[int], depth: Sequence[int]) -> str:
    """The level sequence of a `tree._depths` rooting as a string: chr(depth) of each vertex,
    then its children's forms, largest first.  Siblings share a depth, so no branch is shifted."""
    below: List[list] = [[] for _ in range(len(order) + 1)]  # the root's parent -1 is the last
    for u in reversed(order):
        kids = below[u]
        below[u] = None  # a path would otherwise keep quadratically many characters
        kids.sort(reverse=True)
        below[parent[u]].append(chr(depth[u]) + "".join(kids))
    return below[-1][0]


def canonical_form(tree: Tree) -> Tuple[int, ...]:
    """Canonical level sequence, rooted at the centroid.

    For bicentroidal trees the lexicographically smaller of the two
    encodings is used.  Equal forms iff isomorphic.  n <= FORM_CAP = 2,228,223.
    """
    if tree.n > FORM_CAP:
        raise TreeError(f"canonical_form requires n <= {FORM_CAP}, got {_shown(tree.n)}")
    return tuple(map(ord, min(_form(*_depths(tree.adj, c)) for c in centroids(tree))))


def _representative(levels: List[int]) -> str:
    """The greatest leaf-rooted `_form` of the tree with these levels.  Sweeps from a, an end
    of a longest path, and from b, last in a's order, give ecc(v) = max(d(a, v), d(b, v)) and
    root it at a and b; each other peripheral leaf, one per neighbour, is rooted once more."""
    adj: List[List[int]] = [[] for _ in levels]
    for p, c in _level_edges(levels):
        adj[p].append(c)
        adj[c].append(p)
    first = _depths(adj, levels.index(max(levels)))  # the deepest vertex is an a
    second = _depths(adj, first[1][-1])
    near, far, diam = first[2], second[2], max(first[2])
    rootings = {tuple(adj[r[1][0]]): r for r in (second, first)}  # a's, on a star
    for v, nbrs in enumerate(adj):
        if max(near[v], far[v]) == diam and tuple(nbrs) not in rootings:
            rootings[tuple(nbrs)] = _depths(adj, v)
    return max(_form(*r) for r in rootings.values())


def check_enum_size(n: int) -> None:
    """Raise TreeError unless enumerate_trees accepts n."""
    if not 1 <= n <= ENUM_CAP:
        raise TreeError(f"enumeration requires 1 <= n <= {ENUM_CAP}, got {_shown(n)}")


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
    for form in sorted(found, reverse=True):
        yield tree_from_level_sequence(list(map(ord, form)))


def _prufer_neighbours(seq: Sequence[int], n: int) -> List[List[int]]:
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


def _suppressed(adj: Sequence[Sequence[int]]) -> Tuple[int, List[Tuple[int, int]]]:
    """(vertex count, edges) of the tree `adj` with its degree-2 vertices spliced out.

    Vertices of degree != 2 are kept and relabeled 0..k-1 in original
    label order; each maximal chain of degree-2 vertices becomes one edge.
    Every tree keeps at least one vertex: a leaf, or its single vertex.
    """
    kept = [v for v, a in enumerate(adj) if len(a) != 2]
    index = [0] * len(adj)
    for i, v in enumerate(kept):
        index[v] = i
    edges = []  # each chain once, from its smaller end; `Tree` sorts them
    for u in kept:
        for w in adj[u]:
            prev, cur = u, w
            while len(adj[cur]) == 2:
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            if u < cur:
                edges.append((index[u], index[cur]))
    return len(kept), edges


def _draws(rng: random.Random, size: int, count: int) -> List[int]:
    """`count` values of rng.randrange(size), leaving rng as those calls would: randrange
    redraws getrandbits(k) until below size, and each round draws just the count still missing."""
    bits, k, out = rng.getrandbits, size.bit_length(), []
    while len(out) < count:
        out += [r for r in map(bits, repeat(k, count - len(out))) if r < size]
    return out


def sample_series_reduced(n_target: int, seed: int) -> Tree:
    """Deterministic random series-reduced tree with at least n_target vertices,
    for 4 <= n_target <= SIZE_CAP.

    Draws uniform labeled trees on n_target + slack vertices and suppresses
    degree-2 vertices; grows the slack until the reduction is large enough.
    Each draw stays a neighbour list: only the reduced tree it returns is a `Tree`.
    The Pruefer entries are the values `rng.randrange(size)` would give.
    """
    if n_target < 4:
        raise TreeError("sample_series_reduced requires n_target >= 4")
    if n_target > SIZE_CAP:
        raise TreeError(f"sample_series_reduced requires n_target <= {SIZE_CAP}, "
                        f"got {_shown(n_target)}")
    rng = random.Random(seed)
    size = max(n_target + 4, (n_target * 5) // 3)
    for _ in range(SAMPLE_RETRIES):
        n, edges = _suppressed(_prufer_neighbours(_draws(rng, size, size - 2), size))
        if n >= n_target:  # kept vertices keep their degrees, none of them 2
            return Tree(n, edges)
        size += max(1, size // 10)
    raise TreeError(f"failed to sample a series-reduced tree after {SAMPLE_RETRIES} retries")
