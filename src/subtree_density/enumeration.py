"""Free-tree enumeration up to isomorphism, canonical forms, random sampling.

Each free tree is built once, around its centre (Jordan 1869), from pooled rooted trees, as
Wright, Richmond, Odlyzko and McKay (1986) generate them: with diameter 2R, a centre above
branches of height at most R - 1, two of them that tall; with diameter 2h + 1, two halves
of height h joined at the central edge.  Each class's representative is read off its build.
Canonical forms are `_form` strings, compared as level sequences.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Dict, Iterator, List, Sequence, Tuple

from .tree import SIZE_CAP, Tree, TreeError, _depths, _shown

ENUM_CAP = 18
SAMPLE_RETRIES = 1000
FORM_CAP = 2 * 0x10FFFF + 1  # chr() stops at 0x10FFFF, and centroids are at depth <= n // 2


def _multisets(pool: List[bytes], total: int, start: int = 0) -> Iterator[List[bytes]]:
    """Multisets of trees from pool[start:], which is sorted by size, with `total` vertices."""
    if total == 0:
        yield []
    for i in range(start, len(pool)):
        if len(pool[i]) > total:
            return
        for rest in _multisets(pool, total - len(pool[i]), i):
            rest.append(pool[i])
            yield rest


def _shifts(top: int) -> List[bytes]:
    """`bytes.translate` tables that add k to every level, for k = 0..top."""
    return [bytes(range(k, 256)) + bytes(k) for k in range(top + 1)]


def _rooted_pool(m: int, series_reduced: bool, bound: int) -> Dict[bytes, bytes]:
    """Rooted trees on at most m vertices with size + height <= bound, by size; under
    `series_reduced`, no one-child vertex.  Maps each canonical level sequence, one byte a
    level, to its tail: the walk down from its root into the last of its tallest children,
    and on to a deepest leaf, where each vertex first lists its other children, in
    decreasing order, with their roots at level (its height + 1)."""
    shift = _shifts(m + 1)
    tails = {b"\0": b""}  # one vertex, with nothing below it
    for size in range(2, m + 1):
        for kids in _multisets([f for f in tails if size + max(f) < bound], size - 1):
            if series_reduced and len(kids) == 1:
                continue
            kids.sort(reverse=True)  # the tallest first
            form = b"\0" + b"".join(kids).translate(shift[1])
            height = max(kids[0])
            step = kids.pop([max(k) for k in kids].count(height) - 1)
            tails[form] = b"".join(kids).translate(shift[height + 2]) + tails[step]
    return tails


def rooted_level_sequences(n: int) -> Iterator[Tuple[int, ...]]:
    """Canonical level sequences of all rooted trees on n vertices, in decreasing order."""
    yield from sorted((tuple(f) for f in _rooted_pool(n, False, 2 * n) if len(f) == n),
                      reverse=True)  # size + height < 2n: no bound


def _representatives(n: int, series_reduced: bool) -> Iterator[bytes]:
    """The greatest leaf-rooted level sequence of each free tree on n vertices, built
    around its centre from branches whose size + height is at most n - 1."""
    if series_reduced and n < 3:
        return  # a series-reduced tree has an internal vertex
    if n == 1:
        yield b"\0"
        return
    tails = _rooted_pool(n - 1, series_reduced, n - 1)
    shift = _shifts(n)
    for height in range(n // 2):  # of the tallest branches, at least two
        tall = [f for f in tails if max(f) == height]
        for pair in _multisets(tall, n):  # diameter 2 * height + 1: two joined halves
            if len(pair) == 2:
                big, small = sorted(pair, reverse=True)
                yield bytes(range(height + 1)) + big.translate(shift[height + 1]) + tails[small]
        short = [f for f in tails if max(f) < height]
        head, up = bytes(range(height + 2)), shift[height + 2]
        for size in range(2 * height + 2, n):  # diameter 2 * height + 2: a centre above
            lows = [sorted(low, reverse=True) for low in _multisets(short, n - 1 - size)]
            for highs in _multisets(tall, size):
                if len(highs) < 2:
                    continue
                highs.sort(reverse=True)
                step = tails[highs.pop()]  # the same walk as `_rooted_pool`'s tails
                for low in lows:  # under `series_reduced`, with step's branch, three or more
                    if len(highs) + len(low) >= 2 or not series_reduced:
                        yield head + b"".join(highs + low).translate(up) + step


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


def check_enum_size(n: int) -> None:
    """Raise TreeError unless enumerate_trees accepts n."""
    if not 1 <= n <= ENUM_CAP:
        raise TreeError(f"enumeration requires 1 <= n <= {ENUM_CAP}, got {_shown(n)}")


def enumerate_trees(n: int, series_reduced: bool = False) -> Iterator[Tree]:
    """One representative per free-tree isomorphism class on n vertices.

    A class's representative is its greatest canonical level sequence rooted
    at a leaf, labelled in preorder; the classes come out in decreasing order
    of it.  Rooted at r the sequence starts 0, 1, ..., ecc(r), so r is a leaf
    at the radius from the centre; for diameter 2h + 1, in the smaller half,
    so that the larger half, hanging one level below, comes first.  Then comes
    the walk down from the centre to r: each vertex on it lists its other
    children, in decreasing order, before anything further down, so the walk
    steps into the last child that still reaches r's depth.  Equal choices are
    isomorphic.
    """
    check_enum_size(n)
    for form in sorted(_representatives(n, series_reduced), reverse=True):
        yield tree_from_level_sequence(form)


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
