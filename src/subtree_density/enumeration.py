"""Free-tree enumeration up to isomorphism, canonical forms, random sampling.

Each free tree is built once, around its centre (Jordan 1869), from pooled rooted trees, as
Wright, Richmond, Odlyzko and McKay (1986) generate them: with diameter 2R, a centre above
branches of height at most R - 1, two of them that tall; with diameter 2h + 1, two halves
of height h joined at the central edge.  Each class's representative is read off its build.
Canonical forms are `_form` strings, compared as level sequences.  A sample is read off a
random Pruefer sequence (Pruefer 1918) by one decode that splices out its degree-2 chains.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Dict, Iterator, List, Sequence, Tuple

from .tree import SIZE_CAP, Tree, TreeError, _assemble, _depths, _shown, orient

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


def tree_from_level_sequence(levels: Sequence[int]) -> Tree:
    """The tree labelled in preorder: i's parent is the last vertex before it one level up, and
    `adj[i]` lists it, then i's children.  Levels start at 0, each next in 1..(previous + 1)."""
    if not levels:
        raise TreeError("vertex count must be a positive integer")
    if levels[0] != 0:
        raise TreeError(f"level sequence must start at 0, got {_shown(levels[0])} at index 0")
    n, top = len(levels), 1  # top: the deepest level that vertex i may take
    adj, parent, last = [[] for _ in range(n)], [-1] * n, [0] * n  # last[d]: latest at level d
    for i in range(1, n):
        d = levels[i]
        if not 0 < d <= top:
            raise TreeError(f"level {_shown(d)} at index {i} is not in 1..{top}")
        p = parent[i] = last[d - 1]
        adj[p].append(i)
        adj[i].append(p)
        last[d], top = i, d + 1
    return _assemble(tuple(map(tuple, adj)), tuple(parent),
                     tuple(sorted(range(n), key=levels.__getitem__)))  # breadth-first from 0


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


def _spliced(seq: Sequence[int], degree: List[int]) -> Tree:
    """The labeled tree with Pruefer sequence `seq` and degrees `degree`, with each maximal
    chain of degree-2 vertices spliced into one edge and the kept vertices numbered 0..k-1 in
    label order, built in one decode that uses up `degree`.

    The decode is linear: `ptr` only moves up; an x that turns into a leaf below it is the
    smallest leaf.  Each leaf it removes hangs from its entry, below vertex n - 1, the root:
    `up[v]` is the kept end of the chain from v down, v itself if it is kept, else what its
    one child passed up.  A degree-2 root joins its two chains."""
    n = len(degree)
    up, k = [-1] * n, 0
    for v, d in enumerate(degree):
        if d != 2:
            up[v], k = k, k + 1
    adj = [[] for _ in range(k)]
    leaf = ptr = degree.index(1)
    for x in seq:
        u, w = up[leaf], up[x]
        if w < 0:
            up[x] = u
        else:
            adj[u].append(w)
            adj[w].append(u)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    u, w = up[leaf], up[n - 1]
    adj[u].append(w)
    adj[w].append(u)
    adj = tuple(map(tuple, map(sorted, adj)))  # ascending, as `Tree` builds them
    parent, order = orient(adj, 0)
    return _assemble(adj, tuple(parent), tuple(order))


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
    A draw's degrees alone give its kept count, so only the draw it returns is
    decoded, straight into the reduced tree.  The Pruefer entries are the values
    `rng.randrange(size)` would give.  Given the size K of the result, each
    labeled series-reduced tree on K vertices is equally likely.
    """
    if n_target < 4:
        raise TreeError("sample_series_reduced requires n_target >= 4")
    if n_target > SIZE_CAP:
        raise TreeError(f"sample_series_reduced requires n_target <= {SIZE_CAP}, "
                        f"got {_shown(n_target)}")
    rng = random.Random(seed)
    size = max(n_target + 4, (n_target * 5) // 3)
    for _ in range(SAMPLE_RETRIES):
        seq = _draws(rng, size, size - 2)
        degree = [1] * size
        for x in seq:
            degree[x] += 1
        if size - degree.count(2) >= n_target:  # an entry drawn once is a degree-2 vertex
            return _spliced(seq, degree)
        size += max(1, size // 10)
    raise TreeError(f"failed to sample a series-reduced tree after {SAMPLE_RETRIES} retries")
