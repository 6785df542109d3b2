"""Brute-force subtree enumeration: ground truth for the DP module.

Enumeration is anchored growth: for each vertex a in increasing order, all
connected subsets with minimum vertex a are grown by frontier extension
restricted to vertices > a.  Output size is linear in the number of subtrees.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Tuple

from .dp import SubtreeStats
from .tree import Tree, TreeError

DEFAULT_ORACLE_LIMIT = 18


def enumerate_subtrees(tree: Tree, limit: int = DEFAULT_ORACLE_LIMIT) -> Iterator[frozenset]:
    """Yield every nonempty connected vertex subset exactly once."""
    if tree.n > limit:
        raise TreeError(f"oracle refuses n = {tree.n} > limit {limit}")
    for anchor in range(tree.n):
        start = frozenset((anchor,))
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            yield cur
            for u in sorted(cur):
                for w in tree.adj[u]:
                    if w > anchor and w not in cur:
                        grown = cur | {w}
                        if grown not in seen:
                            seen.add(grown)
                            queue.append(grown)


def oracle_stats(tree: Tree, limit: int = DEFAULT_ORACLE_LIMIT) -> SubtreeStats:
    """SubtreeStats recomputed by direct tallying over the enumeration."""
    total = 0
    containment = [0] * tree.n
    for s in enumerate_subtrees(tree, limit):
        total += 1
        for v in s:
            containment[v] += 1
    return SubtreeStats.from_totals(tree, total, containment)


def oracle_vertex_profiles(tree: Tree, limit: int = DEFAULT_ORACLE_LIMIT) -> List[Tuple[int, int]]:
    """Per vertex: (number of subtrees containing it, sum of their orders)."""
    alpha = [0] * tree.n
    osum = [0] * tree.n
    for s in enumerate_subtrees(tree, limit):
        k = len(s)
        for v in s:
            alpha[v] += 1
            osum[v] += k
    return list(zip(alpha, osum))


def oracle_edge_counts(tree: Tree, edge, limit: int = DEFAULT_ORACLE_LIMIT) -> Tuple[int, int]:
    """(alpha_e, alpha_bar_e) by counting subsets containing both endpoints."""
    u, v = edge
    e = (u, v) if u < v else (v, u)
    if e not in tree.edges:
        raise TreeError(f"{e} is not an edge of the tree")
    alpha_e = 0
    total = 0
    for s in enumerate_subtrees(tree, limit):
        total += 1
        if u in s and v in s:
            alpha_e += 1
    return alpha_e, total - alpha_e


def dump_subsets(tree: Tree, limit: int = DEFAULT_ORACLE_LIMIT) -> Iterator[str]:
    """Debug rendering: one subset per line as comma-separated sorted indices."""
    for s in enumerate_subtrees(tree, limit):
        yield ",".join(str(v) for v in sorted(s))
