"""Brute-force subtree enumeration: ground truth for the DP module.

Enumeration is anchored growth: for each vertex a in increasing order, all
connected subsets with minimum vertex a are grown by frontier extension
restricted to vertices > a.  Output size is linear in the number of subtrees.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Tuple

from .dp import SubtreeStats
from .tree import Tree, TreeError

ORACLE_LIMIT = 18


def enumerate_subtrees(tree: Tree) -> Iterator[frozenset]:
    """Yield every nonempty connected vertex subset exactly once."""
    if tree.n > ORACLE_LIMIT:
        raise TreeError(f"oracle refuses n = {tree.n} > limit {ORACLE_LIMIT}")
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


def oracle_tally(tree: Tree) -> Tuple[int, List[int], List[int], Dict[Tuple[int, int], int]]:
    """One pass over every subtree: (N(T), alpha, sigma, alpha_e).

    alpha[v] counts the subtrees containing v and sigma[v] sums their
    orders; alpha_e maps each edge (u, w), u < w, to the number of subtrees
    containing both ends.
    """
    total = 0
    alpha = [0] * tree.n
    sigma = [0] * tree.n
    alpha_e = dict.fromkeys(tree.edges, 0)
    for s in enumerate_subtrees(tree):
        k = len(s)
        total += 1
        for u in s:
            alpha[u] += 1
            sigma[u] += k
            for w in tree.adj[u]:
                if w > u and w in s:
                    alpha_e[u, w] += 1
    return total, alpha, sigma, alpha_e


def oracle_stats(tree: Tree) -> SubtreeStats:
    """SubtreeStats recomputed by direct tallying over the enumeration."""
    total, alpha, _, _ = oracle_tally(tree)
    return SubtreeStats.from_totals(tree, total, alpha)


def dump_subsets(tree: Tree) -> Iterator[str]:
    """Debug rendering: one subset per line as comma-separated sorted indices."""
    for s in enumerate_subtrees(tree):
        yield ",".join(str(v) for v in sorted(s))
