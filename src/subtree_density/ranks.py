"""Vertex ranks, the coefficient sequence c_j, and lambda lower bounds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .tree import Tree, orient

_cache: List[Fraction] = [Fraction(1, 2)]


@dataclass(frozen=True)
class RankProfile:
    root: int
    ranks: Dict[int, int]
    m: Tuple[int, ...]


def c_sequence(count: int) -> List[Fraction]:
    """First `count` coefficients: c_j = 1 - (1 + j/2 + sum_{i<j} c_i) / (2^(j+1) + j)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    while len(_cache) < count:
        j = len(_cache)
        _cache.append(1 - Fraction(1 + Fraction(j, 2) + sum(_cache), 2 ** (j + 1) + j))
    return list(_cache[:count])


def rank_profile(tree: Tree, root: int) -> RankProfile:
    """Ranks of all non-root vertices; the root's rank is left undefined.

    A leaf (no children) has rank 0; any other vertex has rank one more
    than the maximum rank of its children.
    """
    parent, order = orient(tree, root)
    rank = [0] * tree.n
    for u in order[:0:-1]:
        p = parent[u]
        if p != root and rank[u] + 1 > rank[p]:
            rank[p] = rank[u] + 1
    ranks = {v: rank[v] for v in range(tree.n) if v != root}
    m = [0] * (max(ranks.values()) + 1) if ranks else []
    for r in ranks.values():
        m[r] += 1
    return RankProfile(root=root, ranks=ranks, m=tuple(m))


def is_rooted_series_reduced(tree: Tree, root: int) -> bool:
    """Membership in the rooted class: root degree >= 2, every other
    internal vertex degree >= 3, or the single-vertex tree."""
    if tree.n == 1:
        return True
    if tree.degree(root) < 2:
        return False
    return all(
        tree.degree(v) != 2
        for v in range(tree.n)
        if v != root
    )


def rank_lower_bound(tree: Tree, root: int) -> Fraction:
    """1 + sum_j c_j * m_j; guaranteed <= lambda(T, root) on the rooted class."""
    profile = rank_profile(tree, root)
    if not profile.m:
        return Fraction(1)
    cs = c_sequence(len(profile.m))
    return 1 + sum(c * mj for c, mj in zip(cs, profile.m))


def simple_lower_bound(tree: Tree, root: int) -> Fraction:
    """(n+1)/2 + (k-1)/10 with k the non-leaf count, root never a leaf."""
    n = tree.n
    if n == 1:
        return Fraction(1)
    k = sum(1 for v in range(n) if v == root or tree.degree(v) >= 2)
    return Fraction(n + 1, 2) + Fraction(k - 1, 10)
