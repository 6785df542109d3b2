"""Vertex ranks, the coefficient sequence c_j, and lambda lower bounds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    if len(_cache) < count:
        total = sum(_cache)
        while len(_cache) < count:
            j = len(_cache)
            _cache.append(1 - Fraction(1 + Fraction(j, 2) + total, 2 ** (j + 1) + j))
            total += _cache[-1]
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


def rank_lower_bounds(tree: Tree) -> List[Fraction]:
    """rank_lower_bound(tree, r) for every vertex r, from one rerooting pass.

    Rooted at r, a non-root vertex v has rank h(p->v): the height of the
    branch at v pointing away from its parent p.  From vertex 0, the down
    pass gives down[v] = h(parent->v), which is one more than v's tallest
    child branch, and second[v], one more than its second tallest; the
    top-down pass gives up[v] = h(v->parent) from the parent's best other
    child and its own up-height.  Moving the root from u to a neighbour c
    changes one rank: h(u->c) leaves the histogram and h(c->u) enters it,
    so bound(c) = bound(u) - c_{h(u->c)} + c_{h(c->u)}.
    """
    parent, order = orient(tree, 0)
    down = [0] * tree.n      # 1 + the largest child height, 0 at a leaf
    second = [0] * tree.n    # 1 + the second largest, 0 if there is none
    for v in order[:0:-1]:
        p, h = parent[v], down[v] + 1
        if h > down[p]:
            second[p], down[p] = down[p], h
        elif h > second[p]:
            second[p] = h
    up = [-1] * tree.n       # up[0] = -1 gives the root's children no parent branch
    for v in order[1:]:
        p = parent[v]
        other = second[p] if down[v] + 1 == down[p] else down[p]
        up[v] = max(other, up[p] + 1)
    cs = c_sequence(max(max(down), max(up)) + 1)
    # numerators over one common denominator d; each bound is reduced once
    d = lcm(*(c.denominator for c in cs))
    num = [c.numerator * (d // c.denominator) for c in cs]
    total = [0] * tree.n
    total[0] = d + sum(num[down[v]] for v in order[1:])
    for v in order[1:]:
        total[v] = total[parent[v]] - num[down[v]] + num[up[v]]
    return [Fraction(t, d) for t in total]


def simple_lower_bound(tree: Tree, root: int) -> Fraction:
    """(n+1)/2 + (k-1)/10 with k the non-leaf count, root never a leaf."""
    n = tree.n
    if n == 1:
        return Fraction(1)
    k = sum(1 for v in range(n) if v == root or tree.degree(v) >= 2)
    return Fraction(n + 1, 2) + Fraction(k - 1, 10)
