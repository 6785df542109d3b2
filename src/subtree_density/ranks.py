"""Vertex ranks, the coefficients c_j as one exact integer table, and lambda lower bounds."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .tree import Tree, orient


@lru_cache(maxsize=16)  # an entry holds `count` ints below d, 46 kbit at count 302
def _coefficient_table(count: int) -> Tuple[int, Tuple[int, ...]]:
    """(d, t) with c_j = t[j] / d for j < count over d = 2 prod_{j<count} (2^(j+1) + j).

    With u = d sum_{i<j} c_i, t_j = d - (d (j+2)/2 + u) / (2^(j+1) + j), an exact division.
    """
    d = 2
    for j in range(count):
        d *= 2 ** (j + 1) + j
    t, u = [], 0
    for j in range(count):
        t.append(d - (d // 2 * (j + 2) + u) // (2 ** (j + 1) + j))
        u += t[-1]
    return d, tuple(t)


def c_sequence(count: int) -> List[Fraction]:
    """First `count` coefficients: c_j = 1 - (1 + j/2 + sum_{i<j} c_i) / (2^(j+1) + j)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    d, t = _coefficient_table(count)
    return [Fraction(tj, d) for tj in t]


def rank_profile(tree: Tree, root: int) -> Tuple[int, ...]:
    """The rank histogram m: m[j] counts the non-root vertices of rank j.

    A leaf (no children) has rank 0; any other vertex has rank one more
    than the maximum rank of its children.  The root has no rank.
    """
    parent, order = orient(tree, root)
    rank = [0] * tree.n
    for u in order[:0:-1]:
        p = parent[u]
        if p != root and rank[u] + 1 > rank[p]:
            rank[p] = rank[u] + 1
    m = [0] * (max((rank[u] for u in order[1:]), default=-1) + 1)
    for u in order[1:]:
        m[rank[u]] += 1
    return tuple(m)


def rank_lower_bound(tree: Tree, root: int) -> Fraction:
    """1 + sum_j c_j * m_j over the rank histogram m, summed in integers over d.

    It is at most lambda(T, root) on the rooted class: the root has degree
    at least 2 and every other internal vertex degree at least 3, or the
    tree is the single vertex.
    """
    m = rank_profile(tree, root)
    d, t = _coefficient_table(len(m))
    return Fraction(d + sum(tj * mj for tj, mj in zip(t, m)), d)


def rank_bound_numerators(tree: Tree) -> Tuple[List[int], int]:
    """(t, d) with t[r] / d = rank_lower_bound(tree, r) at every vertex r, unreduced.

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
    d, num = _coefficient_table(max(max(down), max(up)) + 1)
    total = [0] * tree.n
    total[0] = d + sum(num[down[v]] for v in order[1:])
    for v in order[1:]:
        total[v] = total[parent[v]] - num[down[v]] + num[up[v]]
    return total, d


def simple_lower_bound(tree: Tree, root: int) -> Fraction:
    """(n+1)/2 + (k-1)/10 with k the non-leaf count, root never a leaf."""
    n = tree.n
    if n == 1:
        return Fraction(1)
    k = sum(1 for v in range(n) if v == root or tree.degree(v) >= 2)
    return Fraction(n + 1, 2) + Fraction(k - 1, 10)
