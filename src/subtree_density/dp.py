"""Exact subtree-count and mean-order invariants via rooted DP with rerooting.

All counts are Python ints (arbitrary precision) and all averages are
Fractions in lowest terms.  A down pass from a root folds each child into
its parent; a top-down pass then moves the root across each edge (u, c).
Its divisions are exact: with f = down_count[c] + 1, alpha(u) = f*a and
sigma(u) = f*b + a*down_sum[c], where a subtrees with order sum b contain u
but not c.  Each edge keeps its division's divisor or its quotient short,
and equal sibling branches share one result (see `_top_down`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .rationals import _SHORT, _int_text, _leaf_rule_text, ratio_json
from .tree import Tree, TreeError, orient


@dataclass(frozen=True)
class RootedCounts:
    root: int
    down_count: Tuple[int, ...]
    down_sum: Tuple[int, ...]
    alpha_root: int
    alpha_bar_root: int
    total_count: int


@dataclass(frozen=True)
class SubtreeStats:
    n: int
    subtree_count: int
    order_sum: int
    containment: Tuple[int, ...]
    mu: Fraction
    density: Fraction
    mu_prime: Optional[Fraction]
    s_prime_count: Optional[int]
    s_prime_order_sum: Optional[int]

    @classmethod
    def from_totals(cls, tree: Tree, total: int, containment) -> "SubtreeStats":
        """Stats from N(T) and alpha(T, v) per vertex.

        The order sum is sum_v alpha(T, v), each subtree counted once per
        vertex; each run of one int object (see `_run_sum`) is added once.
        S' adds the empty set and drops the leaf singletons; it is undefined
        for the one-vertex tree.
        """
        containment = tuple(containment)
        order_sum = _run_sum(containment)
        mu = Fraction(order_sum, total)
        mu_prime = spc = sps = None
        if tree.n > 1:
            leaf_count = sum(1 for a in tree.adj if len(a) == 1)
            spc, sps = total - leaf_count + 1, order_sum - leaf_count
            mu_prime = Fraction(sps, spc)
        return cls(tree.n, total, order_sum, containment, mu, mu / tree.n,
                   mu_prime, spc, sps)

    def to_json_dict(self) -> dict:
        """The stats with every count as a decimal string, at any digit count.

        Each run of one int object is converted once, and equal values held
        in different objects share one string: a star's leaves cost one.  A
        count past 600 digits whose leaf partner is already text takes its
        digits from the partner's (see `_long_count_text`).
        """
        text, containment, prev = {}, [], None
        for c in self.containment:
            if c is not prev:
                s = text.get(c)
                if s is None:
                    s = text[c] = str(c) if c < _SHORT else _long_count_text(c, text)
                prev = c
            containment.append(s)
        out = {
            "n": self.n,
            "subtree_count": _int_text(self.subtree_count),
            "order_sum": _int_text(self.order_sum),
            "containment": containment,
            "mu": ratio_json(self.mu),
            "density": ratio_json(self.density),
        }
        if self.mu_prime is not None:
            out["mu_prime"] = ratio_json(self.mu_prime)
            out["s_prime_count"] = _int_text(self.s_prime_count)
            out["s_prime_order_sum"] = _int_text(self.s_prime_order_sum)
        return out


def _long_count_text(x: int, text: dict) -> str:
    """The digits of a count x of more than 600 digits, given the counts in `text`.

    A leaf with neighbour c has alpha = alpha(c) / 2 + 1: each subtree holding
    c takes the leaf or not, and the leaf alone adds one.  So x and 2x - 2 are
    partners, whichever comes first in vertex order; if one is already text,
    x takes its digits from the partner's in linear time.
    """
    if not x & 1:
        s = text.get(x // 2 + 1)
        if s is not None:
            return _leaf_rule_text(s, halve=False)
    s = text.get(2 * x - 2)
    return _int_text(x) if s is None else _leaf_rule_text(s, halve=True)


def _run_sum(values: Sequence[int]) -> int:
    """sum(values) over a non-empty sequence, adding each run once as value * length.

    A run is consecutive entries that are one int object, as `_top_down`
    gives equal sibling branches.
    """
    total, prev, run = 0, values[0], 0
    for c in values:
        if c is not prev:
            total += prev * run if run > 1 else prev
            prev, run = c, 0
        run += 1
    return total + (prev * run if run > 1 else prev)


@dataclass(frozen=True)
class VertexSubtreeView:
    vertex: int
    alpha: int
    alpha_bar: int
    lam: Fraction
    lambda_bar: Optional[Fraction]


def _down_pass(tree: Tree, root: int, sums: bool = True):
    """Bottom-up counts: subtrees of the branch below u that contain u.

    Each child c folds into its parent p with f = down_count[c] + 1:
    down_sum[p] = down_sum[p]*f + down_count[p]*down_sum[c], down_count[p] *= f.
    down_sum is None when `sums` is false.
    """
    parent, order = (tree.parent, tree.order) if root == 0 else orient(tree.adj, root)
    down_count = [1] * tree.n
    down_sum = [1] * tree.n if sums else None
    for c in order[:0:-1]:
        p = parent[c]
        f = down_count[c] + 1
        if sums:
            down_sum[p] = down_sum[p] * f + down_count[p] * down_sum[c]
        down_count[p] *= f
    return parent, order, down_count, down_sum


def _top_down(parent, order, down_count, down_sum=None):
    """alpha(v) for every v, and sigma(v) (order sum over them) if down_sum is given.

    Over an edge (u, c) with f = down_count[c] + 1, a subtrees with order sum
    b contain u but not c: c's outside pair (out[c], out_sum[c]).  A child
    whose down_count (and down_sum) equal those of the sibling before it,
    which `orient` lists next to it, takes that sibling's ints.  Otherwise
    q = down_count[u] // f subtrees below u miss c's branch, and f*q is
    down_count[u], so the shorter of f and q has at most half its bits:
    - light route, f <= q: a = alpha(u) // f, b = (sigma(u) - a*down_sum[c]) // f,
      each divided by the short f;
    - heavy route, q < f (at most one child, as f*f > down_count[u]): those q
      subtrees have order sum qs = (down_sum[u] - q*down_sum[c]) // f, and
      a = q*(out[u] + 1), b = qs*(out[u] + 1) + q*out_sum[u]; q and qs are
      short quotients.
    """
    alpha = list(down_count)
    sigma = None if down_sum is None else list(down_sum)
    out, out_sum = [0] * len(order), [0] * len(order)
    prev = order[0]
    for c in order[1:]:
        u, sib, prev = parent[c], prev, c
        dc = down_count[c]
        if dc == down_count[sib] and parent[sib] == u and \
                (sigma is None or down_sum[c] == down_sum[sib]):
            alpha[c], out[c], out_sum[c] = alpha[sib], out[sib], out_sum[sib]
            if sigma is not None:
                sigma[c] = sigma[sib]
            continue
        f = dc + 1
        q = down_count[u] // f
        if q < f:  # the heavy route
            o = out[u] + 1
            a = q * o
            if sigma is not None:
                b = (down_sum[u] - q * down_sum[c]) // f * o + q * out_sum[u]
        else:
            a = alpha[u] // f
            if sigma is not None:
                b = (sigma[u] - a * down_sum[c]) // f
        alpha[c], out[c] = dc * (a + 1), a
        if sigma is not None:
            sigma[c], out_sum[c] = down_sum[c] * (a + 1) + dc * b, b
    return alpha, sigma


def rooted_counts(tree: Tree, root: int) -> RootedCounts:
    """Root-anchored subtree counts and order sums for every vertex."""
    _, _, down_count, down_sum = _down_pass(tree, root)
    total, alpha = sum(down_count), down_count[root]
    return RootedCounts(root, tuple(down_count), tuple(down_sum), alpha, total - alpha, total)


def all_containment_counts(tree: Tree) -> Tuple[int, ...]:
    """alpha(T, v) for every vertex v."""
    return global_stats(tree).containment


def _root_last_sum(order, values) -> int:
    """sum(values) over a down pass, the root's entry last so that short values add first."""
    return sum(map(values.__getitem__, reversed(order)))


class _once(cached_property):
    """`cached_property` without the per-instance lock that Python 3.11 takes on a first read."""

    def __get__(self, obj, owner=None):
        if obj is None:  # read on the class, as a test's monkeypatch does
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class Tables:
    """A tree's passes from vertex 0, each run once, when first read: `down`, the down
    pass; `totals`, (N(T), S) summed from it with the root last; `sums`, (alpha, sigma)
    at every vertex from one rerooting pass, with sigma None unless `sigma` is set."""

    def __init__(self, tree: Tree, sigma: bool = True):
        self.tree, self.sigma = tree, sigma

    @_once
    def down(self):
        return _down_pass(self.tree, 0)

    @_once
    def totals(self) -> Tuple[int, int]:
        _, order, down_count, down_sum = self.down
        return _root_last_sum(order, down_count), _root_last_sum(order, down_sum)

    @_once
    def sums(self):
        return _top_down(*self.down[:3], self.down[3] if self.sigma else None)


def totals(tree: Tree) -> Tuple[int, int]:
    """(N(T), S) from one down pass: each subtree counted once, at its vertex nearest the root."""
    return Tables(tree).totals


def global_stats(tree: Tree) -> SubtreeStats:
    """All global subtree aggregates of one tree, as exact values."""
    parent, order, down_count, _ = _down_pass(tree, 0, sums=False)
    alpha, _ = _top_down(parent, order, down_count)
    return SubtreeStats.from_totals(tree, _root_last_sum(order, down_count), alpha)


def vertex_sums(tree: Tree) -> Tuple[List[int], List[int], int]:
    """(alpha, sigma, N(T)): ints from one O(n) pass; lambda(T, v) = sigma[v] / alpha[v]."""
    tables = Tables(tree)
    return (*tables.sums, tables.totals[0])


def vertex_view(tree: Tree, v: int) -> VertexSubtreeView:
    """alpha, lambda and the complementary averages at one vertex.

    One down pass from v gives alpha(v), sigma(v) and both totals.
    """
    _, _, down_count, down_sum = _down_pass(tree, v)
    alpha, sigma = down_count[v], down_sum[v]
    alpha_bar = sum(down_count) - alpha
    lambda_bar = Fraction(sum(down_sum) - sigma, alpha_bar) if alpha_bar else None
    return VertexSubtreeView(v, alpha, alpha_bar, Fraction(sigma, alpha), lambda_bar)


def edge_counts(tree: Tree, edge: Tuple[int, int]) -> Tuple[int, int]:
    """(alpha_e, alpha_bar_e) for an edge e = {u, v}.

    Rooted at u, down_count[v] counts the subtrees of the v-side containing
    v, and down_count[u] // (down_count[v] + 1) those of the u-side
    containing u; alpha_e is their product.
    """
    u, v = edge
    e = (u, v) if u < v else (v, u)
    if e not in tree.edges:
        raise TreeError(f"{e} is not an edge of the tree")
    _, _, down_count, _ = _down_pass(tree, u, sums=False)
    alpha_e = down_count[v] * (down_count[u] // (down_count[v] + 1))
    return alpha_e, sum(down_count) - alpha_e


def good_anchor(tree: Tree, containment: Sequence[int], total: int) -> Optional[int]:
    """Smallest internal vertex v with 2*alpha(T,v) >= n*alpha_bar(T,v), if any.

    Any returned vertex satisfies |mu(T) - lambda(T,v)| < 2.  No edge scan
    is needed: every subtree containing an edge e contains its endpoint w,
    so alpha(T,w) >= alpha(T,e) and alpha_bar(T,w) <= alpha_bar(T,e), and an
    edge with 2*alpha(T,e) >= n*alpha_bar(T,e) makes each internal endpoint
    pass the vertex test.  `containment` and `total` are alpha and N(T), as `Tables` gives them.
    """
    n = tree.n
    for v, a in enumerate(tree.adj):
        if len(a) >= 2 and 2 * containment[v] >= n * (total - containment[v]):
            return v
    return None
