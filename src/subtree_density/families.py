"""Constructors for the named tree families and exact density sweeps."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterator, List

from .dp import totals
from .rationals import _int_text, ratio_json, to_decimal
from .tree import SIZE_CAP, Tree, TreeError, _shown, classify_vertices, diameter

SWEEP_CAP = 5000


class FamilyError(TreeError):
    """Invalid family name or parameters."""


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: Dict[str, int]


@dataclass(frozen=True)
class DensitySequencePoint:
    param_value: int
    n: int
    leaves: int
    twigs: int
    diameter: int
    density: Fraction


def _require(cond: bool, constraint: str):
    if not cond:
        raise FamilyError(f"parameter constraint violated: {constraint}")


def path(n: int) -> Tree:
    """P_n: vertices 0..n-1 in path order."""
    _require(n >= 1, "path requires n >= 1")
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(m: int) -> Tree:
    """K_{1,m}: center 0 with leaves 1..m."""
    _require(m >= 1, "star requires m >= 1")
    return Tree(m + 1, [(0, i) for i in range(1, m + 1)])


def star_chain(s: int, p: int) -> Tree:
    """s stars of order p with their centers joined by a path.

    Star i occupies labels i*p (center) and i*p+1 .. i*p+p-1 (leaves).
    """
    _require(s >= 1, "star_chain requires s >= 1")
    _require(p >= 3, "star_chain requires p >= 3")
    edges = []
    for i in range(s):
        c = i * p
        edges.extend((c, c + j) for j in range(1, p))
        if i + 1 < s:
            edges.append((c, c + p))
    return Tree(s * p, edges)


def broom(m: int, k: int) -> Tree:
    """Root 0 with m leaf children and k children each having two leaf children.

    Leaves 1..m hang off the root; group j uses labels m+1+3j (internal)
    and m+2+3j, m+3+3j (its two leaves).  n = 1 + m + 3k.
    """
    _require(m >= 0 and k >= 0, "broom requires m >= 0 and k >= 0")
    _require(m + k >= 1, "broom requires m + k >= 1")
    edges = [(0, i) for i in range(1, m + 1)]
    for j in range(k):
        mid = m + 1 + 3 * j
        edges.extend([(0, mid), (mid, mid + 1), (mid, mid + 2)])
    return Tree(1 + m + 3 * k, edges)


def leafy_path(n: int, l: int) -> Tree:
    """Root 0 joined by a path of n-l-1 edges to a hub carrying l leaves.

    Path vertices are 0..n-l-1 (the hub is n-l-1, equal to the root when
    n = l+1); leaves are n-l..n-1.
    """
    _require(l >= 1, "leafy_path requires l >= 1")
    _require(n >= l + 1, "leafy_path requires n >= l + 1")
    hub = n - l - 1
    edges = [(i, i + 1) for i in range(hub)]
    edges.extend((hub, v) for v in range(n - l, n))
    return Tree(n, edges)


def starfish(k: int, r: int) -> Tree:
    """Sf_{k,r}: k paths of length r sharing end 0, plus a leaf on each
    degree-two vertex.

    Arm j occupies labels 1+j*(2r-1) .. (j+1)*(2r-1): first the r path
    vertices, then the r-1 attached leaves.
    """
    _require(k >= 3, "starfish requires k >= 3")
    _require(r >= 1, "starfish requires r >= 1")
    edges = []
    for j in range(k):
        base = 1 + j * (2 * r - 1)
        prev = 0
        for i in range(r):
            edges.append((prev, base + i))
            prev = base + i
        for i in range(r - 1):
            edges.append((base + i, base + r + i))
    return Tree(1 + k * (2 * r - 1), edges)


_CONSTRUCTORS = {
    "path": (path, ("n",), lambda n: n),
    "star": (star, ("m",), lambda m: m + 1),
    "star_chain": (star_chain, ("s", "p"), lambda s, p: max(s, 0) * max(p, 0)),
    "broom": (broom, ("m", "k"), lambda m, k: 1 + m + 3 * k),
    "leafy_path": (leafy_path, ("n", "l"), lambda n, l: n),
    "starfish": (starfish, ("k", "r"), lambda k, r: 1 + max(k, 0) * max(2 * r - 1, 0)),
}

FAMILY_NAMES = tuple(_CONSTRUCTORS)


def _member(spec: FamilySpec):
    """(constructor, parameter values, vertex count) of the member `spec` names, unbuilt."""
    if spec.name not in _CONSTRUCTORS:
        raise FamilyError(f"unknown family {spec.name!r}; choose from {FAMILY_NAMES}")
    ctor, names, size = _CONSTRUCTORS[spec.name]
    missing = [p for p in names if p not in spec.params]
    if missing:
        raise FamilyError(f"family {spec.name!r} needs parameters {names}, missing {missing}")
    extra = [p for p in spec.params if p not in names]
    if extra:
        raise FamilyError(f"family {spec.name!r} takes parameters {names}, got extra {extra}")
    values = [spec.params[p] for p in names]
    return ctor, values, size(*values)


def make_family(spec: FamilySpec) -> Tree:
    """The member `spec` names; one of more than SIZE_CAP vertices is refused unbuilt."""
    ctor, values, n = _member(spec)
    if n > SIZE_CAP:
        raise FamilyError(f"family member {spec.name!r} has {_shown(n)} vertices > cap {SIZE_CAP}")
    return ctor(*values)


def sweep_members(spec: FamilySpec, name: str, lo: int, hi: int, cap: int) -> Iterator[Tree]:
    """The members with `name` = lo..hi, built as read; refused unbuilt when the one at hi,
    the largest as each size formula is non-decreasing, has more than `cap` vertices."""
    _, _, n = _member(replace(spec, params={**spec.params, name: hi}))
    if n > cap:
        raise FamilyError(f"sweep instance {name}={hi} has {_shown(n)} vertices > cap {cap}")
    return (make_family(replace(spec, params={**spec.params, name: v})) for v in range(lo, hi + 1))


def density_sweep(spec: FamilySpec, param_name: str,
                  lo: int, hi: int) -> List[DensitySequencePoint]:
    """Exact per-instance statistics along one swept integer parameter, lo..hi."""
    points = []
    for value, tree in enumerate(sweep_members(spec, param_name, lo, hi, SWEEP_CAP), start=lo):
        if tree.n < 2:
            raise FamilyError(f"sweep instance {param_name}={value} has fewer than 2 vertices")
        cls, (total, order_sum) = classify_vertices(tree), totals(tree)
        points.append(DensitySequencePoint(
            param_value=value,
            n=tree.n,
            leaves=len(cls.leaves),
            twigs=len(cls.twigs),
            diameter=diameter(tree),
            density=Fraction(order_sum, tree.n * total),
        ))
    return points


SWEEP_CSV_COLUMNS = (
    "param", "n", "leaves", "twigs", "diameter",
    "density_num", "density_den", "density_decimal",
    "leaf_fraction_decimal", "twig_fraction_decimal",
)


def sweep_csv(points: List[DensitySequencePoint], digits: int) -> str:
    """The sweep as CSV, header first, no final newline; no field needs quoting."""
    rows = [SWEEP_CSV_COLUMNS]
    rows += [(p.param_value, p.n, p.leaves, p.twigs, p.diameter,
              _int_text(p.density.numerator), _int_text(p.density.denominator),
              to_decimal(p.density, digits), to_decimal(Fraction(p.leaves, p.n), digits),
              to_decimal(Fraction(p.twigs, p.n), digits)) for p in points]
    return "\n".join(",".join(map(str, row)) for row in rows)


def sweep_json(points: List[DensitySequencePoint]) -> str:
    """The sweep as a JSON list of rows, with no final newline."""
    rows = [{"param": p.param_value, "n": p.n, "leaves": p.leaves, "twigs": p.twigs,
             "diameter": p.diameter, "density": ratio_json(p.density)} for p in points]
    return json.dumps(rows, sort_keys=True, indent=2)
