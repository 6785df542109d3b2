"""Constructors for the named tree families and exact density sweeps."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List

from .dp import global_stats
from .rationals import to_decimal
from .tree import Tree, TreeError, classify_vertices, diameter

SWEEP_CAP = 5000


class FamilyError(TreeError):
    """Invalid family name or parameters."""


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: Dict[str, int]

    def with_param(self, key: str, value: int) -> "FamilySpec":
        merged = dict(self.params)
        merged[key] = value
        return replace(self, params=merged)


@dataclass(frozen=True)
class DensitySequencePoint:
    param_value: int
    n: int
    leaves: int
    twigs: int
    diameter: int
    density: Fraction
    leaf_fraction: Fraction
    twig_fraction: Fraction


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
    "path": (path, ("n",)),
    "star": (star, ("m",)),
    "star_chain": (star_chain, ("s", "p")),
    "broom": (broom, ("m", "k")),
    "leafy_path": (leafy_path, ("n", "l")),
    "starfish": (starfish, ("k", "r")),
}

FAMILY_NAMES = tuple(_CONSTRUCTORS)


def make_family(spec: FamilySpec) -> Tree:
    if spec.name not in _CONSTRUCTORS:
        raise FamilyError(f"unknown family {spec.name!r}; choose from {FAMILY_NAMES}")
    ctor, names = _CONSTRUCTORS[spec.name]
    missing = [p for p in names if p not in spec.params]
    if missing:
        raise FamilyError(f"family {spec.name!r} needs parameters {names}, missing {missing}")
    extra = [p for p in spec.params if p not in names]
    if extra:
        raise FamilyError(f"family {spec.name!r} takes parameters {names}, got extra {extra}")
    return ctor(*(spec.params[p] for p in names))


def density_sweep(spec: FamilySpec, param_name: str,
                  values: Iterable[int]) -> List[DensitySequencePoint]:
    """Exact per-instance statistics along one swept integer parameter."""
    points = []
    for value in values:
        tree = make_family(spec.with_param(param_name, value))
        if tree.n > SWEEP_CAP:
            raise FamilyError(
                f"sweep instance {param_name}={value} has {tree.n} vertices > cap {SWEEP_CAP}")
        if tree.n < 2:
            raise FamilyError(f"sweep instance {param_name}={value} has fewer than 2 vertices")
        cls = classify_vertices(tree)
        points.append(DensitySequencePoint(
            param_value=value,
            n=tree.n,
            leaves=len(cls.leaves),
            twigs=len(cls.twigs),
            diameter=diameter(tree),
            density=global_stats(tree).density,
            leaf_fraction=Fraction(len(cls.leaves), tree.n),
            twig_fraction=Fraction(len(cls.twigs), tree.n),
        ))
    return points


SWEEP_CSV_COLUMNS = (
    "param", "n", "leaves", "twigs", "diameter",
    "density_num", "density_den", "density_decimal",
    "leaf_fraction_decimal", "twig_fraction_decimal",
)


def write_sweep_csv(points: List[DensitySequencePoint], fh, digits: int):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for p in points:
        writer.writerow([
            p.param_value, p.n, p.leaves, p.twigs, p.diameter,
            p.density.numerator, p.density.denominator,
            to_decimal(p.density, digits),
            to_decimal(p.leaf_fraction, digits),
            to_decimal(p.twig_fraction, digits),
        ])
