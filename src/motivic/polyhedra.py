"""Newton polyhedra with positive-orthant recession cone.

Provides the support function, a partition of the strictly positive lattice
orthant into half-open simplicial cones on which the support function is
linear, and the resulting closed-form zeta value together with a truncated
direct-summation oracle.

The partition refines the normal fan: the chamber of a minimal generator is
where that generator attains the support function.  Chambers are found and
dissected in integer arithmetic by one routine for every k, on cofactor
vectors in closed form for k <= 3; ``linearity_partition`` refuses k > 3,
the dimensions its oracle tests cover.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import index, mul
from typing import Dict, List, Sequence, Tuple

from .errors import DimensionUnsupported
from .grring import CompletionExpansion, LaurentPoly, MotClass, mot_sum

Vec = Tuple[int, ...]


def _primitive(v: Vec) -> Vec:
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _det(rows: Sequence[Vec]) -> int:
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    return _dot(rows[0], _cofactors(rows[1:]))


def _cofactors(rows: Sequence[Vec]) -> Vec:
    """v with v . x = det(x, *rows) for k - 1 rows of length k; closed form if k <= 3."""
    if len(rows) < 2:
        return (rows[0][1], -rows[0][0]) if rows else (1,)
    if len(rows) == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    return tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
                 for j in range(len(rows) + 1))


def _dual(rays: Tuple[Vec, ...]) -> Tuple[int, Tuple[Vec, ...]]:
    """|det R| and the rows of sign(det R) adj(R), R with the rays as columns.

    The coordinates of x in the ray basis are (row . x) / |det R|.
    """
    det = _det(rays)
    sign = 1 if det > 0 else -1
    rows = tuple(tuple(sign * (-1) ** i * x for x in _cofactors(rays[:i] + rays[i + 1:]))
                 for i in range(len(rays)))
    return abs(det), rows


def _is_open(row: Vec) -> bool:
    """Whether the facet where this row's coordinate vanishes is left out."""
    return next(x for x in row if x) > 0


class NewtonPolyhedron:
    """Convex hull of generator points plus the nonnegative orthant."""

    __slots__ = ("k", "generators")

    def __init__(self, k: int, generators: Sequence[Sequence[int]]):
        if k < 1:
            raise ValueError("ambient dimension must be positive")
        gens = []
        for g in generators:
            if bool in map(type, g):  # operator.index takes True as 1
                raise TypeError(f"generator {g} has a boolean entry")
            g = tuple(map(index, g))
            if len(g) != k:
                raise ValueError(f"generator {g} has wrong dimension (expected {k})")
            if any(x < 1 for x in g):
                raise ValueError(f"generator {g} has an entry < 1")
            gens.append(g)
        if not gens:
            raise ValueError("generator set must be nonempty")
        self.k = k
        self.generators = tuple(gens)

    def minimal_generators(self) -> Tuple[Vec, ...]:
        """Generators with componentwise-dominated ones removed."""
        gens = set(self.generators)
        return tuple(sorted(g for g in gens if not any(
            h != g and all(h_i <= g_i for h_i, g_i in zip(h, g)) for h in gens)))

    def __repr__(self) -> str:
        return f"NewtonPolyhedron(k={self.k}, generators={list(self.generators)})"


@dataclass(frozen=True)
class HalfOpenCone:
    """A simplicial cone of lattice points with some facets left out.

    The rays are linearly independent and there are k of them. The cone holds
    the x = sum lambda_j rays_j with every lambda_j >= 0, and lambda_j > 0
    when facet j (the one without ray j) is open. Facet j is open when the
    first nonzero entry of row j of R^-1, R with the rays as columns, is
    positive: x then lies in the cone that holds x - eps (1, d, d^2) for
    small 0 < d, eps, so the cones of a dissection of the orthant tile the
    open lattice orthant.

    linear_value holds the support-function values at the rays, so the
    support function at sum lambda_j rays_j is sum lambda_j linear_value_j.
    """

    rays: Tuple[Vec, ...]
    linear_value: Tuple[int, ...]

    def contains(self, xi: Vec) -> bool:
        _, dual = _dual(self.rays)
        for row in dual:
            lam = _dot(row, xi)
            if lam < 0 or (lam == 0 and _is_open(row)):
                return False
        return True

    def value_at(self, xi: Vec) -> int:
        det, dual = _dual(self.rays)
        total, rest = divmod(sum(_dot(row, xi) * a
                                 for row, a in zip(dual, self.linear_value)), det)
        assert rest == 0
        return total

    def lattice_sum(self) -> MotClass:
        """Sum of L^-phi(x) over the lattice points x of the cone."""
        return MotClass(*self.lattice_fraction())

    def lattice_fraction(self) -> Tuple[LaurentPoly, Tuple[int, ...]]:
        """`lattice_sum` as an unreduced (num, den) pair.

        phi is the linear function equal to linear_value on the rays, all of
        them positive. Each x is p + sum n_j rays_j with integers n_j >= 0 and
        p in the half-open fundamental parallelepiped, so the sum is
        sum_p L^(A - phi(p)) / prod_j (L^a_j - 1), a_j = phi(ray j), A = sum a_j.
        Written as |det R| lambda(p), the points p form the subgroup of
        (Z/|det R|)^k spanned by the columns of sign(det R) adj(R), |det R|
        elements; an entry 0 stands for |det R| on an open facet.
        """
        det, dual = _dual(self.rays)
        points = {(0,) * len(dual)}
        for j in range(len(dual)):
            step = tuple(row[j] % det for row in dual)
            grown = set()
            for p in points:
                while p not in grown:
                    grown.add(p)
                    p = tuple((x + s) % det for x, s in zip(p, step))
            points = grown
        a = self.linear_value
        opened = [_is_open(row) for row in dual]
        num: Dict[int, int] = {}
        for p in points:
            lam = [det if x == 0 and is_open else x for x, is_open in zip(p, opened)]
            e = sum(a) - _dot(lam, a) // det
            num[e] = num.get(e, 0) + 1
        return LaurentPoly(num), a


def support_eval(delta: NewtonPolyhedron, xi: Sequence[int]) -> int:
    """min over the polyhedron of xi . v, attained at a generator for xi >= 0."""
    if any(x < 0 for x in xi):
        raise ValueError("support function evaluated outside the nonnegative orthant")
    return min(_dot(xi, g) for g in delta.generators)


# -- chamber construction ---------------------------------------------------

def _chamber_cones(gens: Sequence[Vec], k: int) -> List[Tuple[Vec, ...]]:
    """Simplicial cones dissecting the k-dimensional chambers of the fan.

    The chamber of a minimal generator g is {xi >= 0 : xi . (h - g) >= 0 for
    every generator h}. An extreme ray of it is tight on k - 1 independent
    constraints, so the extreme rays are the cofactor vectors of the
    (k-1)-subsets of the constraint normals that satisfy every constraint.
    A chamber is kept when k of its rays are independent.
    """
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    cones: List[Tuple[Vec, ...]] = []
    for g in gens:
        normals = [tuple(a - b for a, b in zip(h, g)) for h in gens if h != g] + units
        rays = set()
        for rows in itertools.combinations(normals, k - 1):
            v = _cofactors(rows)
            if any(v):
                s = 0  # the first nonzero n . v; one of the other sign rejects v
                for n in normals:
                    d = _dot(n, v)
                    if d * s < 0:
                        break
                    s = s or d
                else:
                    rays.add(_primitive(v if s > 0 else tuple(-x for x in v)))
        if any(_det(c) for c in itertools.combinations(rays, k)):
            faces = [frozenset(r for r in rays if _dot(n, r) == 0) for n in normals]
            cones += _pulling(frozenset(rays), faces)
    return cones


def _pulling(cone: frozenset, faces: List[frozenset]) -> List[Tuple[Vec, ...]]:
    """The pulling dissection of a face of a chamber, given by its extreme
    rays: its least ray joined to a dissection of each facet that misses it.

    The faces of the face are its intersections with the chamber's faces
    {r : n . r = 0}, and its facets are the maximal proper ones.
    """
    if len(cone) == 1:
        return [tuple(cone)]
    r0 = min(cone)
    proper = {cone & f for f in faces} - {cone}
    return [(r0,) + simplex for facet in proper
            if r0 not in facet and not any(facet < other for other in proper)
            for simplex in _pulling(facet, faces)]


def linearity_partition(delta: NewtonPolyhedron) -> List[HalfOpenCone]:
    """Disjoint half-open simplicial cones covering the open lattice orthant,
    with the support function linear on each."""
    k = delta.k
    if k > 3:
        raise DimensionUnsupported(f"closed-form partition supports k <= 3, got {k}")
    return [HalfOpenCone(rays, tuple(support_eval(delta, r) for r in rays))
            for rays in _chamber_cones(delta.minimal_generators(), k)]


def z_of_delta(delta: NewtonPolyhedron) -> MotClass:
    """(L-1)^k sum over the open lattice orthant of L^{-support}, in closed form."""
    cones = linearity_partition(delta)  # raises DimensionUnsupported for k > 3
    scale = LaurentPoly.binom(1) ** delta.k
    return mot_sum((num * scale, den)
                   for num, den in map(HalfOpenCone.lattice_fraction, cones))


def z_truncated(delta: NewtonPolyhedron, m: int) -> CompletionExpansion:
    """Expansion of the zeta value through order m by direct summation."""
    if m < 1:
        raise ValueError("truncation order must be >= 1")
    k = delta.k
    bound = m + k
    raw: Dict[int, int] = {}
    for xi in itertools.product(range(1, bound + 1), repeat=k):
        val = support_eval(delta, xi)
        if val <= bound:
            raw[val] = raw.get(val, 0) + 1
    # sum_l raw[l] L^{-l} times (L-1)^k; the expansion drops orders above m
    value = LaurentPoly({-l: cnt for l, cnt in raw.items()}) * LaurentPoly.binom(1) ** k
    return CompletionExpansion({-e: c for e, c in value.terms.items()}, m)
