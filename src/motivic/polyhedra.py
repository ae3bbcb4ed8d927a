"""Newton polyhedra with positive-orthant recession cone.

Provides the support function, a partition of the strictly positive lattice
orthant into half-open simplicial cones on which the support function is
linear, and the resulting closed-form zeta value together with a truncated
direct-summation oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Dict, List, Sequence, Tuple

from .errors import DimensionUnsupported
from .grring import CompletionExpansion, LaurentPoly, MotClass

Vec = Tuple[int, ...]


def _primitive(v: Vec) -> Vec:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _det(rows: Sequence[Vec]) -> int:
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]))


def _dual(rays: Tuple[Vec, ...]) -> Tuple[int, Tuple[Vec, ...]]:
    """|det R| and the rows of sign(det R) adj(R), R with the rays as columns.

    The coordinates of x in the ray basis are (row . x) / |det R|.
    """
    det = _det(rays)
    sign = 1 if det > 0 else -1
    rows = tuple(
        tuple(sign * (-1) ** (i + j) * _det([r[:j] + r[j + 1:]
                                              for r in rays[:i] + rays[i + 1:]])
              for j in range(len(rays)))
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
            g = tuple(int(x) for x in g)
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
        out = []
        for g in set(self.generators):
            dominated = any(
                h != g and all(h_i <= g_i for h_i, g_i in zip(h, g))
                for h in set(self.generators))
            if not dominated:
                out.append(g)
        return tuple(sorted(out))

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
        """Sum of L^-phi(x) over the lattice points x of the cone.

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
        return MotClass(LaurentPoly(num), a)


def support_eval(delta: NewtonPolyhedron, xi: Sequence[int]) -> int:
    """min over the polyhedron of xi . v, attained at a generator for xi >= 0."""
    if any(x < 0 for x in xi):
        raise ValueError("support function evaluated outside the nonnegative orthant")
    return min(_dot(xi, g) for g in delta.generators)


# -- chamber construction ---------------------------------------------------

def _chambers_2d(gens: Sequence[Vec]) -> List[Tuple[Vec, Vec]]:
    rays = {(1, 0), (0, 1)}
    for g, h in itertools.combinations(gens, 2):
        d = (g[0] - h[0], g[1] - h[1])
        # wall where xi . d = 0 inside the open quadrant
        if d[0] * d[1] < 0:
            wall = (abs(d[1]), abs(d[0]))
            rays.add(_primitive(wall))

    def cmp(a: Vec, b: Vec) -> int:
        cr = a[0] * b[1] - a[1] * b[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    ordered = sorted(rays, key=cmp_to_key(cmp))
    return [(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1)]


def _extreme_pair(plane_rays: List[Vec]) -> Tuple[Vec, Vec]:
    """The two angular extremes of a pointed 2-dimensional cone in 3-space."""
    if len(plane_rays) == 2:
        return plane_rays[0], plane_rays[1]
    for a, b in itertools.combinations(plane_rays, 2):
        if all(r in (a, b) or _is_conic_comb_2(r, a, b) for r in plane_rays):
            return a, b
    raise AssertionError("no extreme pair found in planar cone")


def _is_conic_comb_2(r: Vec, a: Vec, b: Vec) -> bool:
    """For r in the plane of a and b: is r a nonnegative combination of them?"""
    n = _cross(a, b)
    return _dot(_cross(a, r), n) >= 0 and _dot(_cross(r, b), n) >= 0


def _rank(vectors: Sequence[Vec]) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    rank = r
    return rank


def _chambers_3d(gens: Sequence[Vec]) -> List[Tuple[Vec, Vec, Vec]]:
    tris: List[Tuple[Vec, Vec, Vec]] = []
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for g in gens:
        normals = [tuple(h[i] - g[i] for i in range(3)) for h in gens if h != g]
        normals = [n for n in normals if any(n)] + units
        # candidate extreme rays from pairs of active constraints
        cands = set()
        for n1, n2 in itertools.combinations(normals, 2):
            cr = _cross(n1, n2)
            if not any(cr):
                continue
            for s in (1, -1):
                v = tuple(s * x for x in cr)
                if all(_dot(n, v) >= 0 for n in normals):
                    cands.add(_primitive(v))
        extremes = [v for v in cands
                    if _rank([n for n in normals if _dot(n, v) == 0]) >= 2]
        if _rank(extremes) < 3:
            continue  # chamber not full-dimensional
        # 2-dimensional faces: active sets of rank 2
        faces = set()
        for n in normals:
            active = [v for v in extremes if _dot(n, v) == 0]
            if len(active) >= 2 and _rank(active) == 2:
                faces.add(frozenset(_extreme_pair(active)))
        r0 = min(extremes)
        for face in faces:
            a, b = sorted(face)
            if r0 in face:
                continue
            tris.append((r0, a, b))
    return tris


def linearity_partition(delta: NewtonPolyhedron) -> List[HalfOpenCone]:
    """Disjoint half-open simplicial cones covering the open lattice orthant,
    with the support function linear on each."""
    k = delta.k
    if k > 3:
        raise DimensionUnsupported(f"closed-form partition supports k <= 3, got {k}")
    gens = delta.minimal_generators()
    if k == 1:
        chambers = [((1,),)]
    elif k == 2:
        chambers = _chambers_2d(gens)
    else:
        chambers = _chambers_3d(gens)
    return [HalfOpenCone(tuple(rays), tuple(support_eval(delta, r) for r in rays))
            for rays in chambers]


def z_of_delta(delta: NewtonPolyhedron) -> MotClass:
    """(L-1)^k sum over the open lattice orthant of L^{-support}, in closed form."""
    cones = linearity_partition(delta)  # raises DimensionUnsupported for k > 3
    total = MotClass.zero()
    for cone in cones:
        total = total + cone.lattice_sum()
    return total * MotClass(LaurentPoly.binom(1) ** delta.k)


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
    # multiply sum_l raw[l] L^{-l} by (L-1)^k and truncate at order m
    factor = LaurentPoly.binom(1) ** k
    coeffs: Dict[int, int] = {}
    for e, c in factor.terms.items():
        for l, cnt in raw.items():
            n = l - e
            if n <= m:
                coeffs[n] = coeffs.get(n, 0) + c * cnt
    return CompletionExpansion(coeffs, m)
