"""Quantifier-free Presburger sets and their rational generating functions.

A set is a boolean tree over linear-inequality and congruence atoms.  The
generating function of a set (or of its image under a coordinatewise affine
map with finite fibers) is returned as an exact rational function whose
denominator is a product of factors (1 - X^c), c a nonzero nonnegative
exponent vector.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .errors import DimensionUnsupported, InfiniteFibers, ParseError
from .parsing import read_sexp

Expo = Tuple[int, ...]


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """Integer affine form sum(coeffs . x) + const."""

    coeffs: Tuple[int, ...]
    const: int = 0

    def eval(self, point: Sequence[int]) -> int:
        return sum(c * x for c, x in zip(self.coeffs, point)) + self.const

    @property
    def arity(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class Ge:
    """Atom: affine(x) >= 0."""

    affine: Affine


@dataclass(frozen=True)
class Mod:
    """Atom: affine(x) == residue (mod modulus), modulus >= 1."""

    affine: Affine
    modulus: int
    residue: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("congruence modulus must be >= 1")


@dataclass(frozen=True)
class And:
    children: Tuple["Condition", ...]


@dataclass(frozen=True)
class Or:
    children: Tuple["Condition", ...]


@dataclass(frozen=True)
class Not:
    child: "Condition"


Condition = Union[Ge, Mod, And, Or, Not, bool]


class PresburgerSet:
    """Arity m plus a boolean condition tree over Ge / Mod atoms."""

    __slots__ = ("m", "condition")

    def __init__(self, m: int, condition: Condition):
        if m < 1:
            raise ValueError("arity must be positive")
        self.m = m
        self.condition = condition

    def __repr__(self) -> str:
        return f"PresburgerSet(m={self.m}, condition={format_condition(self.condition)})"


def _eval_condition(cond: Condition, point: Sequence[int]) -> bool:
    if isinstance(cond, bool):
        return cond
    if isinstance(cond, Ge):
        return cond.affine.eval(point) >= 0
    if isinstance(cond, Mod):
        return cond.affine.eval(point) % cond.modulus == cond.residue % cond.modulus
    if isinstance(cond, And):
        return all(_eval_condition(c, point) for c in cond.children)
    if isinstance(cond, Or):
        return any(_eval_condition(c, point) for c in cond.children)
    if isinstance(cond, Not):
        return not _eval_condition(cond.child, point)
    raise TypeError(f"bad condition node {cond!r}")


def member(P: PresburgerSet, point: Sequence[int]) -> bool:
    """Pointwise membership by direct evaluation."""
    if len(point) != P.m:
        raise ValueError(f"point has arity {len(point)}, set has arity {P.m}")
    return _eval_condition(P.condition, point)


# ---------------------------------------------------------------------------
# rational functions in r variables
# ---------------------------------------------------------------------------

def _poly_mul(a: Dict[Expo, int], b: Dict[Expo, int]) -> Dict[Expo, int]:
    out: Dict[Expo, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class RatFunc:
    """num / prod (1 - X^c); c componentwise >= 0 and nonzero."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, num: Dict[Expo, int], den: Sequence[Expo] = ()):
        self.nvars = nvars
        self.num = {tuple(m): int(c) for m, c in num.items() if c}
        for m in self.num:
            if len(m) != nvars or any(e < 0 for e in m):
                raise ValueError(f"bad numerator exponent {m}")
        self.den = tuple(sorted(tuple(c) for c in den))
        for c in self.den:
            if len(c) != nvars or any(e < 0 for e in c) or not any(c):
                raise ValueError(f"bad denominator exponent {c}")

    @classmethod
    def zero(cls, nvars: int) -> "RatFunc":
        return cls(nvars, {})

    @classmethod
    def monomial(cls, nvars: int, expo: Expo, coeff: int = 1) -> "RatFunc":
        return cls(nvars, {tuple(expo): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.num

    def den_poly(self) -> Dict[Expo, int]:
        p: Dict[Expo, int] = {(0,) * self.nvars: 1}
        for c in self.den:
            p = _poly_mul(p, {(0,) * self.nvars: 1, c: -1})
        return p

    def __add__(self, other: "RatFunc") -> "RatFunc":
        from collections import Counter

        ca, cb = Counter(self.den), Counter(other.den)
        common = ca | cb

        def complement(counter) -> Dict[Expo, int]:
            p: Dict[Expo, int] = {(0,) * self.nvars: 1}
            for c, mult in sorted((common - counter).items()):
                for _ in range(mult):
                    p = _poly_mul(p, {(0,) * self.nvars: 1, c: -1})
            return p

        num = _poly_mul(self.num, complement(ca))
        for m, c in _poly_mul(other.num, complement(cb)).items():
            num[m] = num.get(m, 0) + c
        return RatFunc(self.nvars, num, tuple(common.elements()))

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.nvars, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.nvars, _poly_mul(self.num, other.num), self.den + other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.nvars == other.nvars and _poly_mul(self.num, other.den_poly())
                == _poly_mul(other.num, self.den_poly()))

    def __hash__(self) -> int:
        return hash(self.nvars)

    def expand(self, D: int) -> Dict[Expo, int]:
        """Series coefficients up to total degree D."""
        out = {m: c for m, c in self.num.items() if sum(m) <= D}
        for c in self.den:
            step = sum(c)
            nxt: Dict[Expo, int] = {}
            for m, v in out.items():
                k = 0
                while sum(m) + k * step <= D:
                    mm = tuple(x + k * y for x, y in zip(m, c))
                    if sum(mm) <= D:
                        nxt[mm] = nxt.get(mm, 0) + v
                    k += 1
                    if step == 0:
                        raise AssertionError("zero denominator exponent")
            out = {m: v for m, v in nxt.items() if v}
        return out

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self, None)})"


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def genfun_truncated(P: PresburgerSet, D: int) -> List[Expo]:
    """All points of P in N^m with total degree <= D (coefficient 1 each)."""
    if P.m > 3:
        raise DimensionUnsupported("truncated enumeration supports m <= 3")
    out = []
    for point in itertools.product(range(D + 1), repeat=P.m):
        if sum(point) <= D and member(P, point):
            out.append(point)
    return sorted(out)


def genfun(P: PresburgerSet) -> RatFunc:
    """Closed-form generating function of P restricted to N^m, m <= 2."""
    if P.m > 2:
        raise DimensionUnsupported("closed-form generating function supports m <= 2")
    identity = [Affine(tuple(1 if t == v else 0 for t in range(P.m)), 0)
                for v in range(P.m)]
    return _genfun_image(P, identity)


def genfun_image(P: PresburgerSet, maps: Sequence[Affine]) -> RatFunc:
    """sum over P of X^{phi(i)} for coordinatewise affine phi with finite fibers.

    Map coefficients and constants must be nonnegative, so the maps land in N
    on all of N^m; infinite fibers raise InfiniteFibers.
    """
    if P.m > 2:
        raise DimensionUnsupported("image generating function supports m <= 2")
    if len(maps) > 2:
        raise DimensionUnsupported("image generating function supports r <= 2")
    for phi in maps:
        if phi.arity != P.m:
            raise ValueError("map arity does not match set arity")
        if any(c < 0 for c in phi.coeffs) or phi.const < 0:
            raise ValueError("image maps must have nonnegative coefficients")
    return _genfun_image(P, list(maps))


def _genfun_image(P: PresburgerSet, maps: List[Affine]) -> RatFunc:
    r = len(maps)
    moduli = _collect_moduli(P.condition)
    M = 1
    for d in moduli:
        M = lcm(M, d)
    total = RatFunc.zero(r)
    for offsets in itertools.product(range(M), repeat=P.m):
        cond = _substitute(P.condition, M, offsets)
        cond = _simplify(cond)
        if cond is False:
            continue
        sub_maps = [Affine(tuple(c * M for c in phi.coeffs),
                           phi.eval(offsets)) for phi in maps]
        total = total + _genfun_inequalities(cond, P.m, sub_maps)
    return total


def _collect_moduli(cond: Condition) -> Set[int]:
    if isinstance(cond, Mod):
        return {cond.modulus}
    if isinstance(cond, (And, Or)):
        out: Set[int] = set()
        for c in cond.children:
            out |= _collect_moduli(c)
        return out
    if isinstance(cond, Not):
        return _collect_moduli(cond.child)
    return set()


def _substitute(cond: Condition, scale: int, offsets: Sequence[int]) -> Condition:
    """Apply x -> scale*x + offsets; congruences become constants."""
    if isinstance(cond, bool):
        return cond
    if isinstance(cond, Ge):
        aff = cond.affine
        return Ge(Affine(tuple(c * scale for c in aff.coeffs), aff.eval(offsets)))
    if isinstance(cond, Mod):
        return cond.affine.eval(offsets) % cond.modulus == cond.residue % cond.modulus
    if isinstance(cond, And):
        return And(tuple(_substitute(c, scale, offsets) for c in cond.children))
    if isinstance(cond, Or):
        return Or(tuple(_substitute(c, scale, offsets) for c in cond.children))
    if isinstance(cond, Not):
        return Not(_substitute(cond.child, scale, offsets))
    raise TypeError(f"bad condition node {cond!r}")


def _simplify(cond: Condition) -> Condition:
    if isinstance(cond, And):
        kids = []
        for c in cond.children:
            c = _simplify(c)
            if c is False:
                return False
            if c is not True:
                kids.append(c)
        return And(tuple(kids)) if kids else True
    if isinstance(cond, Or):
        kids = []
        for c in cond.children:
            c = _simplify(c)
            if c is True:
                return True
            if c is not False:
                kids.append(c)
        return Or(tuple(kids)) if kids else False
    if isinstance(cond, Not):
        c = _simplify(cond.child)
        if isinstance(c, bool):
            return not c
        return Not(c)
    return cond


def _to_dnf(cond: Condition) -> List[FrozenSet[Ge]]:
    """Disjunctive normal form over Ge atoms; integer-point complementation
    turns a negated inequality back into an inequality."""
    if cond is True:
        return [frozenset()]
    if cond is False:
        return []
    if isinstance(cond, Ge):
        return [frozenset([cond])]
    if isinstance(cond, Not):
        inner = cond.child
        if isinstance(inner, Ge):
            aff = inner.affine
            return [frozenset([Ge(Affine(tuple(-c for c in aff.coeffs),
                                         -aff.const - 1))])]
        if isinstance(inner, Not):
            return _to_dnf(inner.child)
        if isinstance(inner, And):
            return _to_dnf(Or(tuple(Not(c) for c in inner.children)))
        if isinstance(inner, Or):
            return _to_dnf(And(tuple(Not(c) for c in inner.children)))
        if isinstance(inner, bool):
            return _to_dnf(not inner)
        raise TypeError(f"bad negation target {inner!r}")
    if isinstance(cond, Or):
        out: List[FrozenSet[Ge]] = []
        for c in cond.children:
            out.extend(_to_dnf(c))
        return out
    if isinstance(cond, And):
        parts = [_to_dnf(c) for c in cond.children]
        out = [frozenset()]
        for p in parts:
            out = [a | b for a in out for b in p]
        return out
    raise TypeError(f"bad condition node {cond!r}")


def _genfun_inequalities(cond: Condition, m: int, maps: List[Affine]) -> RatFunc:
    r = len(maps)
    conjs = sorted(set(_to_dnf(cond)), key=lambda s: sorted(map(repr, s)))
    if len(conjs) > 14:
        raise DimensionUnsupported(
            f"condition too disjunctive for inclusion-exclusion ({len(conjs)} clauses)")
    total = RatFunc.zero(r)
    for size in range(1, len(conjs) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in itertools.combinations(conjs, size):
            merged = frozenset().union(*subset)
            piece = _genfun_conjunction(sorted(merged, key=repr), m, maps)
            total = total + (piece if sign == 1 else -piece)
    return total


def _genfun_conjunction(ineqs: List[Ge], m: int, maps: List[Affine]) -> RatFunc:
    if m == 1:
        return _genfun_interval(ineqs, maps)
    return _genfun_polygon(ineqs, maps)


def _monomial(maps: List[Affine], point: Sequence[int]) -> Expo:
    return tuple(phi.eval(point) for phi in maps)


def _genfun_interval(ineqs: List[Ge], maps: List[Affine]) -> RatFunc:
    r = len(maps)
    lo = 0
    hi: Optional[int] = None
    for ge in ineqs:
        a = ge.affine.coeffs[0]
        b = ge.affine.const
        if a == 0:
            if b < 0:
                return RatFunc.zero(r)
        elif a > 0:
            lo = max(lo, ceil(Fraction(-b, a)))
        else:
            bound = floor(Fraction(-b, a))
            hi = bound if hi is None else min(hi, bound)
    if hi is not None:
        if hi < lo:
            return RatFunc.zero(r)
        num: Dict[Expo, int] = {}
        for i in range(lo, hi + 1):
            mo = _monomial(maps, (i,))
            num[mo] = num.get(mo, 0) + 1
        return RatFunc(r, num)
    step = tuple(phi.coeffs[0] for phi in maps)
    if not any(step):
        raise InfiniteFibers("constant map on an infinite one-dimensional piece")
    base = _monomial(maps, (lo,))
    return RatFunc(r, {base: 1}, [step])


@dataclass(frozen=True)
class _Line:
    """Value function (p*i + q)/r with r > 0."""

    p: int
    q: int
    r: int

    def value(self, i) -> Fraction:
        return Fraction(self.p * i + self.q, self.r)

    def ceil_at(self, i: int) -> int:
        return ceil(self.value(i))

    def floor_at(self, i: int) -> int:
        return floor(self.value(i))


def _genfun_polygon(ineqs: List[Ge], maps: List[Affine]) -> RatFunc:
    r = len(maps)
    lowers: List[_Line] = [_Line(0, 0, 1)]  # j >= 0
    uppers: List[_Line] = []
    i_lo = 0
    i_hi: Optional[int] = None
    for ge in ineqs:
        alpha, beta = ge.affine.coeffs
        gamma = ge.affine.const
        if beta > 0:
            lowers.append(_Line(-alpha, -gamma, beta))
        elif beta < 0:
            uppers.append(_Line(alpha, gamma, -beta))
        else:
            if alpha == 0:
                if gamma < 0:
                    return RatFunc.zero(r)
            elif alpha > 0:
                i_lo = max(i_lo, ceil(Fraction(-gamma, alpha)))
            else:
                bound = floor(Fraction(-gamma, alpha))
                i_hi = bound if i_hi is None else min(i_hi, bound)
    if i_hi is not None and i_hi < i_lo:
        return RatFunc.zero(r)

    # segment boundaries where the binding lines can change
    bset: Set[int] = {i_lo}
    all_lines = lowers + uppers
    for l1, l2 in itertools.combinations(all_lines, 2):
        det = l1.p * l2.r - l2.p * l1.r
        if det == 0:
            continue
        istar = Fraction(l2.q * l1.r - l1.q * l2.r, det)
        for b in (floor(istar) + 1, ceil(istar)):
            if b >= i_lo and (i_hi is None or b <= i_hi):
                bset.add(b)
    bounds = sorted(bset)
    segments: List[Tuple[int, Optional[int]]] = []
    for t, s in enumerate(bounds):
        if t + 1 < len(bounds):
            segments.append((s, bounds[t + 1] - 1))
        else:
            segments.append((s, i_hi))

    total = RatFunc.zero(r)
    for s, e in segments:
        if e is not None:
            total = total + _polygon_segment_finite(s, e, lowers, uppers, maps)
        else:
            total = total + _polygon_segment_infinite(s, lowers, uppers, maps)
    return total


def _inner_sum(i: int, lo: int, hi: Optional[int], maps: List[Affine]) -> RatFunc:
    """sum over j in [lo, hi] (hi None = infinity) of X^{phi(i, j)}."""
    r = len(maps)
    bstep = tuple(phi.coeffs[1] for phi in maps)
    if hi is None:
        if not any(bstep):
            raise InfiniteFibers("constant map on an infinite vertical fiber")
        return RatFunc(r, {_monomial(maps, (i, lo)): 1}, [bstep])
    if hi < lo:
        return RatFunc.zero(r)
    if not any(bstep):
        return RatFunc.monomial(r, _monomial(maps, (i, 0)), hi - lo + 1)
    num = {_monomial(maps, (i, lo)): 1}
    top = _monomial(maps, (i, hi + 1))
    num[top] = num.get(top, 0) - 1
    return RatFunc(r, num, [bstep])


def _polygon_segment_finite(s: int, e: int, lowers, uppers, maps) -> RatFunc:
    r = len(maps)
    total = RatFunc.zero(r)
    for i in range(s, e + 1):
        lo = max(l.ceil_at(i) for l in lowers)
        hi = min((u.floor_at(i) for u in uppers), default=None)
        if hi is not None and hi < lo:
            continue
        total = total + _inner_sum(i, lo, hi, maps)
    return total


def _polygon_segment_infinite(s: int, lowers, uppers, maps) -> RatFunc:
    r = len(maps)
    # binding lines are constant on the segment: sample at s
    lstar = max(lowers, key=lambda l: (l.value(s), l.p, l.q, l.r))
    ustar = min(uppers, key=lambda u: (u.value(s), u.p, u.q, u.r)) if uppers else None
    if ustar is not None and ustar.value(s) < lstar.value(s):
        return RatFunc.zero(r)
    assert lstar.p >= 0, "decreasing binding lower line on an infinite segment"
    if ustar is not None:
        assert ustar.p >= 0, "decreasing binding upper line on an infinite segment"
    R = lstar.r if ustar is None else lcm(lstar.r, ustar.r)
    bstep = tuple(phi.coeffs[1] for phi in maps)
    astep = tuple(phi.coeffs[0] for phi in maps)
    total = RatFunc.zero(r)
    for u in range(R):
        i0 = s + ((u - s) % R)
        lo0 = lstar.ceil_at(i0)
        # per-class, ceil((p i + q)/r) is affine: value(i0 + R t) = lo0 + (p R / r) t
        lo_step = lstar.p * R // lstar.r
        if ustar is None:
            total = total + _class_sum_halfline(i0, R, lo0, lo_step, maps, astep, bstep)
        else:
            hi0 = ustar.floor_at(i0)
            hi_step = ustar.p * R // ustar.r
            total = total + _class_sum_band(i0, R, lo0, lo_step, hi0, hi_step,
                                            maps, astep, bstep)
    return total


def _exps(maps: List[Affine], i: int, j: int) -> Expo:
    return tuple(phi.eval((i, j)) for phi in maps)


def _class_sum_halfline(i0, R, lo0, lo_step, maps, astep, bstep) -> RatFunc:
    """sum over t >= 0, i = i0 + R t, j >= lo0 + lo_step*t of X^{phi(i, j)}."""
    r = len(maps)
    if not any(bstep):
        raise InfiniteFibers("constant map on an infinite vertical fiber")
    base = _exps(maps, i0, lo0)
    step = tuple(a * R + b * lo_step for a, b in zip(astep, bstep))
    if not any(step):
        raise InfiniteFibers("map constant along an infinite arithmetic class")
    return RatFunc(r, {base: 1}, [step, bstep])


def _class_sum_band(i0, R, lo0, lo_step, hi0, hi_step, maps, astep, bstep) -> RatFunc:
    """sum over t >= 0, i = i0 + R t, lo0 + lo_step*t <= j <= hi0 + hi_step*t."""
    r = len(maps)
    # real feasibility on the whole segment forces hi(t) >= lo(t) - 1 for all t,
    # so the telescoping sums below are exact even when the band starts empty
    if not any(bstep):
        # multiplicity case: count(t) = (hi0 - lo0 + 1) + (hi_step - lo_step) t
        cnt0 = hi0 - lo0 + 1
        cstep = hi_step - lo_step
        if cnt0 == 0 and cstep == 0:
            return RatFunc.zero(r)
        step = tuple(a * R for a in astep)
        if not any(step):
            raise InfiniteFibers("map constant along an infinite arithmetic class")
        base = _exps(maps, i0, 0)
        out = RatFunc(r, {base: cnt0}, [step])
        if cstep:
            bumped = tuple(x + y for x, y in zip(base, step))
            out = out + RatFunc(r, {bumped: cstep}, [step, step])
        return out
    lo_base = _exps(maps, i0, lo0)
    lo_stepv = tuple(a * R + b * lo_step for a, b in zip(astep, bstep))
    hi_base = _exps(maps, i0, hi0 + 1)
    hi_stepv = tuple(a * R + b * hi_step for a, b in zip(astep, bstep))
    if not any(lo_stepv) or not any(hi_stepv):
        raise InfiniteFibers("map constant along an infinite arithmetic class")
    part_lo = RatFunc(r, {lo_base: 1}, [lo_stepv, bstep])
    part_hi = RatFunc(r, {hi_base: 1}, [hi_stepv, bstep])
    return part_lo - part_hi


# ---------------------------------------------------------------------------
# s-expression syntax for conditions
# ---------------------------------------------------------------------------

def _parse_affine(node, names: Sequence[str]) -> Affine:
    m = len(names)
    if isinstance(node, str):
        if re.fullmatch(r"-?\d+", node):
            return Affine((0,) * m, int(node))
        if node in names:
            coeffs = [0] * m
            coeffs[list(names).index(node)] = 1
            return Affine(tuple(coeffs), 0)
        raise ParseError(f"unknown variable {node!r} (declared: {', '.join(names)})")
    if not node:
        raise ParseError("empty affine expression")
    head = node[0]
    args = [_parse_affine(a, names) for a in node[1:]]
    if head == "+":
        coeffs = tuple(sum(a.coeffs[v] for a in args) for v in range(m))
        return Affine(coeffs, sum(a.const for a in args))
    if head == "-":
        if not args:
            raise ParseError("'-' needs at least one argument")
        first, rest = args[0], args[1:]
        if not rest:
            return Affine(tuple(-c for c in first.coeffs), -first.const)
        coeffs = tuple(first.coeffs[v] - sum(a.coeffs[v] for a in rest)
                       for v in range(m))
        return Affine(coeffs, first.const - sum(a.const for a in rest))
    if head == "*":
        if len(args) != 2:
            raise ParseError("'*' needs exactly two arguments")
        a, b = args
        if any(a.coeffs) and any(b.coeffs):
            raise ParseError("nonlinear product in affine expression")
        if any(b.coeffs):
            a, b = b, a
        c = b.const
        return Affine(tuple(x * c for x in a.coeffs), a.const * c)
    raise ParseError(f"unknown affine operator {head!r}")


def _parse_condition(node, names: Sequence[str]) -> Condition:
    if isinstance(node, str):
        if node == "true":
            return True
        if node == "false":
            return False
        raise ParseError(f"bad condition token {node!r}")
    if not node:
        raise ParseError("empty condition")
    head = node[0]
    if head == "and":
        return And(tuple(_parse_condition(c, names) for c in node[1:]))
    if head == "or":
        return Or(tuple(_parse_condition(c, names) for c in node[1:]))
    if head == "not":
        if len(node) != 2:
            raise ParseError("'not' needs exactly one argument")
        return Not(_parse_condition(node[1], names))
    if head in (">=", "<=", "="):
        if len(node) != 3:
            raise ParseError(f"{head!r} needs exactly two arguments")
        a = _parse_affine(node[1], names)
        b = _parse_affine(node[2], names)
        diff = Affine(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)),
                      a.const - b.const)
        if head == ">=":
            return Ge(diff)
        if head == "<=":
            return Ge(Affine(tuple(-c for c in diff.coeffs), -diff.const))
        return And((Ge(diff), Ge(Affine(tuple(-c for c in diff.coeffs), -diff.const))))
    if head == "mod":
        if len(node) != 4:
            raise ParseError("'mod' needs (mod expr modulus residue)")
        aff = _parse_affine(node[1], names)
        dd = _parse_affine(node[2], names)
        rr = _parse_affine(node[3], names)
        if any(dd.coeffs) or any(rr.coeffs):
            raise ParseError("modulus and residue must be integer constants")
        if dd.const < 1:
            raise ParseError(f"congruence modulus must be >= 1, got {dd.const}")
        return Mod(aff, dd.const, rr.const)
    raise ParseError(f"unknown condition operator {head!r}")


def parse_condition(text: str, names: Sequence[str]) -> Condition:
    """Parse the documented s-expression condition syntax."""
    return _parse_condition(read_sexp(text), names)


def format_affine(aff: Affine, names: Sequence[str]) -> str:
    parts = []
    for c, name in zip(aff.coeffs, names):
        if c:
            parts.append(name if c == 1 else f"(* {c} {name})")
    if aff.const or not parts:
        parts.append(str(aff.const))
    if len(parts) == 1:
        return parts[0]
    return f"(+ {' '.join(parts)})"


def format_condition(cond: Condition, names: Sequence[str] = ("i", "j", "k")) -> str:
    if isinstance(cond, bool):
        return "true" if cond else "false"
    if isinstance(cond, Ge):
        return f"(>= {format_affine(cond.affine, names)} 0)"
    if isinstance(cond, Mod):
        return f"(mod {format_affine(cond.affine, names)} {cond.modulus} {cond.residue})"
    if isinstance(cond, And):
        return f"(and {' '.join(format_condition(c, names) for c in cond.children)})"
    if isinstance(cond, Or):
        return f"(or {' '.join(format_condition(c, names) for c in cond.children)})"
    if isinstance(cond, Not):
        return f"(not {format_condition(cond.child, names)})"
    raise TypeError(f"bad condition node {cond!r}")


def format_ratfunc(f: RatFunc, names: Optional[Sequence[str]] = None) -> str:
    if names is None:
        names = ["X", "Y"][: f.nvars] if f.nvars <= 2 else [f"X{t}" for t in range(f.nvars)]
    if f.is_zero:
        return "0"

    def mono(m: Expo, c: int) -> str:
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors) if factors else str(abs(c))
        if factors and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        return body

    parts = []
    for m in sorted(f.num):
        c = f.num[m]
        body = mono(m, c)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    num = " ".join(parts)
    if not f.den:
        return num
    if len(f.num) > 1:
        num = f"({num})"
    tail = "".join(f"/(1 - {mono(c, 1)})" for c in f.den)
    return num + tail
