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
from functools import reduce
from math import gcd, lcm, prod
from operator import index, mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceeded, DimensionUnsupported, InfiniteFibers, ParseError
from .jets import default_budget
from .grring import fraction_sum, poly_mul
from .parsing import (And, Not, Or, atoms, fold, format_fraction, format_monomial,
                      int_target, read_condition, split_affine)

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


def _holds(atom: Union[Ge, Mod], point: Sequence[int]) -> bool:
    if isinstance(atom, Ge):
        return atom.affine.eval(point) >= 0
    if isinstance(atom, Mod):
        return atom.affine.eval(point) % atom.modulus == atom.residue % atom.modulus
    raise TypeError(f"bad condition node {atom!r}")


def member(P: PresburgerSet, point: Sequence[int]) -> bool:
    """Pointwise membership by direct evaluation."""
    if len(point) != P.m:
        raise ValueError(f"point has arity {len(point)}, set has arity {P.m}")
    return fold(P.condition, lambda atom: _holds(atom, point))


# ---------------------------------------------------------------------------
# rational functions in r variables
# ---------------------------------------------------------------------------

class RatFunc:
    """num / prod (1 - X^c); c componentwise >= 0 and nonzero."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, num: Dict[Expo, int], den: Sequence[Expo] = ()):
        self.nvars = nvars
        # operator.index takes True as 1
        if bool in map(type, itertools.chain(num.values(), *num, *den)):
            raise TypeError("RatFunc exponents and coefficients must be integers, not booleans")
        self.num = {tuple(map(index, m)): index(c) for m, c in num.items() if c}
        for m in self.num:
            if len(m) != nvars or any(e < 0 for e in m):
                raise ValueError(f"bad numerator exponent {m}")
        self.den = tuple(sorted(tuple(map(index, c)) for c in den))
        for c in self.den:
            if len(c) != nvars or any(e < 0 for e in c) or not any(c):
                raise ValueError(f"bad denominator exponent {c}")

    @classmethod
    def zero(cls, nvars: int) -> "RatFunc":
        return cls(nvars, {})

    @property
    def is_zero(self) -> bool:
        return not self.num

    def den_poly(self) -> Dict[Expo, int]:
        one = (0,) * self.nvars
        return reduce(poly_mul, ({one: 1, c: -1} for c in self.den), {one: 1})

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return _sum(self.nvars, (self, other))

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.nvars, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.nvars, poly_mul(self.num, other.num),
                       self.den + other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.nvars == other.nvars and poly_mul(self.num, other.den_poly())
                == poly_mul(other.num, self.den_poly()))

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
            out = {m: v for m, v in nxt.items() if v}
        return out

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self, None)})"


def _sum(nvars: int, parts: Sequence[RatFunc]) -> RatFunc:
    """Sum over the least common multiple of the denominators."""
    one = (0,) * nvars
    return RatFunc(nvars, *fraction_sum(((f.num, f.den) for f in parts),
                                        lambda c: {one: 1, c: -1}))


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
    """Unfold the congruences: variable v runs over its residue classes mod
    M_v, the lcm over the atoms (mod a.x + c, m) of m / gcd(m, a_v), so every
    congruence is constant on each class.  Each class is summed in one sweep;
    m = 1 runs as m = 2 with j <= 0.  A class costs one unit of the default
    budget, and more classes than it holds raise BudgetExceeded at once."""
    r = len(maps)
    mods = [a for a in atoms(P.condition) if isinstance(a, Mod)]
    scales = [lcm(*(a.modulus // gcd(a.modulus, a.affine.coeffs[v]) for a in mods))
              for v in range(P.m)]
    classes, budget = prod(scales), default_budget()
    if classes > budget:
        raise BudgetExceeded(f"generating function needs {classes} residue classes,"
                             f" more than the budget of {budget}")
    terms: Dict[Tuple[Expo, ...], Dict[Expo, int]] = {}
    for offsets in _classes(scales):
        cond = fold(P.condition, lambda atom: _substitute(atom, scales, offsets))
        if cond is False:
            continue
        if P.m == 1:
            cond = And((cond, Ge(Affine((0, -1)))))
        sub_maps = [Affine(tuple(map(mul, phi.coeffs, scales)),
                           phi.eval(offsets)) for phi in maps]
        _sweep(cond, sub_maps, terms)
    for den, num in terms.items():
        if any(num.values()) and not all(map(any, den)):
            raise InfiniteFibers("map constant along an infinite arithmetic class")
    return _sum(r, [RatFunc(r, num, den) for den, num in terms.items()
                    if any(num.values())])


def _classes(scales: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """itertools.product(*map(range, scales)), without a tuple per range."""
    if not scales:
        yield ()
        return
    for head in range(scales[0]):
        for rest in _classes(scales[1:]):
            yield (head,) + rest


def _substitute(atom: Union[Ge, Mod], scales: Sequence[int],
                offsets: Sequence[int]) -> Union[Ge, bool]:
    """Apply x_v -> scales[v]*x_v + offsets[v] to an atom; a congruence
    becomes a constant, its value at the offsets."""
    if isinstance(atom, Ge):
        aff = atom.affine
        return Ge(Affine(tuple(map(mul, aff.coeffs, scales)), aff.eval(offsets)))
    return _holds(atom, offsets)


def _ij(aff: Affine) -> Tuple[int, int]:
    """The coefficients of i and j; a form in i alone has j-coefficient 0."""
    return (aff.coeffs + (0,))[:2]


def _sweep(cond: Condition, maps: List[Affine],
           terms: Dict[Tuple[Expo, ...], Dict[Expo, int]]) -> None:
    """Add sum of X^phi(i, j) over the (i, j) in N^2 where cond holds to terms,
    one numerator per denominator.

    An atom a*i + b*j + c >= 0 with b != 0 is a line (p, q, r): it holds iff
    j >= t(i) (b > 0), or iff j < t(i) (b < 0), where t(i) = ceil((p*i + q)/r);
    the key None is the line j = 0.  Going up a column, crossing a line flips
    its atom, so cond holds on runs of j whose sums telescope to one term
    X^phi(i, t)/(1 - X^b) per switch, b the j-coefficients of phi.  Before
    the last column s where two lines cross or an atom with b = 0 changes,
    columns are summed one at a time; from s on the lines keep their order,
    and the switches of line (p, q, r) over all i >= s sum to the half-open
    cone with rays (r, p)/gcd(r, p) and (0, 1) at the points (i, t(i)),
    s <= i < s + r/gcd(r, p).  When phi ignores j, a column adds its number
    of points instead, which is affine in i on each class mod a period.
    """
    ges = atoms(cond)  # the substitution left only Ge atoms
    lines: Dict[Optional[Ge], Tuple[int, int, int]] = {None: (0, 0, 1)}
    for g in ges:
        a, b = _ij(g.affine)
        if b > 0:
            lines[g] = (-a, -g.affine.const, b)
        elif b < 0:
            lines[g] = (a, g.affine.const + 1, -b)
    astep = tuple(_ij(phi)[0] for phi in maps)
    bstep = tuple(_ij(phi)[1] for phi in maps)

    def at(key, i: int) -> int:
        p, q, r = lines[key]
        return -(-(p * i + q) // r)

    def expo(i: int, j: int) -> Expo:
        return tuple(phi.eval((i, j)) for phi in maps)

    def add(den: Tuple[Expo, ...], e: Expo, c: int) -> None:
        num = terms.setdefault(tuple(sorted(den)), {})
        num[e] = num.get(e, 0) + c

    def switches(i: int, order) -> List[Tuple[Optional[Ge], int]]:
        truth = {g: g.affine.eval((i, 0)) >= 0 for g in ges}
        out, held = [], False
        for key in [None] + order:
            if key is not None:
                truth[key] = not truth[key]
            if fold(cond, truth.__getitem__) != held:
                held = not held
                out.append((key, 1 if held else -1))
        if held and not any(bstep):
            raise InfiniteFibers("constant map on an infinite vertical fiber")
        return out

    def count(sw, i: int) -> int:
        return -sum(w * at(key, i) for key, w in sw)

    cuts = [0]
    for g in ges:
        a, b = _ij(g.affine)
        if a and not b:
            cuts.append(-g.affine.const // a + 1)
    for (p1, q1, r1), (p2, q2, r2) in itertools.combinations(lines.values(), 2):
        det = p1 * r2 - p2 * r1
        if det:
            cuts.append((q2 * r1 - q1 * r2) // det + 1)
    s = max(cuts)
    for i in range(s):
        sw = switches(i, sorted((k for k in lines if at(k, i) > 0),
                                key=lambda k: at(k, i)))
        if any(bstep):
            for key, w in sw:
                add((bstep,), expo(i, at(key, i)), w)
        else:
            add((), expo(i, 0), count(sw, i))

    height = {k: Fraction(p * s + q, r) for k, (p, q, r) in lines.items()}
    sw = switches(s, sorted((k for k in lines if height[k] > 0), key=height.get))
    rays = {}
    for key, _ in sw:
        p, _, r = lines[key]
        rays[key] = (r // gcd(p, r), p // gcd(p, r))
    if any(bstep):
        for key, w in sw:
            rho, pi = rays[key]
            ray = tuple(rho * a + pi * b for a, b in zip(astep, bstep))
            for i in range(s, s + rho):
                add((ray, bstep), expo(i, at(key, i)), w)
    else:
        R = lcm(*(rho for rho, _ in rays.values()))
        ray = tuple(R * a for a in astep)
        for i in range(s, s + R):
            e = expo(i, 0)
            add((ray,), e, count(sw, i))
            add((ray, ray), tuple(x + y for x, y in zip(e, ray)),
                count(sw, i + R) - count(sw, i))


# ---------------------------------------------------------------------------
# s-expression syntax for conditions
# ---------------------------------------------------------------------------

def _affine_value(node, target):
    """The value of an affine s-expression, computed as it is read with the
    value operations of the `parsing` target that the infix reader uses."""
    if isinstance(node, str):
        return (target.number(int(node)) if re.fullmatch(r"-?\d+", node)
                else target.power(node, 1))
    if not node:
        raise ParseError("empty affine expression")
    head, *args = node
    if head not in ("+", "-", "*"):
        raise ParseError(f"unknown affine operator {head!r}")
    if head == "*" and len(args) != 2:
        raise ParseError("'*' needs exactly two arguments")
    if head == "-" and not args:
        raise ParseError("'-' needs at least one argument")
    values = [_affine_value(arg, target) for arg in args]
    if head == "*":
        return target.product(*values)
    if head == "-" and len(values) == 1:
        return target.negated(values[0])
    out = values[0] if values else {}
    for value in values[1:]:
        out = target.add(out, value, 1 if head == "+" else -1)
    return out


def _parse_affine(node, names: Sequence[str]) -> Affine:
    return Affine(*split_affine(_affine_value(node, int_target(names)).get((), {}),
                                len(names), "nonlinear product in affine expression"))


def _parse_atom(node, names: Sequence[str]) -> Optional[Condition]:
    head = node[0]
    if head in (">=", "<=", "="):
        if len(node) != 3:
            raise ParseError(f"{head!r} needs exactly two arguments")
        a, b = (node[2], node[1]) if head == "<=" else (node[1], node[2])
        ge = Ge(_parse_affine(["-", a, b], names))
        return ge if head != "=" else And((ge, Ge(_parse_affine(["-", b, a], names))))
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
    return None


def parse_condition(text: str, names: Sequence[str]) -> Condition:
    """Parse the documented s-expression condition syntax."""
    return read_condition(text, lambda node: _parse_atom(node, names))


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
    return format_fraction([(f.num[m], format_monomial(names, m)) for m in sorted(f.num)],
                           [f"(1 - {format_monomial(names, c)})" for c in f.den])
