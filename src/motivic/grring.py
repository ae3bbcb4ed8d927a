"""Exact arithmetic in the localized Grothendieck ring of varieties.

Classes here live in Z[L, L^-1] localized at the multiplicative set
generated by (L^i - 1), i >= 1.  L is the class of the affine line.
Everything is exact integer/rational arithmetic; no floats: the public
constructors take exponents, coefficients and factors through
`operator.index`, so a non-integer raises TypeError.

Invariant: a `LaurentPoly` stores no zero coefficient, and a `MotClass`
stores the canonical pair made by `_reduce` (den == () for zero).  The
constructor never reduces an empty denominator, so sums and products of
classes with no denominator skip `_reduce`; negation and `shift` store their
result as is (Phi_k(0) = +-1, so multiplying by L^k cancels no Phi_k).  Every
other sum and product reduces once; a sum over equal denominators skips the
common-denominator work, `mot_sum` adds many fractions with a single
reduction, and `__pow__` reduces once for the whole power.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, index, mul
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import BudgetExceeded, ChiUndefined

# Exact division runs over a dense list of the dividend's exponents: spanning more
# than this many, or making more term updates than this, raises BudgetExceeded.
MAX_SPAN = 2 * 10 ** 6


class LaurentPoly:
    """Laurent polynomial in L with arbitrary-precision integer coefficients.

    Stored as a map exponent -> coefficient with no zero coefficients.
    Instances are immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[int, int]] = None):
        cleaned: Dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    cleaned[index(e)] = index(c)
        self.terms = cleaned

    @classmethod
    def _of(cls, terms: Dict[int, int]) -> "LaurentPoly":
        """The polynomial of a dict of int exponents and coefficients, whose
        zero coefficients are dropped and which is otherwise taken as is."""
        p = object.__new__(cls)
        p.terms = terms if all(terms.values()) else {e: c for e, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def L(cls, power: int = 1, coeff: int = 1) -> "LaurentPoly":
        return cls({power: coeff})

    @classmethod
    def binom(cls, i: int) -> "LaurentPoly":
        """The factor L^i - 1."""
        return cls({i: 1, 0: -1})

    # -- queries -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of zero polynomial")
        return max(self.terms)

    @property
    def low(self) -> int:
        if not self.terms:
            raise ValueError("low exponent of zero polynomial")
        return min(self.terms)

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly._of(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: Dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._of(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        """A repeated product: the exponents used are small."""
        if n < 0:
            raise ValueError("negative power of a general Laurent polynomial")
        return reduce(mul, [self] * n, LaurentPoly.const(1))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by L^k."""
        return LaurentPoly._of({e + k: c for e, c in self.terms.items()})

    def divexact(self, other: "LaurentPoly") -> Optional["LaurentPoly"]:
        """Exact quotient self / other, or None if the division has a remainder.

        Integer long division from the top; it stops with None at the first
        quotient coefficient that is not an integer, so the answer is the
        same as for division over the rationals, for any nonzero divisor.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero:
            return self
        # normalize both to ordinary polynomials
        slow, shigh, olow = self.low, self.degree, other.low
        span, terms, dd = shigh - slow + 1, len(other.terms), other.degree - olow
        if span > MAX_SPAN:
            raise BudgetExceeded(f"exact division over {span} exponents, "
                                 f"more than the bound of {MAX_SPAN}")
        if (span - dd) * terms > MAX_SPAN:
            raise BudgetExceeded(f"exact division over {span} exponents by {terms} terms, "
                                 f"more than the bound of {MAX_SPAN} term updates")
        rem = [self.terms.get(e, 0) for e in range(slow, shigh + 1)]
        den = [(e - olow, c) for e, c in other.terms.items()]
        lead = other.terms[other.degree]
        quot: Dict[int, int] = {}
        for top in range(len(rem) - 1, dd - 1, -1):
            if not rem[top]:
                continue
            q, r = divmod(rem[top], lead)
            if r:
                return None
            quot[top - dd + slow - olow] = q
            for e, c in den:
                rem[top - dd + e] -= q * c
        if any(rem[:dd]):
            return None
        return LaurentPoly._of(quot)

    def eval_at(self, x: Fraction) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * (Fraction(x) ** e)
        return total

    def __repr__(self) -> str:
        from .parsing import format_laurent

        return f"LaurentPoly({format_laurent(self)})"


def _clean_den(den: Iterable[int]) -> Tuple[int, ...]:
    out = tuple(sorted(map(index, den)))
    for i in out:
        if i < 1:
            raise ValueError(f"denominator factor (L^{i} - 1) needs i >= 1")
    return out


def _binoms(den: Iterable[int]) -> LaurentPoly:
    """prod_{i in den} (L^i - 1)."""
    return reduce(mul, map(LaurentPoly.binom, den), LaurentPoly.const(1))


@lru_cache(maxsize=None)
def _divisors(i: int) -> Tuple[int, ...]:
    """The divisors of i in increasing order, found in pairs d, i // d."""
    small = [d for d in range(1, math.isqrt(i) + 1) if i % d == 0]
    return tuple(sorted(set(small + [i // d for d in small])))


@lru_cache(maxsize=None)
def _totient(k: int) -> int:
    """Euler's phi(k) = deg Phi_k; the degrees of Phi_d, d | k, add up to k."""
    return k - sum(map(_totient, _divisors(k)[:-1]))


@lru_cache(maxsize=None)
def _cyclotomic(k: int) -> LaurentPoly:
    """Phi_k(L); L^k - 1 is the product of Phi_d(L) over d | k."""
    p = LaurentPoly.binom(k)
    for d in _divisors(k)[:-1]:
        p = p.divexact(_cyclotomic(d))
    return p


def _phi_divides(k: int, p: LaurentPoly) -> bool:
    """Phi_k | p, tested on p folded mod L^k - 1 (which Phi_k divides); a nonzero
    folded p spanning less than deg Phi_k = phi(k) fails before Phi_k is built."""
    folded: Dict[int, int] = {}
    for e, c in p.terms.items():
        folded[e % k] = folded.get(e % k, 0) + c
    folded = LaurentPoly._of(folded)
    if folded and folded.degree - folded.low < _totient(k):
        return False
    return folded.divexact(_cyclotomic(k)) is not None


def _reduce(nums: List[LaurentPoly], den: Tuple[int, ...]
            ) -> Tuple[List[LaurentPoly], Tuple[int, ...]]:
    """Canonical form of the fractions p / prod_{i in den} (L^i - 1), p in nums.

    Every Phi_k of the denominator that divides all numerators is cancelled.
    The Phi's left are covered by (L^i - 1) factors again, largest k first,
    and the numerators take the extra Phi_d a chosen factor brings in, so a
    product of (L^i - 1) factors comes back unchanged.
    """
    phis: Dict[int, int] = {}
    for i in den:
        for d in _divisors(i):
            phis[d] = phis.get(d, 0) + 1
    for k in phis:
        while phis[k] and all(_phi_divides(k, p) for p in nums):
            nums = [p.divexact(_cyclotomic(k)) for p in nums]
            phis[k] -= 1
    cover: List[int] = []
    extra = LaurentPoly.const(1)
    for k in sorted(phis, reverse=True):
        while phis[k]:
            cover.append(k)
            for d in _divisors(k):
                if phis.get(d):
                    phis[d] -= 1
                else:
                    extra = extra * _cyclotomic(d)
    return [p * extra for p in nums], tuple(sorted(cover))


class MotClass:
    """Element num / prod_{i in den} (L^i - 1) of the localized ring.

    The stored pair is the canonical form made by `_reduce`, so equal
    classes have equal (num, den); `mot_eq` cross-multiplies instead.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Iterable[int] = ()):
        den = _clean_den(den)
        if num.is_zero:
            den = ()
        elif den:
            (num,), den = _reduce([num], den)
        self.num = num
        self.den = den

    @classmethod
    def _of(cls, num: LaurentPoly, den: Tuple[int, ...]) -> "MotClass":
        """The class of a pair that is already in canonical form."""
        a = object.__new__(cls)
        a.num = num
        a.den = den
        return a

    # -- constructors ------------------------------------------------------
    @classmethod
    def const(cls, c: int) -> "MotClass":
        return cls(LaurentPoly.const(c))

    @classmethod
    def L(cls, power: int = 1) -> "MotClass":
        return cls(LaurentPoly.L(power))

    @classmethod
    def zero(cls) -> "MotClass":
        return cls(LaurentPoly())

    @classmethod
    def one(cls) -> "MotClass":
        return cls.const(1)

    # -- queries -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def den_poly(self) -> LaurentPoly:
        return _binoms(self.den)

    def virtual_dim(self) -> int:
        """deg_L(num) - sum(den); raises on the zero class."""
        return self.num.degree - sum(self.den)

    # -- ring structure ----------------------------------------------------
    def __add__(self, other: "MotClass") -> "MotClass":
        if self.is_zero or other.is_zero:
            return other if self.is_zero else self
        if self.den == other.den:
            return MotClass(self.num + other.num, self.den)
        return mot_sum(((self.num, self.den), (other.num, other.den)))

    def __neg__(self) -> "MotClass":
        return MotClass._of(-self.num, self.den)

    def __sub__(self, other: "MotClass") -> "MotClass":
        return self + (-other)

    def __mul__(self, other: "MotClass") -> "MotClass":
        return MotClass(self.num * other.num, self.den + other.den)

    def __pow__(self, n: int) -> "MotClass":
        if n < 0:
            raise ValueError("negative power of a MotClass")
        return MotClass(self.num ** n, self.den * n)

    def shift(self, k: int) -> "MotClass":
        """Multiply by L^k."""
        # Phi_j(0) = +-1, so Phi_j divides L^k p exactly when it divides p
        return MotClass._of(self.num.shift(k), self.den)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MotClass)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def eval_at(self, q: int) -> Fraction:
        """Specialize L to the integer q (q >= 2 keeps all factors nonzero)."""
        value = self.num.eval_at(Fraction(q))
        for i in self.den:
            value /= Fraction(q) ** i - 1
        return value

    def __repr__(self) -> str:
        from .parsing import format_motclass

        return f"MotClass({format_motclass(self)})"


def poly_mul(a: Mapping, b: Mapping, zero=0) -> Dict:
    """Product of two polynomials given as {exponents: coefficient}."""
    out: Dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            c = c1 * c2
            out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c != zero}


def _over_common_den(fractions: Iterable[Tuple[Mapping, Iterable]]
                     ) -> Tuple[Counter, List[Tuple[Dict, Counter]]]:
    """Numerator terms added per denominator, with the multiset max of the
    denominators and, per denominator, the factors it lacks."""
    groups: Dict[Tuple, Dict] = {}
    for terms, den in fractions:
        acc = groups.setdefault(tuple(sorted(den)), {})
        for k, c in terms.items():
            acc[k] = acc[k] + c if k in acc else c
    common: Counter = Counter()
    for den in groups:
        common |= Counter(den)
    return common, [(acc, common - Counter(den)) for den, acc in groups.items()]


def fraction_sum(fractions: Iterable[Tuple[Mapping, Iterable]],
                 factor: Callable[[object], Mapping], zero=0) -> Tuple[Dict, Tuple]:
    """The sum of num / prod_{f in den} factor(f) over the (num, den) pairs,
    numerators given as {exponents: coefficient}, as an unreduced (num, den).

    Numerators over equal denominators are added first; each sum is then
    multiplied by the factors its denominator lacks from the multiset max of
    the denominators, which is the denominator of the result.
    """
    common, groups = _over_common_den(fractions)
    total: Dict = {}
    for acc, missing in groups:
        for f in missing.elements():
            acc = poly_mul(acc, factor(f), zero)
        for k, c in acc.items():
            total[k] = total[k] + c if k in total else c
    return {k: c for k, c in total.items() if c != zero}, tuple(common.elements())


def mot_sum(fractions: Iterable[Tuple[LaurentPoly, Iterable[int]]]) -> MotClass:
    """The class of the sum of num / prod_{i in den} (L^i - 1) over the
    (num, den) pairs, none of which need be canonical.

    Numerators over equal denominators are added first; the sums are then
    put over the multiset max of the denominators and reduced once.
    """
    common, groups = _over_common_den((num.terms, den) for num, den in fractions)
    total = LaurentPoly()
    for acc, missing in groups:
        num = LaurentPoly._of(acc)
        total = total + (num * _binoms(missing.elements()) if missing else num)
    return MotClass(total, common.elements())


def mot_eq(a: MotClass, b: MotClass) -> bool:
    """Equality by cross-multiplication, independent of canonical form."""
    return a.num * b.den_poly() == b.num * a.den_poly()


def filtration_degree(a: MotClass):
    """Largest m with a in F^m of the dimension filtration; +inf for zero."""
    if a.is_zero:
        return math.inf
    return -a.virtual_dim()


class CompletionExpansion:
    """Truncated expansion sum_n c_n L^{-n} through order n <= order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Mapping[int, int], order: int):
        self.order = int(order)
        self.coeffs = {int(n): int(c) for n, c in coeffs.items()
                       if c and n <= self.order}

    def coeff(self, n: int) -> int:
        if n > self.order:
            raise ValueError(f"coefficient at L^-{n} beyond truncation order {self.order}")
        return self.coeffs.get(n, 0)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CompletionExpansion)
                and self.order == other.order and self.coeffs == other.coeffs)

    def matches(self, other: "CompletionExpansion") -> bool:
        """Agreement through the common valid order."""
        m = min(self.order, other.order)
        for n in set(self.coeffs) | set(other.coeffs):
            if n <= m and self.coeffs.get(n, 0) != other.coeffs.get(n, 0):
                return False
        return True

    def __repr__(self) -> str:
        from .parsing import format_laurent
        body = format_laurent(LaurentPoly._of({-n: c for n, c in self.coeffs.items()}))
        return f"CompletionExpansion({body}; order {self.order})"


def expand_completion(a: MotClass, m: int) -> CompletionExpansion:
    """Laurent expansion of a in powers of L^-1 through order m.

    Requires m >= -vd(a) unless a = 0, so the principal part is visible.
    """
    if a.is_zero:
        return CompletionExpansion({}, m)
    top, vd = a.num.degree, a.virtual_dim()
    if m < -vd:
        raise ValueError(f"order {m} truncates the entire expansion (needs >= {-vd})")
    # 1/(L^i - 1) = u^i / (1 - u^i) with u = L^-1, so a is num u^sum(den)
    # divided by each 1 - u^i; coeffs[n] is the coefficient of u^(n - vd)
    coeffs = [a.num.coeff(top - n) for n in range(m + vd + 1)]
    for i in a.den:
        # divide by 1 - u^i: c_n += c_{n-i}, with c_{n-i} already divided
        for n in range(i, len(coeffs)):
            coeffs[n] += coeffs[n - i]
    return CompletionExpansion({n - vd: c for n, c in enumerate(coeffs)}, m)


def chi_realize(a: MotClass) -> Fraction:
    """Euler characteristic of a, extending chi((L-1)/(L^i-1)) = 1/i.

    Defined iff (L-1)^m divides the numerator, m the number of denominator
    factors; the value is then (num/(L-1)^m)(1) / prod(i).
    """
    value = _at_one(a.num, a.den)
    if value is None:
        from .parsing import format_motclass

        raise ChiUndefined(f"chi undefined for {format_motclass(a)}: "
                           f"(L-1)^{len(a.den)} does not divide the numerator")
    return value


def _at_one(num: LaurentPoly, den: Tuple[int, ...]) -> Optional[Fraction]:
    """num / prod_{i in den} (L^i - 1) at L = 1: (num / (L-1)^m)(1) / prod(den)
    with m = len(den), or None if (L-1)^m does not divide num."""
    for _ in den:
        num = num.divexact(LaurentPoly.binom(1))
        if num is None:
            return None
    return Fraction(sum(num.terms.values()), math.prod(den))


class HodgeRational:
    """Hodge-Deligne realization value: a rational function in u, v.

    Numerator is a Laurent polynomial in u, v (map (p, q) -> int); the
    denominator is a multiset of factors ((uv)^i - 1).  L-polynomial classes
    land on the diagonal w = uv, but realization-only strata may carry
    genuinely two-variable numerators.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[Tuple[int, int], int], den: Iterable[int] = ()):
        num = {(index(p), index(q)): index(c) for (p, q), c in num.items() if c}
        den = _clean_den(den)
        if not num:
            den = ()
        elif den:
            # u^p v^q = u^(p-q) w^q: one polynomial in w = uv per offset p - q
            slices: Dict[int, Dict[int, int]] = {}
            for (p, q), c in num.items():
                slices.setdefault(p - q, {})[q] = c
            polys, den = _reduce([LaurentPoly._of(w) for w in slices.values()], den)
            num = {(q + s, q): c for s, poly in zip(slices, polys)
                   for q, c in poly.terms.items()}
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c: int) -> "HodgeRational":
        return cls({(0, 0): c})

    @classmethod
    def w(cls, power: int = 1) -> "HodgeRational":
        """(uv)^power."""
        return cls({(power, power): 1})

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "HodgeRational") -> "HodgeRational":
        num = poly_mul(self.num, _diagonal(_binoms(other.den)))
        for k, c in poly_mul(other.num, _diagonal(_binoms(self.den))).items():
            num[k] = num.get(k, 0) + c
        return HodgeRational(num, self.den + other.den)

    def __neg__(self) -> "HodgeRational":
        return HodgeRational({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: "HodgeRational") -> "HodgeRational":
        return self + (-other)

    def __mul__(self, other: "HodgeRational") -> "HodgeRational":
        return HodgeRational(poly_mul(self.num, other.num), self.den + other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HodgeRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((frozenset(self.num.items()), self.den))

    def at_uv_one(self) -> Fraction:
        """Value at u = v = 1 (the Euler specialization), when defined."""
        # substitute u = v = s: the factors become s^(2i) - 1
        diag: Dict[int, int] = {}
        for (p, q), c in self.num.items():
            diag[p + q] = diag.get(p + q, 0) + c
        value = _at_one(LaurentPoly._of(diag), tuple(2 * i for i in self.den))
        if value is None:
            raise ChiUndefined("value at u = v = 1 undefined")
        return value

    def __repr__(self) -> str:
        from .parsing import format_hodge

        return f"HodgeRational({format_hodge(self)})"


def _diagonal(p: LaurentPoly) -> Dict[Tuple[int, int], int]:
    """p(uv) as a map (p, q) -> coefficient of u^p v^q."""
    return {(e, e): c for e, c in p.terms.items()}


def hodge_realize(a: MotClass) -> HodgeRational:
    """Hodge realization: substitute L -> uv; a ring morphism."""
    return HodgeRational(_diagonal(a.num), a.den)


def hodge_sum(fractions: Iterable[Tuple[Mapping[Tuple[int, int], int], LaurentPoly,
                                        Iterable[int]]]) -> HodgeRational:
    """The sum of num(u, v) * w(uv) / prod_{i in den} ((uv)^i - 1) over the
    (num, w, den) triples, put over one denominator by `fraction_sum` and
    reduced once."""
    return HodgeRational(*fraction_sum(
        ((poly_mul(num, _diagonal(w)), den) for num, w, den in fractions),
        lambda i: {(i, i): 1, (0, 0): -1}))
