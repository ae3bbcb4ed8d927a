"""Rational power series in T with coefficients in the localized ring.

A series is num(T) / prod (1 - L^a T^b); this is the natural home of the
arc-space Poincare series and of its coefficient limits.  `expand` runs the
recurrence on integer numerators over one common denominator and reduces each
coefficient once, at the end; `specialize_at_q` specializes L := q first.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import BudgetExceeded, NoLimit
from .grring import LaurentPoly, MotClass, fraction_sum, mot_sum
from .parsing import format_series_num

# Coefficient slots plus term updates one `expand` may make; past it BudgetExceeded.
MAX_UPDATES = 10 ** 6


class RationalMotSeries:
    """num: polynomial in T with MotClass coefficients; den: factors (1 - L^a T^b)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Mapping[int, MotClass], den: Sequence[Tuple[int, int]] = ()):
        self.num: Dict[int, MotClass] = {}
        for e, c in num.items():
            if e < 0:
                raise ValueError("negative T-exponent in series numerator")
            if not c.is_zero:
                self.num[index(e)] = c
        self.den: Tuple[Tuple[int, int], ...] = tuple(sorted(
            (index(a), index(b)) for a, b in den))
        for a, b in self.den:
            if b < 1:
                raise ValueError(f"denominator factor (1 - L^{a} T^{b}) needs b >= 1")

    @classmethod
    def geometric(cls, a: int, b: int = 1, coeff: MotClass = None) -> "RationalMotSeries":
        """coeff / (1 - L^a T^b)."""
        c = coeff if coeff is not None else MotClass.one()
        return cls({0: c}, [(a, b)])

    def __add__(self, other: "RationalMotSeries") -> "RationalMotSeries":
        num, den = fraction_sum(
            (({(e,): c for e, c in f.num.items()}, f.den) for f in (self, other)),
            lambda ab: {(0,): MotClass.one(), (ab[1],): -MotClass.L(ab[0])},
            MotClass.zero())
        return RationalMotSeries({e: c for (e,), c in num.items()}, den)

    def __neg__(self) -> "RationalMotSeries":
        return RationalMotSeries({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other: "RationalMotSeries") -> "RationalMotSeries":
        return self + (-other)

    def __repr__(self) -> str:
        den = "".join(f"/(1 - L^{a} T^{b})" for a, b in self.den)
        return f"RationalMotSeries({format_series_num(self.num)}{den})"


def expand(P: RationalMotSeries, N: int) -> List[MotClass]:
    """Coefficients a_0 .. a_N of the formal expansion of P."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    too_long = BudgetExceeded(f"expanding a series to n = {N} takes more than "
                              f"{MAX_UPDATES} coefficient slots and term updates")
    work = N + 1  # the coefficient slots, charged before they are made
    if work > MAX_UPDATES:
        raise too_long
    # every a_n over the common denominator of the numerator, as {exponent: int}
    num, den = fraction_sum(
        (({(e, k): v for k, v in c.num.terms.items()}, c.den) for e, c in P.num.items()),
        lambda i: {(0, i): 1, (0, 0): -1})
    coeffs = [{} for _ in range(N + 1)]
    for (e, k), v in num.items():
        if e <= N:
            coeffs[e][k] = v
    for a, b in P.den:
        # divide by 1 - L^a T^b: a_n += L^a a_{n-b}, with a_{n-b} already divided
        for n in range(b, N + 1):
            acc, prev = coeffs[n], coeffs[n - b]
            work += len(prev)
            if work > MAX_UPDATES:
                raise too_long
            for e, c in prev.items():
                c += acc.get(e + a, 0)
                if c:
                    acc[e + a] = c
                else:  # drop a cancelled term at once, or cancelled terms pile up
                    del acc[e + a]
    # one reduction per coefficient, in the constructor
    return [MotClass(LaurentPoly._of(terms), den) for terms in coeffs]


def limit_of_coefficients(P: RationalMotSeries, d: int) -> MotClass:
    """Limit of a_n L^{-(n+1)d} in the completed ring, in closed form.

    The dominant denominator factor must be exactly (1 - L^d T), appearing
    at most once; every other factor (a, b) must satisfy a - b*d < 0.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    dominant_seen = False
    others: List[Tuple[int, int]] = []
    for a, b in P.den:
        if (a, b) == (d, 1) and not dominant_seen:
            dominant_seen = True
            continue
        if a - b * d >= 0:
            raise NoLimit(
                f"factor (1 - L^{a} T^{b}) has a - b*d = {a - b * d} >= 0 for d = {d}")
        others.append((a, b))
    if not dominant_seen:
        return MotClass.zero()
    # evaluate L^{-d} * num(T = L^{-d}) / prod of remaining factors at T = L^{-d};
    # 1 - L^{a - b d} = (L^{bd - a} - 1) * L^{a - b d}, so dividing by it is
    # multiplying by L^i / (L^i - 1), i = bd - a
    rest = tuple(b * d - a for a, b in others)
    return mot_sum((c.num.shift(sum(rest) - d * (e + 1)), c.den + rest)
                   for e, c in P.num.items())


def specialize_at_q(P: RationalMotSeries, q: int, N: int) -> List[Fraction]:
    """The rational sequence a_n(L := q) for n = 0..N."""
    if q < 2:
        raise ValueError("q must be an integer >= 2")
    if N < 0:
        raise ValueError("N must be nonnegative")
    # L := q is a ring map: specialize the numerator, then run the recurrence
    values = [c.eval_at(q) if (c := P.num.get(n)) else Fraction(0) for n in range(N + 1)]
    for a, b in P.den:
        qa = Fraction(q) ** a
        for n in range(b, N + 1):
            values[n] += qa * values[n - b]
    return values


@dataclass
class CompareReport:
    """Per-index comparison of a declared series against an enumerated table."""

    q: int
    expected: List[Fraction]
    actual: List[int]
    mismatches: List[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def lines(self) -> List[str]:
        out = []
        for n, (e, a) in enumerate(zip(self.expected, self.actual)):
            status = "ok" if e == a else "MISMATCH"
            out.append(f"n={n} expected={e} actual={a} {status}")
        out.append("PASS" if self.passed else "FAIL")
        return out


def compare_counts(P: RationalMotSeries, q: int, counts: Sequence[int]) -> CompareReport:
    """Check specialize_at_q(P, q) against an enumerated count table."""
    if not counts:
        raise ValueError("counts must be nonempty")
    expected = specialize_at_q(P, q, len(counts) - 1)
    mismatches = [n for n, (e, a) in enumerate(zip(expected, counts)) if e != a]
    return CompareReport(q=q, expected=expected, actual=list(counts), mismatches=mismatches)
