"""Motivic volume formulas evaluated from user-supplied resolution data.

The library never computes resolutions; the caller supplies the divisor
multiplicities and the classes of the strata, and the formulas

    vol = L^{-d} * sum_I [stratum_I] * prod_{i in I} (L-1)/(L^{nu_i}-1)

(and its ideal-twisted and Newton-polyhedron variants) are evaluated
exactly in the localized ring.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Sequence

from .errors import (MissingN, RealizationOnlyStrata, StrataNotPartition,
                     ValidationError)
from .grring import (HodgeRational, LaurentPoly, MotClass, chi_realize,
                     hodge_sum, mot_sum)
from .polyhedra import NewtonPolyhedron, z_of_delta


@dataclass(frozen=True)
class Divisor:
    """An exceptional component: multiplicity nu >= 1 and an optional ideal
    multiplicity N >= 0."""

    name: str
    nu: int
    N: Optional[int] = None

    def __post_init__(self):
        if self.nu < 1:
            raise ValidationError(f"divisor {self.name!r}: nu must be >= 1, got {self.nu}")
        if self.N is not None and self.N < 0:
            raise ValidationError(f"divisor {self.name!r}: N must be >= 0, got {self.N}")


@dataclass(frozen=True)
class Stratum:
    """The locally closed piece indexed by a subset I of the divisors.

    Either an exact class, or a realization-only pair (chi, hodge) for
    strata with no polynomial class (e.g. positive-genus curves).
    """

    I: FrozenSet[str]
    cls: Optional[MotClass] = None
    chi: Optional[Fraction] = None
    hodge: Optional[HodgeRational] = None

    def __post_init__(self):
        if self.cls is None and (self.chi is None or self.hodge is None):
            raise ValidationError(
                f"stratum {sorted(self.I)}: needs an exact class or both chi and hodge")


class ResolutionData:
    """Dimension, divisor table, and strata classes."""

    __slots__ = ("d", "divisors", "strata", "declared_Y")

    def __init__(self, d: int, divisors: Sequence[Divisor],
                 strata: Sequence[Stratum], declared_Y: Optional[MotClass] = None):
        if d < 1:
            raise ValidationError(f"dimension must be positive, got {d}")
        names = [div.name for div in divisors]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate divisor names")
        name_set = set(names)
        seen: set = set()
        for s in strata:
            if not s.I <= name_set:
                raise ValidationError(
                    f"stratum {sorted(s.I)} references unknown divisors")
            if s.I in seen:
                raise ValidationError(f"duplicate stratum for subset {sorted(s.I)}")
            seen.add(s.I)
        self.d = d
        self.divisors = tuple(divisors)
        self.strata = tuple(strata)
        self.declared_Y = declared_Y

    @property
    def has_realization_only(self) -> bool:
        return any(s.cls is None for s in self.strata)


@dataclass(frozen=True)
class PolyhedralStratum:
    """A stratum whose local contribution is the zeta value of a Newton
    polyhedron; delta = None encodes the empty subset (contribution 1)."""

    cls: MotClass
    delta: Optional[NewtonPolyhedron]


def _exact_classes(res: ResolutionData) -> None:
    if res.has_realization_only:
        raise RealizationOnlyStrata(
            "some strata carry only (chi, hodge) data; exact ring output unavailable")


def _volume(res: ResolutionData, nu_map: Dict[str, int]) -> MotClass:
    edge = LaurentPoly.binom(1)
    return mot_sum((s.cls.num * edge ** len(s.I),
                    s.cls.den + tuple(nu_map[name] for name in s.I))
                   for s in res.strata).shift(-res.d)


def volume_from_resolution(res: ResolutionData) -> MotClass:
    """L^{-d} sum_I [stratum_I] prod_{i in I} (L-1)/(L^{nu_i}-1)."""
    _exact_classes(res)
    return _volume(res, {div.name: div.nu for div in res.divisors})


def volume_with_ideal(res: ResolutionData) -> MotClass:
    """Same formula with nu_i replaced by nu_i + N_i; this evaluates the
    integral of L^{-ord_t I} against the motivic measure."""
    _exact_classes(res)
    nu_map = {}
    for div in res.divisors:
        if div.N is None:
            raise MissingN(f"divisor {div.name!r} has no ideal multiplicity N")
        nu_map[div.name] = div.nu + div.N
    return _volume(res, nu_map)


def volume_from_polyhedra(d: int, strata: Sequence[PolyhedralStratum]) -> MotClass:
    """L^{-d} sum_C [C] * Z(Delta_C)."""
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    terms = []
    for s in strata:
        z = MotClass.one() if s.delta is None else z_of_delta(s.delta)
        terms.append((s.cls.num * z.num, s.cls.den + z.den))
    return mot_sum(terms).shift(-d)


def kontsevich_invariant(res: ResolutionData) -> MotClass:
    """The volume formula guarded by the requirement that the strata classes
    sum to the declared total class [Y]."""
    _exact_classes(res)
    if res.declared_Y is None:
        raise ValidationError("kontsevich_invariant needs a declared total class [Y]")
    total = mot_sum((s.cls.num, s.cls.den) for s in res.strata)
    if total != res.declared_Y:
        raise StrataNotPartition(
            f"strata classes sum to {total!r}, declared total is {res.declared_Y!r}")
    return volume_from_resolution(res)


def realize_volume(res: ResolutionData, target: str):
    """chi or Hodge realization of the volume, computed stratum by stratum so
    realization-only strata are supported."""
    if target not in ("chi", "hodge"):
        raise ValueError("target must be 'chi' or 'hodge'")
    nu_map = {div.name: div.nu for div in res.divisors}
    if target == "chi":
        total = Fraction(0)
        for s in res.strata:
            value = s.chi if s.cls is None else chi_realize(s.cls)
            for name in s.I:
                value = value / nu_map[name]
            total += value
        # chi(L^{-d}) = 1
        return total
    # (uv)^{-d} sum_I [stratum_I] prod_{i in I} (uv - 1)/((uv)^{nu_i} - 1), a
    # class stratum entering as its numerator and denominator on the diagonal
    terms = []
    for s in res.strata:
        w = (LaurentPoly.binom(1) ** len(s.I)).shift(-res.d)
        nus = tuple(nu_map[name] for name in s.I)
        if s.cls is None:
            terms.append((s.hodge.num, w, s.hodge.den + nus))
        else:
            terms.append(({(0, 0): 1}, s.cls.num * w, s.cls.den + nus))
    return hodge_sum(terms)
