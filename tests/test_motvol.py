"""Motivic volume formulas from resolution data."""
import itertools
import random
from fractions import Fraction

import pytest

from motivic.errors import (MissingN, RealizationOnlyStrata,
                            StrataNotPartition, ValidationError)
from motivic.grring import (HodgeRational, LaurentPoly, MotClass, chi_realize,
                            hodge_realize, mot_eq)
from motivic.motvol import (Divisor, PolyhedralStratum, ResolutionData,
                            Stratum, kontsevich_invariant, realize_volume,
                            volume_from_polyhedra, volume_from_resolution,
                            volume_with_ideal)
from motivic.parsing import parse_motclass
from motivic.polyhedra import NewtonPolyhedron

fs = frozenset


def blowup_datum() -> ResolutionData:
    return ResolutionData(2, [Divisor("E", 2)], [
        Stratum(fs(), cls=parse_motclass("L^2 - 1")),
        Stratum(fs({"E"}), cls=parse_motclass("L + 1"))])


def ideal_datum(N: int) -> ResolutionData:
    return ResolutionData(1, [Divisor("E", 1, N=N)], [
        Stratum(fs(), cls=parse_motclass("L - 1")),
        Stratum(fs({"E"}), cls=MotClass.one())])


def level_sum(N: int) -> MotClass:
    """Independent oracle: sum over e >= 0 of (L-1) L^{-(e+1)} L^{-N e},
    a geometric series with closed form (L-1) L^N / (L^{N+1} - 1)."""
    return (MotClass(LaurentPoly.binom(1))
            * MotClass(LaurentPoly.L(N), (N + 1,)))


class TestVolumeFromResolution:
    def test_blowup_is_one(self):
        assert mot_eq(volume_from_resolution(blowup_datum()), MotClass.one())

    def test_no_divisors_is_scaled_class(self):
        y = parse_motclass("L^3 + L")
        res = ResolutionData(3, [], [Stratum(fs(), cls=y)])
        assert mot_eq(volume_from_resolution(res), y.shift(-3))

    def test_missing_subsets_contribute_zero(self):
        res = ResolutionData(2, [Divisor("E", 2)],
                             [Stratum(fs(), cls=parse_motclass("L^2 - 1"))])
        want = parse_motclass("L^2 - 1").shift(-2)
        assert mot_eq(volume_from_resolution(res), want)

    def test_realization_only_refused(self):
        res = ResolutionData(1, [], [Stratum(fs(), chi=Fraction(0),
                                             hodge=HodgeRational.const(0))])
        with pytest.raises(RealizationOnlyStrata):
            volume_from_resolution(res)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Divisor("E", 0)
        with pytest.raises(ValidationError):
            ResolutionData(2, [Divisor("E", 1)],
                           [Stratum(fs({"F"}), cls=MotClass.one())])
        with pytest.raises(ValidationError):
            ResolutionData(2, [Divisor("E", 1)],
                           [Stratum(fs(), cls=MotClass.one()),
                            Stratum(fs(), cls=MotClass.one())])


class TestIdealTwist:
    def test_n0_equals_plain_volume(self):
        res = ideal_datum(0)
        assert mot_eq(volume_with_ideal(res), volume_from_resolution(res))

    def test_n1_is_L_over_L_plus_1(self):
        want = MotClass(LaurentPoly.L(1), (2,)) * MotClass(LaurentPoly.binom(1))
        got = volume_with_ideal(ideal_datum(1))
        assert mot_eq(got, want)          # L(L-1)/(L^2-1) = L/(L+1)
        assert mot_eq(got, level_sum(1))  # independent level-by-level oracle

    def test_n2_matches_level_sum(self):
        assert mot_eq(volume_with_ideal(ideal_datum(2)), level_sum(2))

    def test_missing_N(self):
        res = ResolutionData(1, [Divisor("E", 1)],
                             [Stratum(fs({"E"}), cls=MotClass.one())])
        with pytest.raises(MissingN):
            volume_with_ideal(res)


def random_resolution(rng, all_nu_one=False):
    n_div = rng.randint(0, 3)
    divisors = [Divisor(f"E{i}", 1 if all_nu_one else rng.randint(1, 4))
                for i in range(n_div)]
    strata = []
    total = MotClass.zero()
    for r in range(n_div + 1):
        for combo in itertools.combinations(range(n_div), r):
            if rng.random() < 0.8:
                cls = MotClass(LaurentPoly(
                    {e: rng.randint(-3, 3) for e in range(3)}))
                strata.append(Stratum(fs(f"E{i}" for i in combo), cls=cls))
                total = total + cls
    d = rng.randint(1, 4)
    return ResolutionData(d, divisors, strata, declared_Y=total), total


class TestKontsevich:
    def test_crepant_identity_randomized(self):
        rng = random.Random(11)
        for _ in range(10):
            res, total = random_resolution(rng, all_nu_one=True)
            assert mot_eq(kontsevich_invariant(res), total.shift(-res.d))

    def test_partition_check(self):
        res = ResolutionData(1, [], [Stratum(fs(), cls=MotClass.one())],
                             declared_Y=MotClass.L())
        with pytest.raises(StrataNotPartition):
            kontsevich_invariant(res)

    def test_declared_total_required(self):
        res = ResolutionData(1, [], [Stratum(fs(), cls=MotClass.one())])
        with pytest.raises(ValidationError):
            kontsevich_invariant(res)

    def test_two_data_sets_same_invariant(self):
        # a chain of two crepant divisors vs the trivial presentation of
        # the same total class
        y = parse_motclass("L^2")
        chain = ResolutionData(2, [Divisor("E1", 1), Divisor("E2", 1)], [
            Stratum(fs(), cls=parse_motclass("L^2 - 2*L - 1")),
            Stratum(fs({"E1"}), cls=parse_motclass("L")),
            Stratum(fs({"E2"}), cls=parse_motclass("L")),
            Stratum(fs({"E1", "E2"}), cls=MotClass.one())], declared_Y=y)
        trivial = ResolutionData(2, [], [Stratum(fs(), cls=y)], declared_Y=y)
        assert mot_eq(kontsevich_invariant(chain), kontsevich_invariant(trivial))


class TestVolumeFromPolyhedra:
    def test_single_vertex_equivalence_randomized(self):
        rng = random.Random(13)
        for _ in range(8):
            res, _total = random_resolution(rng)
            nus = {div.name: div.nu for div in res.divisors}
            pstrata = []
            for s in res.strata:
                if s.I:
                    vec = tuple(nus[name] for name in sorted(s.I))
                    delta = NewtonPolyhedron(len(vec), [vec])
                    pstrata.append(PolyhedralStratum(s.cls, delta))
                else:
                    pstrata.append(PolyhedralStratum(s.cls, None))
            assert mot_eq(volume_from_polyhedra(res.d, pstrata),
                          volume_from_resolution(res))

    def test_two_generator_stratum(self):
        delta = NewtonPolyhedron(2, [(2, 1), (1, 3)])
        cls = parse_motclass("L - 1")
        got = volume_from_polyhedra(2, [PolyhedralStratum(cls, delta)])
        zval = parse_motclass("(L^4 - L^3 + L^2 - 1)/(L^5 - 1)")
        assert mot_eq(got, (cls * zval).shift(-2))

    def test_localization_membership(self):
        # denominators stay products of (L^i - 1) by construction
        got = volume_from_polyhedra(
            1, [PolyhedralStratum(MotClass.one(),
                                  NewtonPolyhedron(2, [(2, 3)]))])
        assert all(i >= 1 for i in got.den)


class TestRealize:
    def test_blowup_chi(self):
        assert realize_volume(blowup_datum(), "chi") == 1

    def test_consistency_with_exact_volume(self):
        rng = random.Random(17)
        for _ in range(5):
            res, _ = random_resolution(rng)
            vol = volume_from_resolution(res)
            assert realize_volume(res, "hodge") == hodge_realize(vol)
            from motivic.errors import ChiUndefined
            try:
                direct = chi_realize(vol)
                via_strata = realize_volume(res, "chi")
            except ChiUndefined:
                continue  # chi undefined for a random stratum class
            assert via_strata == direct

    def test_hodge_volume_is_the_stratum_by_stratum_sum(self):
        # the volume reduced once equals the sum built and reduced one
        # stratum and one divisor at a time, realization-only strata included
        rng = random.Random(23)
        for _ in range(20):
            res, _ = random_resolution(rng)
            strata = [s if rng.random() < 0.5 else Stratum(s.I, chi=Fraction(1), hodge=(
                HodgeRational({(1, 0): rng.randint(-2, 2), (0, 1): 1}, (2,))))
                for s in res.strata]
            res = ResolutionData(res.d, res.divisors, strata)
            nu = {div.name: div.nu for div in res.divisors}
            want = HodgeRational({})
            for s in res.strata:
                value = s.hodge if s.cls is None else hodge_realize(s.cls)
                for name in s.I:
                    value = value * HodgeRational({(1, 1): 1, (0, 0): -1}, (nu[name],))
                want = want + value
            assert realize_volume(res, "hodge") == want * HodgeRational.w(-res.d)

    def test_crepant_euler_characteristic(self):
        e = -7
        res = ResolutionData(2, [], [Stratum(
            fs(), chi=Fraction(e),
            hodge=HodgeRational({(0, 0): e}))])
        assert realize_volume(res, "chi") == e

    def test_genus_g_realization_only(self):
        g = 2
        h = HodgeRational({(1, 1): 1, (1, 0): -g, (0, 1): -g, (0, 0): 1})
        res = ResolutionData(1, [], [Stratum(fs(), chi=Fraction(2 - 2 * g),
                                             hodge=h)])
        got = realize_volume(res, "hodge")
        assert got == h * HodgeRational.w(-1)
        assert realize_volume(res, "chi") == 2 - 2 * g
