"""Acceptance suite: the ten primary criteria.

Each test prints a single `[criterion N] PASS` line (with its runtime) once
its assertions hold; a failing test shows up as the usual pytest failure.
All checks are exact — no floating point and no tolerances anywhere.
"""
import itertools
import math
import random
import time
from fractions import Fraction

from motivic.errors import ChiUndefined
from motivic.grring import (HodgeRational, LaurentPoly, MotClass, chi_realize,
                            expand_completion, filtration_degree,
                            hodge_realize, mot_eq)
from motivic.jets import JetVariety, stabilized_count
from motivic.motvol import (Divisor, ResolutionData, Stratum,
                            kontsevich_invariant, realize_volume,
                            volume_from_resolution, volume_with_ideal)
from motivic.parsing import parse_int_poly, parse_motclass
from motivic.polyhedra import NewtonPolyhedron, z_of_delta, z_truncated
from motivic.presburger import (Affine, And, Ge, Mod, Not, Or, PresburgerSet,
                                genfun, genfun_truncated)
from motivic.series import (RationalMotSeries, compare_counts, expand,
                            limit_of_coefficients)

fs = frozenset


def _report(num: int, detail: str, t0: float) -> None:
    print(f"[criterion {num}] PASS ({time.time() - t0:.2f}s): {detail}")


def test_criterion_01_euler_extension():
    t0 = time.time()
    for i in range(1, 11):
        value = chi_realize(MotClass(LaurentPoly.binom(1), (i,)))
        assert value == Fraction(1, i)
    _report(1, "chi((L-1)/(L^i-1)) = 1/i exactly for i = 1..10", t0)


def test_criterion_02_blowup_identity():
    t0 = time.time()
    res = ResolutionData(2, [Divisor("E", 2)], [
        Stratum(fs(), cls=parse_motclass("L^2 - 1")),
        Stratum(fs({"E"}), cls=parse_motclass("L + 1"))])
    vol = volume_from_resolution(res)
    assert mot_eq(vol, MotClass.one())
    assert realize_volume(res, "chi") == 1
    _report(2, "blow-up of the plane: volume = 1 and chi = 1", t0)


def test_criterion_03_crepant_identity():
    t0 = time.time()
    rng = random.Random(20240601)
    for _ in range(10):
        n_div = rng.randint(0, 3)
        divisors = [Divisor(f"E{i}", 1) for i in range(n_div)]
        strata, total = [], MotClass.zero()
        for r in range(n_div + 1):
            for combo in itertools.combinations(range(n_div), r):
                cls = MotClass(LaurentPoly(
                    {e: rng.randint(-3, 3) for e in range(3)}))
                strata.append(Stratum(fs(f"E{i}" for i in combo), cls=cls))
                total = total + cls
        d = rng.randint(1, 4)
        res = ResolutionData(d, divisors, strata, declared_Y=total)
        assert mot_eq(kontsevich_invariant(res), total.shift(-d))
    _report(3, "10 randomized all-nu=1 data equal L^{-d} * (sum of strata)", t0)


def test_criterion_04_ideal_twist_vs_level_sum():
    t0 = time.time()
    for N in (1, 2):
        res = ResolutionData(1, [Divisor("E", 1, N=N)], [
            Stratum(fs(), cls=parse_motclass("L - 1")),
            Stratum(fs({"E"}), cls=MotClass.one())])
        twisted = volume_with_ideal(res)
        # independent oracle computed in the series module: the level sum
        # sum_e (L-1) L^{-(e+1)} L^{-N e} is the d = N+1 coefficient limit
        # of (L-1) L^N T / (1 - L^{N+1} T) ... equivalently expand and
        # compare partial sums against the closed form via completions.
        level_series = RationalMotSeries.geometric(
            -(N + 1), 1, MotClass(LaurentPoly.binom(1)).shift(-1))
        partial = MotClass.zero()
        for c in expand(level_series, 60):
            partial = partial + c
        # the tail after 60 levels has filtration degree > 40, so the first
        # 40 completion coefficients of the partial sum are exact
        assert expand_completion(twisted, 40).matches(
            expand_completion(partial, 40))
        if N == 1:
            want = MotClass(LaurentPoly.L(1), (2,)) * MotClass(LaurentPoly.binom(1))
            assert mot_eq(twisted, want)  # L/(L+1)
    _report(4, "ideal twist equals L/(L+1) and the geometric level sums "
               "for N = 1, 2", t0)


def test_criterion_05_zeta_oracle_agreement():
    t0 = time.time()
    rng = random.Random(20240602)
    checked = 0
    for k in (1, 2, 3):
        for _ in range(5):
            gens = [tuple(rng.randint(1, 5) for _ in range(k))
                    for _ in range(rng.randint(1, 3))]
            delta = NewtonPolyhedron(k, gens)
            closed = expand_completion(z_of_delta(delta), 40)
            assert closed.matches(z_truncated(delta, 40))
            checked += 1
    _report(5, f"Z(Delta) closed form matches truncated summation to order "
               f"40 on {checked} random polyhedra (5 per k in 1..3)", t0)


def test_criterion_06_presburger_generating_functions():
    t0 = time.time()
    from test_presburger import CORPUS

    assert len(CORPUS) >= 8
    for P in CORPUS:
        f = genfun(P)
        assert f.expand(30) == {pt: 1 for pt in genfun_truncated(P, 30)}
    # inclusion-exclusion as rational functions
    A = Ge(Affine((1, -1), 0))
    B = Mod(Affine((1, 1), 0), 2, 0)
    assert genfun(PresburgerSet(2, Or((A, B)))) == \
        genfun(PresburgerSet(2, A)) + genfun(PresburgerSet(2, B)) \
        - genfun(PresburgerSet(2, And((A, B))))
    _report(6, f"{len(CORPUS)} mixed sets agree with enumeration to degree "
               f"30; union = A + B - (A and B) as rational functions", t0)


def _node_series() -> RationalMotSeries:
    return (RationalMotSeries.geometric(1, 1, MotClass(LaurentPoly({1: 2})))
            - RationalMotSeries.geometric(0, 1))


def test_criterion_07_node_end_to_end():
    t0 = time.time()
    node = JetVariety(2, [parse_int_poly("x*y", ("x", "y"))], 1, ("x", "y"))
    P = _node_series()
    for q in (2, 3):
        counts = []
        for n in range(6):
            res = stabilized_count(node, n, q, j_max=n + 2)
            assert res.stable
            assert res.N_n == 2 * q ** (n + 1) - 1
            counts.append(res.N_n)
        assert compare_counts(P, q, counts).passed
    limit = limit_of_coefficients(P, 1)
    assert mot_eq(limit, MotClass.const(2))
    assert chi_realize(limit) == 2
    for n, a_n in enumerate(expand(P, 12)):
        assert filtration_degree(a_n.shift(-(n + 1)) - limit) == n + 1
    _report(7, "node: stabilized counts 2q^{n+1}-1 for q=2,3, n<=5; "
               "series check passes; limit = 2, chi = 2; Cauchy filtration "
               "degrees n+1 for n <= 12", t0)


def test_criterion_08_hensel_smoothness_suite():
    t0 = time.time()
    plane = JetVariety(2, [], 2, ("x", "y"))
    hyper = JetVariety(2, [parse_int_poly("y", ("x", "y"))], 1, ("x", "y"))
    from motivic.jets import image_count

    for X in (plane, hyper):
        for q in (2, 3, 5):
            for n in range(5):
                base = image_count(X, n, 0, q)
                assert base == q ** ((n + 1) * X.d)
                for j in (1, 2):
                    assert image_count(X, n, j, q) == base
                assert stabilized_count(X, n, q, 4).gamma == n
    _report(8, "affine plane and hyperplane: image counts j-independent, "
               "N_n = q^{(n+1)d}, gamma(n) = n for n <= 4, "
               "q in {2, 3, 5}", t0)


def test_criterion_09_greenberg_on_the_node():
    t0 = time.time()
    node = JetVariety(2, [parse_int_poly("x*y", ("x", "y"))], 1, ("x", "y"))
    estimates = []
    for n in range(4):
        res = stabilized_count(node, n, 2, j_max=2 * n + 2)
        assert res.stable
        estimates.append(res.gamma)
    assert estimates[1] == 2
    assert estimates[2] == 4
    assert estimates == sorted(estimates)          # nondecreasing
    assert all(g <= 2 * n + 1 for n, g in enumerate(estimates))  # linear envelope
    # the level-n jets (c t^n, d t^n), cd != 0, reach level 2n - 1
    assert estimates == [2 * n for n in range(4)]
    _report(9, f"node over F_2: gamma = {estimates} for n = 0..3 "
               "(gamma(1) = 2, gamma(2) = 4), nondecreasing, "
               "within the linear envelope 2n + 1", t0)


def test_criterion_10_ring_property_suite():
    t0 = time.time()
    rng = random.Random(20240603)

    def random_class() -> MotClass:
        num = LaurentPoly({rng.randint(-3, 5): rng.randint(-5, 5)
                           for _ in range(rng.randint(0, 4))})
        den = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        return MotClass(num, den)

    for _ in range(1000):
        a, b, c = random_class(), random_class(), random_class()
        # ring axioms
        assert mot_eq(a + b, b + a)
        assert mot_eq(a * b, b * a)
        assert mot_eq((a + b) + c, a + (b + c))
        assert mot_eq((a * b) * c, a * (b * c))
        assert mot_eq(a * (b + c), a * b + a * c)
        assert mot_eq(a - a, MotClass.zero())
        # canonicalization soundness: canonical form stays cross-equal to a
        # freshly built copy and never divides away a real factor
        rebuilt = MotClass(a.num, a.den)
        assert mot_eq(a, rebuilt)
        assert a.num * rebuilt.den_poly() == rebuilt.num * a.den_poly()
        # filtration: multiplicative, subadditive
        fa, fb = filtration_degree(a), filtration_degree(b)
        assert filtration_degree(a * b) == fa + fb
        assert filtration_degree(a + b) >= min(fa, fb)
        # realizations are morphisms
        assert hodge_realize(a * b) == hodge_realize(a) * hodge_realize(b)
        assert hodge_realize(a + b) == hodge_realize(a) + hodge_realize(b)
        try:
            ca, cb, cab = chi_realize(a), chi_realize(b), chi_realize(a * b)
        except ChiUndefined:
            continue
        assert cab == ca * cb
    _report(10, "1000 random triples: ring axioms, canonicalization, "
                "filtration degrees, chi/H morphism identities", t0)
