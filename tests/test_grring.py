"""Localized ring arithmetic, canonicalization, filtration, realizations."""
import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import grring
from motivic.errors import ChiUndefined
from motivic.grring import (CompletionExpansion, HodgeRational, LaurentPoly,
                            MotClass, chi_realize, expand_completion,
                            filtration_degree, hodge_realize, hodge_sum,
                            mot_eq, mot_sum)
from motivic.parsing import format_motclass
from motivic.series import RationalMotSeries


def laurent(terms):
    return LaurentPoly(terms)


laurent_st = st.dictionaries(
    st.integers(min_value=-3, max_value=5),
    st.integers(min_value=-5, max_value=5), max_size=4).map(LaurentPoly)

den_st = st.lists(st.integers(min_value=1, max_value=3), max_size=2)

motclass_st = st.builds(MotClass, laurent_st, den_st)


class TestLaurentPoly:
    def test_divexact_roundtrip(self):
        a = laurent({0: 1, 1: 2, -1: 3})
        b = laurent({2: 1, 0: -1})
        prod = a * b
        assert prod.divexact(b) == a

    def test_divexact_inexact_returns_none(self):
        assert laurent({0: 1, 1: 1}).divexact(LaurentPoly.binom(1)) is None
        # exact over the rationals, but the quotient 1/2 is not integral
        assert laurent({0: 1, 1: 1}).divexact(laurent({0: 2, 1: 2})) is None

    @given(laurent_st, laurent_st.filter(bool), laurent_st)
    def test_divexact_is_exact_division(self, a, b, c):
        assert (a * b).divexact(b) == a
        q = c.divexact(b)
        assert q is None or q * b == c

    def test_binom(self):
        assert LaurentPoly.binom(3) == laurent({3: 1, 0: -1})


class TestCanonicalization:
    def test_full_cancellation(self):
        # (L^2 - 1)/(L^2 - 1) = 1
        a = MotClass(LaurentPoly.binom(2), (2,))
        assert a.den == ()
        assert a.num == LaurentPoly.const(1)

    def test_partial_cancellation(self):
        # (L-1)(L^2-1)/((L^2-1)(L^3-1)) -> (L-1)/(L^3-1)
        num = LaurentPoly.binom(1) * LaurentPoly.binom(2)
        a = MotClass(num, (2, 3))
        assert a == MotClass(LaurentPoly.binom(1), (3,))

    def test_zero_clears_denominator(self):
        assert MotClass(LaurentPoly(), (2, 3)).den == ()

    @given(laurent_st, den_st)
    def test_cross_multiplied_equality_is_preserved(self, num, den):
        a = MotClass(num, den)
        assert a.num * MotClass(num, den).den_poly() == \
            MotClass(num, den).num * a.den_poly()

    @settings(max_examples=150)
    @given(motclass_st, motclass_st)
    def test_equality_agrees_with_cross_multiplication(self, a, b):
        assert (a == b) == mot_eq(a, b)
        assert (a + b - b == a) and mot_eq(a + b - b, a)

    @settings(max_examples=150)
    @given(motclass_st, st.integers(min_value=1, max_value=12))
    def test_extra_factor_gives_the_same_form(self, a, i):
        b = MotClass(a.num * LaurentPoly.binom(i), a.den + (i,))
        assert a == b
        assert hash(a) == hash(b)
        assert format_motclass(a) == format_motclass(b)

    def test_cyclotomic_cancellation(self):
        # (L+1)/(L^2-1) = 1/(L-1): the factor L+1 is Phi_2, not a whole L^i-1
        a = MotClass(laurent({1: 1, 0: 1}), (2,))
        b = MotClass(LaurentPoly.const(1), (1,))
        assert len({a, b}) == 1
        assert format_motclass(a) == "1/(L-1)"


class TestCyclotomicFactors:
    def test_divisors_and_totient(self):
        for k in range(1, 400):
            assert grring._divisors(k) == tuple(d for d in range(1, k + 1) if k % d == 0)
            assert grring._totient(k) == sum(math.gcd(d, k) == 1 for d in range(1, k + 1))
            assert grring._cyclotomic(k).degree == grring._totient(k)

    @settings(max_examples=200)
    @given(laurent_st, st.integers(min_value=1, max_value=40))
    def test_phi_test_equals_division(self, p, k):
        # the span test before building Phi_k never changes the answer
        for q in (p, p * grring._cyclotomic(k)):
            assert grring._phi_divides(k, q) == (q.divexact(grring._cyclotomic(k)) is not None)


class TestRingAxioms:
    @settings(max_examples=150)
    @given(motclass_st, motclass_st, motclass_st)
    def test_axioms(self, a, b, c):
        assert mot_eq(a + b, b + a)
        assert mot_eq(a * b, b * a)
        assert mot_eq((a + b) + c, a + (b + c))
        assert mot_eq((a * b) * c, a * (b * c))
        assert mot_eq(a * (b + c), a * b + a * c)
        assert mot_eq(a + MotClass.zero(), a)
        assert mot_eq(a * MotClass.one(), a)
        assert mot_eq(a - a, MotClass.zero())


def _cross(a: MotClass, b: MotClass) -> MotClass:
    """a + b by the public constructor on the cross-multiplied fraction."""
    return MotClass(a.num * b.den_poly() + b.num * a.den_poly(), a.den + b.den)


# factor multisets from {1, 2, 3, 4, 6}: Phi_1 divides every factor, Phi_2
# those of 2, 4, 6 and Phi_3 those of 3, 6, so the denominators share Phi's
shared_den_st = st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=3)

# pairs of canonical classes whose denominators are empty, the same (as a
# rule: a numerator seldom has a cyclotomic factor) or drawn independently
pair_st = st.one_of(
    st.tuples(st.builds(MotClass, laurent_st), st.builds(MotClass, laurent_st)),
    shared_den_st.flatmap(lambda d: st.tuples(st.builds(MotClass, laurent_st, st.just(d)),
                                              st.builds(MotClass, laurent_st, st.just(d)))),
    st.tuples(st.builds(MotClass, laurent_st, shared_den_st),
              st.builds(MotClass, laurent_st, shared_den_st)))


def _same(x: MotClass, want: MotClass) -> bool:
    return (x.num, x.den) == (want.num, want.den) and mot_eq(x, want)


class TestFastPaths:
    @settings(max_examples=300)
    @given(pair_st, st.integers(min_value=-6, max_value=6))
    def test_results_are_the_public_canonical_form(self, pair, k):
        a, b = pair
        assert _same(a + b, _cross(a, b))
        assert _same(a - b, _cross(a, MotClass(-b.num, b.den)))
        assert _same(a * b, MotClass(a.num * b.num, a.den + b.den))
        assert _same(-a, MotClass(-a.num, a.den))
        assert _same(a.shift(k), MotClass(a.num.shift(k), a.den))

    def test_equal_denominators_can_still_cancel(self):
        # 1/(L^2-1) + L/(L^2-1) = 1/(L-1)
        a = MotClass(LaurentPoly.const(1), (2,))
        s = a + a.shift(1)
        assert (s.num, s.den) == (LaurentPoly.const(1), (1,))

    @settings(max_examples=200)
    @given(st.lists(st.builds(MotClass, laurent_st, shared_den_st), max_size=5),
           st.randoms(use_true_random=False))
    def test_one_shot_sum_is_a_left_fold(self, classes, rng):
        want = functools.reduce(operator.add, classes, MotClass.zero())
        assert _same(mot_sum((a.num, a.den) for a in classes), want)
        # with the negatives added in, in any order, the sum cancels to zero
        terms = classes + [-a for a in classes]
        rng.shuffle(terms)
        zero = mot_sum((a.num, a.den) for a in terms)
        assert zero.is_zero and zero.den == ()

    @settings(max_examples=150)
    @given(st.lists(st.tuples(st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3),
        max_size=3), laurent_st, shared_den_st), max_size=4))
    def test_one_shot_hodge_sum_is_a_left_fold(self, triples):
        # num(u, v) * w(uv) / prod ((uv)^i - 1), added one HodgeRational at a time
        want = functools.reduce(operator.add, (
            HodgeRational(num) * hodge_realize(MotClass(w)) * HodgeRational({(0, 0): 1}, den)
            for num, w, den in triples), HodgeRational({}))
        assert hodge_sum(triples) == want

    def test_one_shot_sum_of_unreduced_fractions(self):
        # (L+1)/(L^2-1) + (L^2+L+1)/(L^3-1) = 2/(L-1)
        s = mot_sum([(laurent({1: 1, 0: 1}), (2,)),
                     (laurent({2: 1, 1: 1, 0: 1}), (3,))])
        assert (s.num, s.den) == (LaurentPoly.const(2), (1,))

    @settings(max_examples=100)
    @given(motclass_st, st.integers(min_value=0, max_value=6))
    def test_power_is_repeated_product(self, a, n):
        want = functools.reduce(operator.mul, [a] * n, MotClass.one())
        assert _same(a ** n, want)

    def test_power_of_a_three_factor_class(self):
        a = MotClass(laurent({2: 1, 0: -1}), (1, 3, 4))
        want = functools.reduce(operator.mul, [a] * 40, MotClass.one())
        assert _same(a ** 40, want)


class TestExactConstructors:
    def test_non_integers_raise(self):
        for make in (lambda: LaurentPoly({0: 2.5}),
                     lambda: LaurentPoly({0: Fraction(5, 2)}),
                     lambda: LaurentPoly({0.5: 1}),
                     lambda: MotClass(LaurentPoly.const(1), (2.9,)),
                     lambda: HodgeRational({(0.5, 0): Fraction(3, 2)}),
                     lambda: HodgeRational({(0, 0): Fraction(3, 2)}),
                     lambda: RationalMotSeries({0.5: MotClass.one()}),
                     lambda: RationalMotSeries({0: MotClass.one()}, [(1.5, 1)])):
            with pytest.raises(TypeError):
                make()


class TestFiltration:
    def test_zero_is_plus_infinity(self):
        assert filtration_degree(MotClass.zero()) == math.inf

    def test_examples(self):
        assert filtration_degree(MotClass.L(2)) == -2
        assert filtration_degree(MotClass.one()) == 0
        # (L-1)/(L^3-1): vd = 1 - 3 = -2, degree 2
        assert filtration_degree(MotClass(LaurentPoly.binom(1), (3,))) == 2

    @settings(max_examples=100)
    @given(motclass_st, motclass_st)
    def test_multiplicativity_and_subadditivity(self, a, b):
        fa, fb = filtration_degree(a), filtration_degree(b)
        assert filtration_degree(a * b) == fa + fb
        assert filtration_degree(a + b) >= min(fa, fb)


class TestCompletionExpansion:
    def test_inverse_of_binom(self):
        # 1/(L^2-1) = u^2 + u^4 + ... in u = L^{-1}
        a = MotClass(LaurentPoly.const(1), (2,))
        e = expand_completion(a, 9)
        assert e.coeffs == {2: 1, 4: 1, 6: 1, 8: 1}

    def test_polynomial_class(self):
        e = expand_completion(MotClass(laurent({1: 2, 0: -1})), 5)
        assert e.coeffs == {-1: 2, 0: -1}

    def test_matches_through_common_order(self):
        a = MotClass(LaurentPoly.binom(1), (3,))
        assert expand_completion(a, 20).matches(expand_completion(a, 35))

    @settings(max_examples=100)
    @given(motclass_st)
    def test_times_the_denominator_is_the_numerator(self, a):
        # the orders above m that the expansion drops move down by at most
        # sum(den) when multiplied by prod (L^i - 1) = prod (u^-i - 1)
        m = sum(a.den) + 15
        back = LaurentPoly({-n: c for n, c in expand_completion(a, m).coeffs.items()})
        back = back * a.den_poly()
        assert ({e: c for e, c in back.terms.items() if e >= -15}
                == {e: c for e, c in a.num.terms.items() if e >= -15})

    @settings(max_examples=60)
    @given(motclass_st, motclass_st)
    def test_additive(self, a, b):
        ea, eb = expand_completion(a, 15), expand_completion(b, 15)
        es = expand_completion(a + b, 15)
        for n in range(-20, 16):
            assert es.coeff(n) == ea.coeff(n) + eb.coeff(n)


def _chi_by_substitution(a: MotClass) -> Fraction:
    """Independent route: set L = 1 + s, cancel s^m against the numerator,
    evaluate at s = 0 where ((1+s)^i - 1)/s -> i."""
    m = len(a.den)
    shifted = {}
    low = min(a.num.terms, default=0)
    for e, c in a.num.terms.items():
        # (1+s)^{e - low}, the global L^{low} factor has chi = 1
        for k in range(e - low + 1):
            shifted[k] = shifted.get(k, 0) + c * math.comb(e - low, k)
    # divisible by s^m iff the coefficients of s^0 .. s^{m-1} vanish;
    # the value at s = 0 after division is then the coefficient of s^m
    if any(shifted.get(k, 0) for k in range(m)):
        raise ChiUndefined("numerator at L = 1 + s not divisible by s^m")
    value = Fraction(shifted.get(m, 0))
    for i in a.den:
        value /= i
    return value


class TestChi:
    def test_euler_extension_values(self):
        for i in range(1, 11):
            a = MotClass(LaurentPoly.binom(1), (i,))
            assert chi_realize(a) == Fraction(1, i)

    def test_undefined(self):
        a = MotClass(laurent({2: 1, 1: 1}), (3,))
        with pytest.raises(ChiUndefined):
            chi_realize(a)

    @settings(max_examples=150)
    @given(motclass_st)
    def test_two_route_agreement(self, a):
        try:
            direct = chi_realize(a)
        except ChiUndefined:
            with pytest.raises(ChiUndefined):
                _chi_by_substitution(a)
            return
        assert direct == _chi_by_substitution(a)

    @settings(max_examples=80)
    @given(motclass_st, motclass_st)
    def test_morphism(self, a, b):
        try:
            ca, cb = chi_realize(a), chi_realize(b)
            cab = chi_realize(a * b)
            csum = chi_realize(a + b)
        except ChiUndefined:
            return
        assert cab == ca * cb
        assert csum == ca + cb


class TestHodge:
    @settings(max_examples=80)
    @given(motclass_st, motclass_st)
    def test_morphism(self, a, b):
        assert hodge_realize(a * b) == hodge_realize(a) * hodge_realize(b)
        assert hodge_realize(a + b) == hodge_realize(a) + hodge_realize(b)

    @settings(max_examples=80)
    @given(motclass_st)
    def test_chi_factors_through_hodge(self, a):
        try:
            c = chi_realize(a)
        except ChiUndefined:
            return
        assert hodge_realize(a).at_uv_one() == c

    def test_cancellation(self):
        h = HodgeRational({(2, 2): 1, (0, 0): -1}, (2,))
        assert h == HodgeRational.const(1)
        assert h.den == ()

    def test_cyclotomic_cancellation_two_variables(self):
        # u(uv + 1)/((uv)^2 - 1) = u/(uv - 1)
        a = HodgeRational({(2, 1): 1, (1, 0): 1}, (2,))
        b = HodgeRational({(1, 0): 1}, (1,))
        assert a == b
        assert hash(a) == hash(b)

    @settings(max_examples=100)
    @given(st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                           st.integers(-3, 3), max_size=4),
           den_st, st.integers(min_value=1, max_value=6))
    def test_extra_factor_gives_the_same_form(self, num, den, i):
        times_binom = {(p + i, q + i): c for (p, q), c in num.items()}
        for k, c in num.items():
            times_binom[k] = times_binom.get(k, 0) - c
        a = HodgeRational(num, den)
        b = HodgeRational(times_binom, tuple(den) + (i,))
        assert a == b
        assert hash(a) == hash(b)

    def test_two_variable_numerator(self):
        g = 2
        h = HodgeRational({(1, 1): 1, (1, 0): -g, (0, 1): -g, (0, 0): 1})
        assert h.at_uv_one() == 2 - 2 * g


class TestEvalAtQ:
    @settings(max_examples=80)
    @given(motclass_st, motclass_st, st.sampled_from([2, 3, 5, 7]))
    def test_eval_is_a_morphism(self, a, b, q):
        assert (a * b).eval_at(q) == a.eval_at(q) * b.eval_at(q)
        assert (a + b).eval_at(q) == a.eval_at(q) + b.eval_at(q)
