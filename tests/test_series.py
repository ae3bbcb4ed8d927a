"""Rational motivic series: expansion, coefficient limits, count checks."""
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic.errors import NoLimit
from motivic.grring import (LaurentPoly, MotClass, chi_realize,
                            expand_completion, filtration_degree, mot_eq)
from motivic.models import parse_model
from motivic.series import (RationalMotSeries, compare_counts, expand,
                            limit_of_coefficients, specialize_at_q)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def node_series() -> RationalMotSeries:
    """2L/(1 - L T) - 1/(1 - T)."""
    two_L = MotClass(LaurentPoly({1: 2}))
    return (RationalMotSeries.geometric(1, 1, two_L)
            - RationalMotSeries.geometric(0, 1))


class TestExpand:
    def test_geometric(self):
        P = RationalMotSeries.geometric(2)
        coeffs = expand(P, 4)
        for n, c in enumerate(coeffs):
            assert mot_eq(c, MotClass.L(2 * n))

    def test_node_coefficients(self):
        coeffs = expand(node_series(), 3)
        for n, c in enumerate(coeffs):
            assert mot_eq(c, MotClass(LaurentPoly({n + 1: 2, 0: -1})))

    def test_two_term_denominator_factor(self):
        # 1/(1 - L T^2): only even T-powers appear
        P = RationalMotSeries.geometric(1, 2)
        coeffs = expand(P, 5)
        for n, c in enumerate(coeffs):
            if n % 2:
                assert c.is_zero
            else:
                assert mot_eq(c, MotClass.L(n // 2))

    def test_declared_example(self):
        # P = 2L/(1-LT) - 1/(1-T), N = 2 -> [2L-1, 2L^2-1, 2L^3-1]
        coeffs = expand(node_series(), 2)
        want = [MotClass(LaurentPoly({n + 1: 2, 0: -1})) for n in range(3)]
        assert all(mot_eq(a, b) for a, b in zip(coeffs, want))


class TestLimit:
    def test_node_limit_is_two(self):
        assert mot_eq(limit_of_coefficients(node_series(), 1),
                      MotClass.const(2))

    def test_no_dominant_factor_gives_zero(self):
        # 1/(1 - T) has a_n = 1, a_n L^{-(n+1)*2} -> 0
        P = RationalMotSeries.geometric(0, 1)
        assert limit_of_coefficients(P, 2).is_zero

    def test_nolimit_names_the_factor(self):
        # (1 - L^3 T) violates a - b*d < 0 for d = 1
        P = RationalMotSeries.geometric(3, 1)
        with pytest.raises(NoLimit, match=r"1 - L\^3 T\^1"):
            limit_of_coefficients(P, 1)

    def test_repeated_dominant_factor_rejected(self):
        P = RationalMotSeries({0: MotClass.one()}, [(1, 1), (1, 1)])
        with pytest.raises(NoLimit):
            limit_of_coefficients(P, 1)

    def test_cauchy_filtration_degrees(self):
        # a_n L^{-(n+1)} - 2 = -L^{-(n+1)} has filtration degree n+1
        limit = limit_of_coefficients(node_series(), 1)
        for n, a_n in enumerate(expand(node_series(), 12)):
            diff = a_n.shift(-(n + 1)) - limit
            assert filtration_degree(diff) == n + 1


class TestSpecialize:
    def test_node_counts(self):
        assert specialize_at_q(node_series(), 2, 3) == [3, 7, 15, 31]
        assert specialize_at_q(node_series(), 3, 2) == [5, 17, 53]

    def test_q_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            specialize_at_q(node_series(), 1, 2)

    def test_n_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            specialize_at_q(node_series(), 2, -1)


class TestCompareCounts:
    def test_pass(self):
        report = compare_counts(node_series(), 2, [3, 7, 15, 31])
        assert report.passed
        assert report.lines()[-1] == "PASS"

    def test_fail_locates_mismatch(self):
        report = compare_counts(node_series(), 2, [3, 7, 99, 31])
        assert not report.passed
        assert report.mismatches == [2]
        assert report.lines()[-1] == "FAIL"


# a denominator factor (1 - L^a T^b)
FACTOR = st.tuples(st.integers(0, 2), st.integers(1, 2))


class TestAlgebra:
    @settings(max_examples=40)
    @given(st.integers(0, 2), st.lists(FACTOR, max_size=2),
           st.lists(FACTOR, max_size=2), st.lists(FACTOR, max_size=2))
    def test_sum_expansion_is_additive(self, a1, shared, own_p, own_q):
        # the summands share some factors, and repeat or differ in others
        P = RationalMotSeries(
            {0: MotClass.L(a1), 2: MotClass(LaurentPoly({1: -1}), (2,))}, shared + own_p)
        Q = RationalMotSeries({1: MotClass.one()}, shared + own_q)
        for n, (cs, cp, cq) in enumerate(zip(
                expand(P + Q, 8), expand(P, 8), expand(Q, 8))):
            assert mot_eq(cs, cp + cq)

    def test_completion_limit_consistency(self):
        # chi of the node limit equals 2
        assert chi_realize(limit_of_coefficients(node_series(), 1)) == 2

    def test_limit_expansion_matches_coefficients(self):
        # L^{-1} shift of coefficients approaches the limit u-series
        limit = limit_of_coefficients(node_series(), 1)
        a12 = expand(node_series(), 12)[12].shift(-13)
        e_lim = expand_completion(limit, 12)
        e_coeff = expand_completion(a12, 12)
        for n in range(-2, 13):
            assert e_lim.coeff(n) == e_coeff.coeff(n)


def reference_expand(P: RationalMotSeries, N: int):
    """The expansion that adds whole classes at every step."""
    coeffs = [P.num.get(n, MotClass.zero()) for n in range(N + 1)]
    for a, b in P.den:
        for n in range(b, N + 1):
            coeffs[n] = coeffs[n] + coeffs[n - b].shift(a)
    return coeffs


# a numerator class over a product of (L^i - 1) factors, i in 1..3
CLASS = st.builds(lambda terms, den: MotClass(LaurentPoly(terms), den),
                  st.dictionaries(st.integers(-2, 3), st.integers(-3, 3), max_size=3),
                  st.lists(st.integers(1, 3), max_size=2))
WIDE_FACTOR = st.tuples(st.integers(-2, 2), st.integers(1, 3))


@st.composite
def mixed_den_series(draw):
    """A series whose numerator classes carry different denominators; up to
    two of its den factors are also multiplied into the numerator, so the
    terms they would add cancel to 0 along the recurrence."""
    num = draw(st.dictionaries(st.integers(0, 3), CLASS, min_size=1, max_size=3))
    den = draw(st.lists(WIDE_FACTOR, min_size=1, max_size=3))
    for a, b in draw(st.lists(st.sampled_from(den), max_size=2)):
        times = dict(num)
        for e, c in num.items():
            times[e + b] = times.get(e + b, MotClass.zero()) - c.shift(a)
        num = times
    return RationalMotSeries(num, den)


class TestCommonDenominatorExpansion:
    @settings(max_examples=80, deadline=None)
    @given(mixed_den_series(), st.integers(0, 12))
    def test_equals_the_class_by_class_recurrence(self, P, N):
        assert expand(P, N) == reference_expand(P, N)

    @settings(max_examples=80, deadline=None)
    @given(mixed_den_series(), st.integers(0, 12), st.sampled_from([2, 3, 5]))
    def test_specialize_first_equals_specialize_last(self, P, N, q):
        assert specialize_at_q(P, q, N) == [c.eval_at(q) for c in expand(P, N)]

    def test_node_closed_form_survives_cancellation(self):
        # a_n = 2L^(n+1) - 1: the constant terms cancel at every step
        P = parse_model((FIXTURES / "node.series").read_text()).datum
        coeffs = expand(P, 2000)
        assert len(coeffs) == 2001
        for n, c in enumerate(coeffs):
            assert c == MotClass(LaurentPoly({n + 1: 2, 0: -1}))
