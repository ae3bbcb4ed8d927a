"""Presburger sets: membership, generating functions, image maps."""
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motivic.errors import (DimensionUnsupported, InfiniteFibers, ParseError)
from motivic.presburger import (Affine, And, Ge, Mod, Not, Or, PresburgerSet,
                                RatFunc, format_condition, format_ratfunc,
                                genfun, genfun_image, genfun_truncated,
                                _substitute, member, parse_condition)
from motivic.parsing import atoms as atoms_of
from motivic.parsing import fold

# a fixed corpus mixing inequalities and congruences, arities 1 and 2
CORPUS = [
    PresburgerSet(1, Ge(Affine((1,), -3))),                       # i >= 3
    PresburgerSet(1, Mod(Affine((1,), 0), 3, 1)),                 # i = 1 mod 3
    PresburgerSet(1, And((Ge(Affine((1,), -2)),
                          Not(Mod(Affine((1,), 0), 2, 0))))),     # odd i >= 2
    PresburgerSet(2, Ge(Affine((2, -1), 0))),                     # j <= 2i
    PresburgerSet(2, And((Ge(Affine((-1, 1), 0)),
                          Ge(Affine((2, -1), 0))))),              # i <= j <= 2i
    PresburgerSet(2, And((Ge(Affine((2, -1), 0)),
                          Mod(Affine((1, 0), 0), 3, 1)))),        # j <= 2i, i=1 mod 3
    PresburgerSet(2, Or((Ge(Affine((1, -1), 0)),
                         Mod(Affine((1, 1), 0), 2, 0)))),         # j <= i or i+j even
    PresburgerSet(2, And((Ge(Affine((3, -2), 4)),
                          Ge(Affine((-3, 2), 5))))),              # -4 <= 3i-2j <= 5
    PresburgerSet(2, Not(And((Ge(Affine((1, -1), 0)),
                              Mod(Affine((0, 1), 0), 2, 1))))),   # not(j<=i and j odd)
]


# a union of three clauses under congruences mod 5 and mod 7, which unfold
# into 35^2 residue classes
MOD_5_7 = ("(or (and (>= (- i j) 0) (mod i 5 1)) "
           "(and (>= (- j (* 3 i)) 0) (mod j 7 2)) (<= (+ i j) 9))")

# the identity and the image maps of the benchmark's genfun jobs, as
# (i, j)-coefficient pairs; the first is (i, j) -> i + j
MAPS = [None, [(1, 1)], [(1, 2), (0, 1)], [(2, 1), (1, 0)], [(1, 1), (0, 1)]]


def truth_dict(P, D):
    return {pt: 1 for pt in genfun_truncated(P, D)}


def fibre_counts(P, maps, D):
    """Image series of P to degree D by enumeration; every map here has
    total degree >= i + j, so the points of degree <= D are enough."""
    if maps is None:
        return truth_dict(P, D)
    out = {}
    for pt in genfun_truncated(P, D):
        image = tuple(a * pt[0] + b * pt[1] for a, b in maps)
        if sum(image) <= D:
            out[image] = out.get(image, 0) + 1
    return out


def affines(m):
    return st.builds(Affine, st.tuples(*[st.integers(-3, 3)] * m),
                     st.integers(-6, 6))


def atoms(m):
    mods = st.integers(1, 4).flatmap(lambda d: st.builds(
        Mod, affines(m), st.just(d), st.integers(0, d - 1)))
    return st.builds(Ge, affines(m)) | mods


def trees(m, depth=3):
    if depth == 0:
        return atoms(m)
    sub = trees(m, depth - 1)
    kids = st.lists(sub, min_size=1, max_size=3).map(tuple)
    return atoms(m) | st.builds(Not, sub) | st.builds(And, kids) | st.builds(Or, kids)


class TestMember:
    def test_pointwise(self):
        P = CORPUS[5]
        assert member(P, (1, 2))
        assert not member(P, (2, 2))   # i = 2 mod 3 fails
        assert not member(P, (1, 3))   # j > 2i fails

    def test_arity_check(self):
        with pytest.raises(ValueError):
            member(CORPUS[0], (1, 2))


class TestGenfunCorpus:
    @pytest.mark.parametrize("idx", range(len(CORPUS)))
    def test_agrees_with_enumeration_to_degree_30(self, idx):
        P = CORPUS[idx]
        f = genfun(P)
        assert f.expand(30) == truth_dict(P, 30)

    def test_mod_5_7_union(self):
        P = PresburgerSet(2, parse_condition(MOD_5_7, ("i", "j")))
        assert genfun(P).expand(40) == truth_dict(P, 40)

    def test_congruences_unfold_per_variable(self):
        # i unfolds mod 5 and j mod 7, not both mod 35: one class is true
        P = PresburgerSet(2, parse_condition("(and (mod i 5 1) (mod j 7 2))",
                                             ("i", "j")))
        f = genfun(P)
        assert f.num == {(1, 2): 1} and f.den == ((0, 7), (5, 0))
        assert format_ratfunc(f) == "X*Y^2/(1 - Y^7)/(1 - X^5)"


class TestSweepProperty:
    @settings(max_examples=60, deadline=None)
    @given(trees(1))
    def test_one_variable(self, cond):
        P = PresburgerSet(1, cond)
        assert genfun(P).expand(14) == truth_dict(P, 14)

    @settings(max_examples=60, deadline=None)
    @given(trees(2), st.sampled_from(MAPS))
    def test_two_variables(self, cond, maps):
        P = PresburgerSet(2, cond)
        if maps is None:
            f = genfun(P)
        else:
            f = genfun_image(P, [Affine(c, 0) for c in maps])
        assert f.expand(14) == fibre_counts(P, maps, 14)


class TestResidual:
    """Folding the substitution x_v -> s_v*x_v + o_v into a condition leaves
    a residual over the new variables that holds where P holds at the image
    point, when each s_v makes every congruence constant on its class."""

    @settings(max_examples=150, deadline=None)
    @given(trees(2), st.tuples(st.integers(1, 2), st.integers(1, 2)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_residual_is_membership(self, cond, multiples, offsets):
        mods = [a for a in atoms_of(cond) if isinstance(a, Mod)]
        scales = [k * lcm(*(a.modulus // gcd(a.modulus, a.affine.coeffs[v])
                            for a in mods))
                  for v, k in enumerate(multiples)]
        residual = fold(cond, lambda atom: _substitute(atom, scales, offsets))
        P = PresburgerSet(2, cond)
        for i, j in itertools.product(range(-2, 4), repeat=2):
            image = (scales[0] * i + offsets[0], scales[1] * j + offsets[1])
            assert member(PresburgerSet(2, residual), (i, j)) == member(P, image)


class TestInclusionExclusion:
    def test_union_identity_as_rational_functions(self):
        # [A or B] = [A] + [B] - [A and B], as rational functions
        A = Ge(Affine((1, -1), 0))
        B = Mod(Affine((1, 1), 0), 2, 0)
        fa = genfun(PresburgerSet(2, A))
        fb = genfun(PresburgerSet(2, B))
        fab = genfun(PresburgerSet(2, And((A, B))))
        funion = genfun(PresburgerSet(2, Or((A, B))))
        assert funion == fa + fb - fab

    def test_complement_identity(self):
        # [not A] + [A] = [N^2]
        A = And((Ge(Affine((1, -2), 3)), Mod(Affine((1, 0), 0), 2, 1)))
        f = genfun(PresburgerSet(2, A)) + genfun(PresburgerSet(2, Not(A)))
        everything = genfun(PresburgerSet(2, True))
        assert f == everything


@st.composite
def ratfunc_pairs(draw, nvars):
    """Two rational functions whose denominators share some factors, and
    repeat or differ in others."""
    expo = st.tuples(*[st.integers(0, 2)] * nvars)
    factors = st.lists(expo.filter(any), max_size=2)
    nums = st.dictionaries(expo, st.integers(-3, 3), max_size=3)
    shared = draw(factors)
    return [RatFunc(nvars, draw(nums), shared + draw(factors)) for _ in range(2)]


class TestRatFunc:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(ratfunc_pairs(1), ratfunc_pairs(2)))
    @example([RatFunc(1, {(0,): 1}, [(1,)]), RatFunc(1, {(0,): 1}, [(2,)])])
    def test_sum_expands_coefficientwise(self, pair):
        f, g = pair
        want = f.expand(8)
        for m, c in g.expand(8).items():
            want[m] = want.get(m, 0) + c
        assert (f + g).expand(8) == {m: c for m, c in want.items() if c}

    def test_equality_by_cross_multiplication(self):
        # X/(1-X)^2 written two ways
        a = RatFunc(1, {(1,): 1}, [(1,), (1,)])
        b = RatFunc(1, {(1,): 1, (2,): -1}, [(1,), (1,), (1,)])
        assert a == b

    def test_zero_of_another_arity_is_unequal(self):
        # __hash__ is hash(nvars), so equal functions must share nvars
        assert RatFunc.zero(1) != RatFunc.zero(2)

    def test_expand_geometric(self):
        f = RatFunc(1, {(0,): 1}, [(2,)])
        assert f.expand(7) == {(0,): 1, (2,): 1, (4,): 1, (6,): 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            RatFunc(1, {(-1,): 1})
        with pytest.raises(ValueError):
            RatFunc(2, {(0, 0): 1}, [(0, 0)])

    def test_non_integers_raise(self):
        for make in (lambda: RatFunc(1, {(0,): 2.5}),
                     lambda: RatFunc(1, {(0,): Fraction(5, 2)}),
                     lambda: RatFunc(1, {(0.5,): 1}),
                     lambda: RatFunc(1, {(0,): 1}, [(1.5,)])):
            with pytest.raises(TypeError):
                make()

    def test_booleans_raise(self):
        for make in (lambda: RatFunc(1, {(True,): 1}),
                     lambda: RatFunc(1, {(0,): True}),
                     lambda: RatFunc(1, {(0,): False}),
                     lambda: RatFunc(1, {(0,): 1}, [(True,)])):
            with pytest.raises(TypeError):
                make()


class TestImage:
    def test_sum_map(self):
        # image of {j <= i} under (i, j) -> i + j counts with multiplicity
        P = PresburgerSet(2, Ge(Affine((1, -1), 0)))
        f = genfun_image(P, [Affine((1, 1), 0)])
        want = {}
        for i in range(40):
            for j in range(i + 1):
                if i + j <= 25:
                    want[(i + j,)] = want.get((i + j,), 0) + 1
        assert f.expand(25) == want

    def test_two_component_map(self):
        P = PresburgerSet(2, Mod(Affine((1, 1), 0), 2, 0))
        maps = [Affine((1, 0), 0), Affine((1, 1), 0)]
        f = genfun_image(P, maps)
        want = {}
        for i in range(30):
            for j in range(30):
                if (i + j) % 2 == 0 and i + (i + j) <= 20:
                    key = (i, i + j)
                    want[key] = want.get(key, 0) + 1
        assert f.expand(20) == want

    def test_infinite_fibers_detected(self):
        P = PresburgerSet(2, True)
        with pytest.raises(InfiniteFibers):
            genfun_image(P, [Affine((1, 0), 0)])

    @pytest.mark.parametrize("cond", [
        "(>= (* 2 i) j)",
        "(and (<= i j) (<= j (* 3 i)) (mod (+ i j) 3 1))",
        "(or (<= j i) (<= (* 2 j) (+ (* 3 i) 1)))",
    ])
    def test_map_ignoring_j_counts_each_column(self, cond):
        # j <= 3i on each set, so a column holds finitely many points, and
        # their number grows with i
        P = PresburgerSet(2, parse_condition(cond, ("i", "j")))
        f = genfun_image(P, [Affine((2, 0), 1)])
        want = {}
        for i in range(13):
            for j in range(3 * i + 1):
                if member(P, (i, j)):
                    want[(2 * i + 1,)] = want.get((2 * i + 1,), 0) + 1
        assert f.expand(25) == want

    def test_map_ignoring_i(self):
        # finite fibres above the line j = 2i, infinite ones below j = 3
        f = genfun_image(PresburgerSet(2, Ge(Affine((-2, 1), 0))), [Affine((0, 1), 0)])
        assert f.expand(20) == {(j,): j // 2 + 1 for j in range(21)}
        with pytest.raises(InfiniteFibers):
            genfun_image(PresburgerSet(2, Ge(Affine((0, -1), 3))), [Affine((0, 1), 0)])
        with pytest.raises(InfiniteFibers):
            genfun_image(PresburgerSet(1, Mod(Affine((1,), 0), 2, 1)), [Affine((0,), 2)])

    def test_negative_coefficients_rejected(self):
        P = PresburgerSet(2, True)
        with pytest.raises(ValueError):
            genfun_image(P, [Affine((1, -1), 0)])


class TestLimits:
    def test_arity_limits(self):
        with pytest.raises(DimensionUnsupported):
            genfun(PresburgerSet(3, True))
        with pytest.raises(DimensionUnsupported):
            genfun_truncated(PresburgerSet(4, True), 3)

    def test_no_clause_limit(self):
        # a union of 16 clauses; genfun has no limit on their number
        clauses = tuple(And((Ge(Affine((k - 8, -1), k)),
                             Ge(Affine((-1, 1), 2 * k - 10)))) for k in range(16))
        P = PresburgerSet(2, Or(clauses))
        assert genfun(P).expand(30) == truth_dict(P, 30)

    def test_truncated_m3(self):
        P = PresburgerSet(3, Ge(Affine((1, 1, 1), -2)))
        pts = genfun_truncated(P, 3)
        want = [p for p in itertools.product(range(4), repeat=3)
                if sum(p) in (2, 3)]
        assert pts == sorted(want)


class TestConditionSyntax:
    def test_documented_example(self):
        cond = parse_condition(
            "(and (>= (+ (* 2 i) (* -1 j)) 0) (mod i 3 1))", ("i", "j"))
        P = PresburgerSet(2, cond)
        assert member(P, (1, 2))
        assert not member(P, (2, 1))

    def test_roundtrip(self):
        for P in CORPUS:
            names = ("i", "j")[: P.m]
            text = format_condition(P.condition, names)
            again = parse_condition(text, names)
            for pt in itertools.product(range(6), repeat=P.m):
                assert member(P, pt) == member(PresburgerSet(P.m, again), pt)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_condition("(>= i)", ("i",))
        with pytest.raises(ParseError):
            parse_condition("(mod i j 1)", ("i", "j"))
        with pytest.raises(ParseError):
            parse_condition("(* i j)", ("i", "j"))
        with pytest.raises(ParseError):
            parse_condition("(>= (* i j) 0)", ("i", "j"))

    def test_format_ratfunc(self):
        f = genfun(PresburgerSet(1, Mod(Affine((1,), 0), 3, 1)))
        assert format_ratfunc(f) == "X/(1 - X^3)"
