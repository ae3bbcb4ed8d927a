"""The text layer: printed forms pinned as strings, parse/print round trips,
and the parse errors of each syntax."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic.errors import ParseError
from motivic.grring import HodgeRational, LaurentPoly, MotClass
from motivic.jets import parse_semialg
from motivic.models import ModelFile, parse_model, print_model
from motivic.parsing import (And, Not, Or, atoms, fold, format_hodge,
                             format_int_poly, format_motclass, parse_int_poly,
                             parse_motclass)
from motivic.presburger import RatFunc, format_ratfunc
from motivic.series import RationalMotSeries

LP = LaurentPoly


@pytest.mark.parametrize("value, text", [
    (MotClass.zero(), "0"),
    (MotClass.const(7), "7"),
    (MotClass.const(-1), "-1"),
    (MotClass(LP({2: -1, 0: 3})), "-L^2 + 3"),
    (MotClass(LP({3: 1, 1: -2, 0: -1})), "L^3 - 2*L - 1"),
    (MotClass(LP({4: 2, 1: 1})), "2*L^4 + L"),
    (MotClass.L(-2), "L^-2"),
    (MotClass(LP({1: 1, -1: -3})), "L - 3*L^-1"),
    (MotClass(LP({1: 1}), [2]), "L/(L^2-1)"),
    (MotClass(LP({1: -2}), [1, 3]), "-2*L/(L-1)/(L^3-1)"),
    (MotClass(LP({2: 1, 1: -1}), [2]), "(L^2 - L)/(L^2-1)"),
    (MotClass(LP({0: -1, -1: 1}), [1, 1]), "-L^-1/(L-1)"),
])
def test_format_motclass(value, text):
    assert format_motclass(value) == text


@pytest.mark.parametrize("value, text", [
    (HodgeRational({}), "0"),
    (HodgeRational({(0, 0): 4}), "4"),
    (HodgeRational({(2, 2): 1, (1, 1): 1, (0, 0): -1}), "(u*v)^2 + u*v - 1"),
    (HodgeRational({(3, 1): -2, (0, 2): 1}), "-2*u^3*v + v^2"),
    (HodgeRational({(2, 2): 3, (2, 1): -1, (1, 0): 1}), "3*(u*v)^2 - u^2*v + u"),
    (HodgeRational({(1, 1): 1}, [1]), "u*v/(u*v-1)"),
    (HodgeRational({(2, 2): -1, (1, 2): 5}, [2, 3]),
     "(-(u*v)^2 + 5*u*v^2)/((u*v)^2-1)/((u*v)^3-1)"),
    (HodgeRational({(-1, -1): 1, (0, -2): 2}), "2*v^-2 + (u*v)^-1"),
])
def test_format_hodge(value, text):
    assert format_hodge(value) == text


@pytest.mark.parametrize("poly, names, text", [
    ({}, ("x",), "0"),
    ({(0, 0, 0): -3}, ("x", "y", "z"), "-3"),
    ({(2, 0): -1, (0, 1): 1}, ("x", "y"), "-x^2 + y"),
    ({(1, 1, 1): 2, (0, 2, 0): -1, (0, 0, 1): 1, (0, 0, 0): 5}, ("x", "y", "z"),
     "2*x*y*z - y^2 + z + 5"),
    ({(1, 1): 1, (1, 0): 1, (0, 0): -1}, ("u", "v"), "u*v + u - 1"),
])
def test_format_int_poly(poly, names, text):
    assert format_int_poly(poly, names) == text


@pytest.mark.parametrize("value, names, text", [
    (RatFunc(2, {}, [(1, 0)]), None, "0"),
    (RatFunc(1, {(0,): 3}), None, "3"),
    (RatFunc(1, {(2,): -1}, [(1,), (3,)]), None, "-X^2/(1 - X)/(1 - X^3)"),
    (RatFunc(2, {(1, 2): 1}, [(5, 0), (0, 7)]), None, "X*Y^2/(1 - Y^7)/(1 - X^5)"),
    (RatFunc(2, {(0, 0): 1, (1, 1): -2, (3, 0): 1}, [(1, 1), (0, 2)]), None,
     "(1 - 2*X*Y + X^3)/(1 - Y^2)/(1 - X*Y)"),
    (RatFunc(2, {(0, 0): 1, (1, 1): -2, (3, 0): 1}, [(1, 1), (0, 2)]), ["s", "t"],
     "(1 - 2*s*t + s^3)/(1 - t^2)/(1 - s*t)"),
    (RatFunc(3, {(1, 0, 2): 2, (0, 0, 0): -1}, [(1, 0, 1)]), None,
     "(-1 + 2*X0*X2^2)/(1 - X0*X2)"),
])
def test_format_ratfunc(value, names, text):
    assert format_ratfunc(value, names) == text


@pytest.mark.parametrize("text, printed", [
    ("kind = series\nnum = (L^-1 - 2*L^3)*T^2 + (L - 1)/(L^2-1) + 3*T\n"
     "den = (1,1) (0,2)\n",
     "kind = series\nnum = ((L - 1)/(L^2-1)) + (3)*T + (-2*L^3 + L^-1)*T^2\n"
     "den = (0,2) (1,1)\n"),
    ("kind = resolution\ndimension = 2\ndivisor E nu=2 N=3\n"
     "stratum | class = L^2 - 1\nstratum E | chi = 1/2 | hodge = u*v - 2*u^2*v + 1\n"
     "total = (L^3 - L)/(L^2-1)\n",
     "kind = resolution\ndimension = 2\ndivisor E nu=2 N=3\n"
     "stratum | class = L^2 - 1\nstratum E | chi = 1/2 | hodge = -2*u^2*v + u*v + 1\n"
     "total = L\n"),
    ("kind = presburger\nvars = i j\n"
     "condition = (and (>= (- i (* 2 j)) -1) (not (mod (+ i j) 3 2)))\n"
     "map = 2*i + j + 1\nmap = j\n",
     "kind = presburger\nvars = i j\n"
     "condition = (and (>= (+ i (* -2 j) 1) 0) (not (mod (+ i j) 3 2)))\n"
     "map = 2*i + j + 1\nmap = j\n"),
    ("kind = variety\nvars = x y z\ndimension = 2\npoly = -x^2*z + y^3 - 2*y + 1\n"
     "params = s\ncondition = (ord>= {x} {s + 1})\n",
     "kind = variety\nvars = x y z\ndimension = 2\npoly = -x^2*z + y^3 - 2*y + 1\n"
     "params = s\ncondition = (ord>= {x} {s + 1})\n"),
])
def test_print_model(text, printed):
    assert print_model(parse_model(text)) == printed


laurent_st = st.dictionaries(st.integers(-4, 6), st.integers(-9, 9),
                             max_size=5).map(LaurentPoly)
motclass_st = st.builds(MotClass, laurent_st,
                        st.lists(st.integers(1, 4), max_size=3))
names3 = ("x", "y", "z")
int_poly_st = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                              st.integers(-9, 9).filter(bool), max_size=6)


@settings(max_examples=150)
@given(motclass_st)
def test_motclass_round_trip(a):
    assert parse_motclass(format_motclass(a)) == a


@settings(max_examples=150)
@given(int_poly_st)
def test_int_poly_round_trip(p):
    assert parse_int_poly(format_int_poly(p, names3), names3) == p


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(0, 4), motclass_st, max_size=4),
       st.lists(st.tuples(st.integers(-2, 3), st.integers(1, 3)), max_size=3))
def test_series_model_round_trip(num, den):
    series = RationalMotSeries(num, den)
    parsed = parse_model(print_model(ModelFile("series", series))).datum
    assert parsed.num == series.num and parsed.den == series.den


@pytest.mark.parametrize("parse, text, message", [
    (parse_motclass, "L + x", "unknown symbol 'x' in ring expression"),
    (parse_motclass, "L/(L+1)", r"products of \(L\^i-1\) factors"),
    (parse_motclass, "L/(L^2-1)^2", r"products of \(L\^i-1\) factors"),
    (parse_motclass, "L/(L^0-1)", r"products of \(L\^i-1\) factors"),
    (parse_motclass, "(L+1)^-1", "negative powers are only allowed for L"),
    (lambda t: parse_int_poly(t, ("x", "y")), "x/y",
     "division is not allowed in polynomials"),
    (lambda t: parse_int_poly(t, ("x", "y")), "x^-1",
     "negative powers are not allowed in polynomials"),
    (lambda t: parse_int_poly(t, ("x", "y")), "x + w",
     r"unknown variable 'w' \(declared: x, y\)"),
    (lambda t: parse_int_poly(t, ("L",)), "L^-1",
     "negative powers are not allowed in polynomials"),
    (lambda t: parse_model("kind = series\nnum = " + t + "\n"), "S*T",
     "unknown symbol 'S' in series expression"),
    (lambda t: parse_model("kind = presburger\nvars = i j\ncondition = true\n"
                           "map = " + t + "\n"), "i*j",
     "line 4: map 'i\\*j' is not affine"),
    (lambda t: parse_semialg(t, ("x",), ("s",)), "(ord>= {x} {s^2})",
     "ord offset must be affine in the parameters"),
])
def test_parse_errors(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


# -- the condition-tree walker ---------------------------------------------

UNKNOWN = "unknown"  # any value other than a bool is left in the tree


def cond_trees(leaves, depth=3):
    if depth == 0:
        return leaves
    sub = cond_trees(leaves, depth - 1)
    kids = st.lists(sub, max_size=3).map(tuple)
    return leaves | st.builds(Not, sub) | st.builds(And, kids) | st.builds(Or, kids)


NAMES = ("a", "b", "c", "d")
named_trees = cond_trees(st.booleans() | st.sampled_from(NAMES))


def kleene(tree, value):
    """Oracle: the rank of the tree's value, with F < U < T ranked 0, 1, 2."""
    if isinstance(tree, bool):
        return 2 * tree
    if isinstance(tree, Not):
        return 2 - kleene(tree.child, value)
    if isinstance(tree, And):
        return min((kleene(c, value) for c in tree.children), default=2)
    if isinstance(tree, Or):
        return max((kleene(c, value) for c in tree.children), default=0)
    return {False: 0, UNKNOWN: 1, True: 2}[value[tree]]


def leaves(tree):
    if isinstance(tree, (And, Or)):
        return {a for c in tree.children for a in leaves(c)}
    if isinstance(tree, Not):
        return leaves(tree.child)
    return set() if isinstance(tree, bool) else {tree}


def plain(tree, value):
    if isinstance(tree, bool):
        return tree
    if isinstance(tree, Not):
        return not plain(tree.child, value)
    if isinstance(tree, And):
        return all(plain(c, value) for c in tree.children)
    if isinstance(tree, Or):
        return any(plain(c, value) for c in tree.children)
    return value[tree]


@settings(max_examples=300)
@given(named_trees, st.tuples(*[st.sampled_from([True, False, UNKNOWN])] * len(NAMES)))
def test_fold_is_kleene_logic(tree, values):
    value = dict(zip(NAMES, values))
    folded = fold(tree, value.__getitem__)
    assert (2 * folded if isinstance(folded, bool) else 1) == kleene(tree, value)
    assert atoms(tree) == leaves(tree)


@settings(max_examples=300)
@given(named_trees, st.tuples(*[st.booleans()] * len(NAMES)))
def test_fold_with_bool_atoms_evaluates(tree, values):
    value = dict(zip(NAMES, values))
    assert fold(tree, value.__getitem__) is plain(tree, value)
