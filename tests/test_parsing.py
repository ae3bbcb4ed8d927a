"""The text layer: printed forms pinned as strings, parse/print round trips,
and the parse errors of each syntax."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic.errors import BudgetExceeded, ParseError
from motivic.grring import HodgeRational, LaurentPoly, MotClass
from motivic.jets import parse_semialg
from motivic.models import ModelFile, parse_model, print_model
from motivic.parsing import (And, Not, Or, _Parser, _Target, atoms, fold, format_hodge,
                             format_int_poly, format_motclass, parse_int_poly,
                             parse_motclass, parse_series_num, tokenize)
from motivic.presburger import RatFunc, format_ratfunc, parse_condition
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


@pytest.mark.parametrize("divisor, den", [
    ("(L-1)", [1]),
    ("((L-1))", [1]),
    ("((L-1)*(L^2-1))", [1, 2]),
    ("((L^2-1)*((L-1)))", [1, 2]),
    ("(L+1)", None),
    ("(L^2-1)^2", None),
    ("(L^0-1)", None),
    ("-(L-1)", None),
    ("L - 1", None),
])
def test_divisor_table(divisor, den):
    # the operand after `/` is checked by its syntax: a `*`-only product of
    # factors L^i - 1, i >= 1, with parentheses transparent
    if den is None:
        with pytest.raises(ParseError, match=r"products of \(L\^i-1\) factors"):
            parse_motclass("L/" + divisor)
    else:
        assert parse_motclass("L/" + divisor) == MotClass(LP({1: 1}), den)


@pytest.mark.parametrize("text, names, classes, spent", [
    ("-2*L - 3", (), True, 1),
    ("(x+y+1)^3", ("x", "y"), False, 31),
    ("(L^2-L)/(L^2-1)*(L+1)/(L-1)", (), True, 16),
    ("(L+T)^2*L/(L-1) - T^3/((L-1)*(L^2-1))", ("T",), True, 19),
    ("3^1999960", (), True, 1999990),  # 10 pairs short of MAX_TERMS
])
def test_spent_is_pinned(text, names, classes, spent):
    # the pairs of terms that an expression's products are charged
    target = _Target(names, classes, "")
    _Parser(text, target).parse()
    assert target.spent == spent


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("LTxy0129+-*/^() "), max_size=20),
       st.lists(st.sampled_from(["(", ")", " ", "+", "-", "*", ">=", "<=", "=", "mod",
                                 "and", "or", "not", "i", "j", "k", "0", "2", "-1"]),
                max_size=16).map("".join))
def test_readers_never_raise_another_exception(infix, sexp):
    # a value or a ParseError; a class whose exact division passes its bound
    # is refused as BudgetExceeded
    for parse, text in [(parse_motclass, infix), (parse_series_num, infix),
                        (lambda t: parse_int_poly(t, ("x", "y")), infix),
                        (lambda t: parse_condition(t, ("i", "j")), sexp)]:
        try:
            parse(text)
        except (ParseError, BudgetExceeded):
            pass


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


# -- the infix reader against a reference fold in the ring -------------------

def expr_trees(names, classes):
    """(tree, text) pairs: numbers, names, L^e, sums, differences, negations,
    products, small powers and, over classes, divisions by (L^i-1) products."""
    leaves = st.integers(0, 40).map(lambda n: ("num", n)) | st.sampled_from(names).map(
        lambda v: ("var", v))
    if classes:
        leaves |= st.integers(-3, 3).map(lambda e: ("Lpow", e))

    def extend(sub):
        out = (st.builds(lambda x: ("neg", x), sub)
               | st.builds(lambda xs: ("add", tuple(xs)),
                           st.lists(st.tuples(st.sampled_from([1, -1]), sub),
                                    min_size=2, max_size=3))
               | st.builds(lambda x, y: ("mul", x, y), sub, sub)
               | st.builds(lambda x, e: ("pow", x, e), sub, st.integers(0, 3)))
        if classes:
            out |= st.builds(lambda x, den: ("div", x, tuple(den)), sub,
                             st.lists(st.integers(1, 6), min_size=1, max_size=3))
        return out
    return st.recursive(leaves, extend, max_leaves=8).map(lambda t: (t, render(t)))


def render(t, wrap=("add",)):
    """Infix text of a tree; a child of a kind in wrap is parenthesized."""
    kind = t[0]
    if kind in ("num", "var"):
        return str(t[1])
    if kind == "Lpow":
        text = "L" if t[1] == 1 else f"L^{t[1]}"
    elif kind == "neg":
        text = "-" + render(t[1])
    elif kind == "add":
        text = "".join(("-" if s < 0 else "") + render(x) if not i else
                       (" - " if s < 0 else " + ") + render(x)
                       for i, (s, x) in enumerate(t[1]))
    elif kind == "mul":
        text = render(t[1]) + "*" + render(t[2])
    elif kind == "div":
        factors = ["(L-1)" if i == 1 else f"(L^{i}-1)" for i in t[2]]
        den = factors[0] if len(factors) == 1 else "(" + "*".join(factors) + ")"
        text = render(t[1]) + "/" + den
    else:  # a power's base is an atom
        text = render(t[1], ("add", "neg", "mul", "div", "pow", "Lpow")) + f"^{t[2]}"
    return f"({text})" if kind in wrap else text


def fold_ring(t, names, classes):
    """The tree's value as {monomial in names: coefficient}, the coefficients
    MotClass or int, by ring operations on the coefficients; no zeros."""
    zero, unit = (MotClass.zero() if classes else 0), (0,) * len(names)

    def const(n):
        return MotClass.const(n) if classes else n

    def clean(p):
        return {m: c for m, c in p.items() if c != zero}

    def mul(a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, zero) + c1 * c2
        return clean(out)

    def fold(t):
        kind = t[0]
        if kind == "num":
            return clean({unit: const(t[1])})
        if kind == "var":  # L is a class, not one of the names
            if t[1] not in names:
                return {unit: MotClass.L()}
            return {tuple(int(v == t[1]) for v in names): const(1)}
        if kind == "Lpow":
            return {unit: MotClass.L(t[1])}
        if kind == "neg":
            return {m: -c for m, c in fold(t[1]).items()}
        if kind == "add":
            out = {}
            for s, x in t[1]:
                for m, c in fold(x).items():
                    out[m] = out.get(m, zero) + (c if s > 0 else -c)
            return clean(out)
        if kind == "mul":
            return mul(fold(t[1]), fold(t[2]))
        if kind == "div":
            return mul(fold(t[1]), {unit: MotClass(LaurentPoly.const(1), t[2])})
        out = {unit: const(1)}
        for _ in range(t[2]):
            out = mul(out, fold(t[1]))
        return out
    return fold(t)


@settings(max_examples=300, deadline=None)
@given(expr_trees(("L",), True))
def test_parse_motclass_is_the_ring_fold(tree_text):
    tree, text = tree_text
    assert parse_motclass(text) == fold_ring(tree, (), True).get((), MotClass.zero())


@settings(max_examples=300, deadline=None)
@given(expr_trees(("T", "L"), True))
def test_parse_series_num_is_the_ring_fold(tree_text):
    tree, text = tree_text
    want = {m[0]: c for m, c in fold_ring(tree, ("T",), True).items()}
    assert parse_series_num(text) == want


@settings(max_examples=300, deadline=None)
@given(expr_trees(("x", "y"), False))
def test_parse_int_poly_is_the_ring_fold(tree_text):
    tree, text = tree_text
    assert parse_int_poly(text, ("x", "y")) == fold_ring(tree, ("x", "y"), False)


VAR_POWER_TERMS = st.lists(st.lists(st.tuples(st.sampled_from(("x", "y", "z")),
                                                st.integers(0, 6)), min_size=1, max_size=4),
                           min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(VAR_POWER_TERMS, st.integers(-5, 5))
def test_variable_powers_read_as_their_expanded_products(terms, c):
    # v^e is read as one monomial: a sum of products of them parses to the
    # polynomial of the same products written out as e factors v
    names = ("x", "y", "z")
    powered = " + ".join(f"{c}*" + "*".join(f"{v}^{e}" for v, e in term) for term in terms)
    expanded = " + ".join(f"{c}*" + "*".join([v for v, e in term for _ in range(e)] or ["1"])
                          for term in terms)
    assert parse_int_poly(powered, names) == parse_int_poly(expanded, names)


@given(st.lists(st.integers(-4, 6), min_size=1, max_size=4),
       st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_powers_of_L_and_T_read_as_one_monomial(l_exps, t_exps):
    assert parse_motclass("*".join(f"L^{e}" for e in l_exps)) == MotClass.L(sum(l_exps))
    assert parse_series_num("*".join(f"T^{e}" for e in t_exps) + "*L") == \
        {sum(t_exps): MotClass.L()}


_REFERENCE_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")


def reference_tokenize(text):
    """A match-per-token loop that skips whitespace before each token."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} "
                             f"at column {len(text) - len(rest) + 1}")
        tokens.append(("^" if m.group(1) == "**" else m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def outcome(f, text):
    try:
        return f(text)
    except ParseError as e:
        return str(e)


@settings(max_examples=500)
@given(st.text(st.sampled_from("L x_9 07+-*/^()** \t\n\u00a0\u2003#é€٣²."), max_size=25))
def test_tokenize_matches_the_reference_loop(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)
