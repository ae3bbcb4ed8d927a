"""Every text syntax of the package: reading and printing.

Class literals, series numerators and integer polynomials are infix
expressions over `^`, `*`, `+`, `-` and parentheses, which one reader
evaluates as it reads them, in its target: classes over `L` with divisors
written `/(L^i-1)` (repeatable), polynomials in T with class coefficients, or
integer polynomials in named variables.  The target's operations on sums of
integer fractions {den: {monomial: int}} also evaluate the s-expression affine
forms of `presburger`; classes are made at the end, and for a factor over a
denominator before it multiplies on.  Conditions are s-expressions
whose `and`/`or`/`not` skeleton one reader parses, leaving the atoms to the
caller; one walker, `fold`, evaluates such a tree, substitutes into it or
evaluates it three-valued, and `atoms` lists its leaves.  `format_laurent`
prints class numerators in one pass and `format_sum` every other signed sum;
printing then parsing reproduces the value.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
import operator
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .errors import ParseError
from .grring import HodgeRational, LaurentPoly, MotClass, poly_mul

_TOKEN_RE = re.compile(r"(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])|(\S)")

# Nesting deeper than this is a parse error.  The bound keeps the recursive
# reader and the recursive walks over condition trees far from Python's
# recursion limit.
MAX_DEPTH = 100

# The products of one expression may pair at most this many terms, a fraction
# counting its numerator terms and denominator factors; base^e adds e pairs per
# bit past the first of its largest coefficient.  Past it the expression is refused.
MAX_TERMS = 2 * 10 ** 6


def tokenize(text: str) -> List[Tuple[str, int]]:
    """Token stream as (token, position) pairs; raises ParseError on junk."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if (tok := m[1]) is None:
            raise ParseError(f"unexpected character {m[2]!r} at column {m.start() + 1}")
        tokens.append(("^" if tok == "**" else tok, m.start()))
    return tokens


class _Parser:
    """Recursive-descent reader that computes each production's value in its
    target as it reads it; (None, end) ends the tokens.  `var` is the name of
    the variable a production read, through parentheses and unary plus, and
    None for any other production: v^e is then one monomial."""

    def __init__(self, text: str, target: _Target):
        self.text, self.target = text, target
        self.tokens = tokenize(text) + [(None, len(text))]
        self.i, self.depth, self.var = 0, 0, None

    def descend(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels "
                             f"at column {pos + 1}")

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        self.i += 1
        return tok

    def parse(self) -> Frac:
        value = self.expr()
        tok, pos = self.tokens[self.i]
        if tok is not None:
            raise ParseError(f"trailing input {tok!r} at column {pos + 1}")
        return value

    def expr(self) -> Frac:
        out = self.term()
        while (op := self.tokens[self.i][0]) == "+" or op == "-":
            self.i += 1
            out = self.target.add(out, self.term(), 1 if op == "+" else -1)
            self.var = None
        return out

    def term(self) -> Frac:
        out = self.unary()
        while (op := self.tokens[self.i][0]) == "*" or op == "/":
            self.i += 1
            if op == "*":
                out = self.target.product(out, self.unary())
            elif self.target.classes:
                out = self.target.divided(out, self.divisor())
            else:
                raise ParseError("division is not allowed in polynomials")
            self.var = None
        return out

    def unary(self) -> Frac:
        op, pos = self.tokens[self.i]
        if op != "-" and op != "+":
            return self.power()
        self.i += 1
        self.descend(pos)
        value = self.unary()
        self.depth -= 1
        if op == "-":
            self.var, value = None, self.target.negated(value)
        return value

    def power(self) -> Frac:
        tok, pos = self.next()
        value = None
        if tok == "(":
            self.descend(pos)
            value = self.expr()
            tok, pos = self.next()
            if tok != ")":
                raise ParseError(f"expected ')' at column {pos + 1}, got {tok!r}")
            self.depth -= 1
        elif tok.isdigit():
            value, self.var = self.target.number(int(tok)), None
        elif tok.isidentifier():
            self.var = tok
        else:
            raise ParseError(f"unexpected token {tok!r} at column {pos + 1}")
        if self.tokens[self.i][0] != "^":
            return self.target.power(tok, 1) if value is None else value
        self.i += 1
        # exponent: optionally signed integer literal
        sign = 1
        if self.tokens[self.i][0] == "-":
            self.i += 1
            sign = -1
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(f"exponent must be an integer at column {pos + 1}")
        name, self.var, e = self.var, None, sign * int(tok)
        return self.target.raised(value, e) if name is None else self.target.power(name, e)

    def divisor(self) -> List[int]:
        """The i of the factors (L^i - 1), i >= 1, of the operand after `/`,
        read by its syntax alone: a `*`-only product of them, parentheses and
        unary plus transparent."""
        self.target, target = _Shapes, self.target
        den = self.unary()
        self.target = target
        return den if type(den) is list else _refuse()


def _refuse(*_):
    raise ParseError("denominators must be products of (L^i-1) factors")


class _Shapes:
    """The target of a divisor, a namespace: the shape of L^i is i, of the
    number 1 "1" and of L^i - 1, i >= 1, or of a `*`-only product of such,
    the list of the i; any other operand is refused where it departs."""
    classes = True
    negated = divided = raised = _refuse

    def number(n):
        return "1" if n == 1 else _refuse()

    def power(name, e):
        return e if name == "L" and e >= 1 else _refuse()

    def add(out, value, sign):
        return [out] if sign < 0 and type(out) is int and value == "1" else _refuse()

    def product(a, b):
        return a + b if type(a) is list and type(b) is list else _refuse()


# -- s-expressions ----------------------------------------------------------

# `{...}` is one atom: the jet conditions write polynomial literals in braces.
# The last alternative catches a brace left unmatched.
_SEXP_TOKEN_RE = re.compile(r"\{[^{}]*\}|[()]|[^\s(){}]+|\S")


def read_sexp(text: str):
    """One s-expression as nested lists of string atoms.

    Iterative, so deep input cannot exhaust the stack; nesting deeper than
    MAX_DEPTH raises ParseError.
    """
    stack: List[list] = []
    node = None
    for m in _SEXP_TOKEN_RE.finditer(text):
        tok = m.group()
        if node is not None:
            raise ParseError("trailing input after condition")
        if tok in ("{", "}"):
            raise ParseError(f"unmatched {tok!r} at column {m.start() + 1} in condition")
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"condition nested deeper than {MAX_DEPTH} levels")
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise ParseError("unexpected ')' in condition")
            tok = stack.pop()
        if stack:
            stack[-1].append(tok)
        else:
            node = tok
    if stack:
        raise ParseError("unbalanced parentheses in condition")
    if node is None:
        raise ParseError("unexpected end of condition")
    return node


# -- boolean trees ----------------------------------------------------------

@dataclass(frozen=True)
class And:
    children: Tuple[object, ...]


@dataclass(frozen=True)
class Or:
    children: Tuple[object, ...]


@dataclass(frozen=True)
class Not:
    child: object


def read_condition(text: str, atom: Callable[[list], object]):
    """A boolean tree over `true`, `false`, `(and ...)`, `(or ...)` and
    `(not c)`; every other list is an atom, which atom(node) parses, or
    returns None for an operator it does not know."""
    return _condition(read_sexp(text), atom)


def _condition(node, atom):
    if isinstance(node, str):
        if node in ("true", "false"):
            return node == "true"
        raise ParseError(f"bad condition token {node!r}")
    if not node:
        raise ParseError("empty condition")
    head = node[0]
    if head in ("and", "or"):
        return (And if head == "and" else Or)(
            tuple(_condition(c, atom) for c in node[1:]))
    if head == "not":
        if len(node) != 2:
            raise ParseError("'not' needs exactly one argument")
        return Not(_condition(node[1], atom))
    value = atom(node)
    if value is None:
        raise ParseError(f"unknown condition operator {head!r}")
    return value


def fold(cond, atom: Callable[[object], object]):
    """The tree with each atom a replaced by atom(a) and the constants folded:
    an `and` is False at its first False child and drops True ones, an `or`
    the reverse, and an empty `and`/`or` is True/False.  A value other than
    a bool stays in the tree, so with True/False atoms this evaluates, with
    rewritten atoms it substitutes, and with some atoms unknown a result
    that is not a bool means unknown (Kleene's logic)."""
    if isinstance(cond, bool):
        return cond
    if isinstance(cond, Not):
        child = fold(cond.child, atom)
        return (not child) if isinstance(child, bool) else Not(child)
    if isinstance(cond, (And, Or)):
        absorbing = isinstance(cond, Or)  # True decides an Or, False an And
        kids = []
        for child in cond.children:
            child = fold(child, atom)
            if child is absorbing:
                return absorbing
            if not isinstance(child, bool):
                kids.append(child)
        return type(cond)(tuple(kids)) if kids else not absorbing
    return atom(cond)


def atoms(cond) -> set:
    """The leaf atoms of the tree."""
    if isinstance(cond, (And, Or)):
        return set().union(*map(atoms, cond.children))
    if isinstance(cond, Not):
        return atoms(cond.child)
    return set() if isinstance(cond, bool) else {cond}


# -- evaluation -------------------------------------------------------------

# A value: a sum of fractions {den: {monomial: int}}, den the sorted i of its
# (L^i - 1) factors; a class monomial ends in the exponent of L.
Frac = Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]]


def _add(out: Frac, value: Frac, sign: int = 1) -> Frac:
    """out += sign * value, without zero coefficients or empty groups."""
    for den, num in value.items():
        acc = out.setdefault(den, {})
        for m, c in num.items():
            if c := acc.get(m, 0) + sign * c:
                acc[m] = c
            else:
                del acc[m]
        if not acc:
            del out[den]
    return out


class _Target:
    """What the reader computes: polynomials in `names` with class
    coefficients (then `L`, negative powers of L and divisors that are
    products of (L^i - 1) factors are allowed) or integer ones; an unknown
    symbol is reported with `where` after it.  One target serves one
    expression, and `spent` counts the pairs of terms its products form.
    `add` adds into its first value and `divided` keeps the numerators of
    its value: the reader passes each value on once."""

    def __init__(self, names: Sequence[str], classes: bool, where: str):
        self.classes, self.where = classes, where
        self.layout = tuple(names) + ("L",) * classes  # the variables of a monomial
        self.unit = (0,) * len(self.layout)
        self.spent = 0

    def charge(self, pairs: int) -> None:
        self.spent += pairs
        if self.spent > MAX_TERMS:
            raise ParseError(f"expression multiplies more than {MAX_TERMS} pairs of terms")

    def check_exponent(self, e: int, name: str = "") -> None:
        """Refuse a negative e, but on L in a class target."""
        if e < 0 and not (self.classes and name == "L"):
            raise ParseError("negative powers are only allowed for L" if self.classes
                             else "negative powers are not allowed in polynomials")

    def number(self, n: int) -> Frac:
        return {(): {self.unit: n}} if n else {}

    def power(self, name: str, e: int) -> Frac:
        """The monomial name^e."""
        self.check_exponent(e, name)
        if name not in self.layout:
            raise ParseError(f"unknown {'symbol' if self.classes else 'variable'} "
                             f"{name!r} {self.where}")
        v, unit = self.layout.index(name), self.unit
        return {(): {unit[:v] + (e,) + unit[v + 1:]: 1}}

    add = staticmethod(_add)

    @staticmethod
    def negated(value: Frac) -> Frac:
        return _add({}, value, -1)

    def product(self, a: Frac, b: Frac) -> Frac:
        """a * b, charged first: numerators multiply, denominators join.  A left
        factor with a denominator is reduced first: left to the end, the
        cancelling in a long product or power costs far more than its terms."""
        if len(a) == 1 == len(b) and () in a and () in b:  # no denominators
            pa, pb = a[()], b[()]
            self.charge(len(pa) * len(pb))
            if len(pa) == 1 == len(pb):  # one monomial
                (ma, ca), = pa.items()
                (mb, cb), = pb.items()
                return {(): {tuple(map(operator.add, ma, mb)): ca * cb}}
            return {(): p} if (p := poly_mul(pa, pb)) else {}
        a = _reduced(a) if any(a) else a
        sizes = [sum(len(num) + len(den) for den, num in f.items()) for f in (a, b)]
        self.charge(sizes[0] * sizes[1])
        out: Frac = {}
        for da, pa in a.items():
            for db, pb in b.items():
                _add(out, {tuple(sorted(da + db)) if da and db else da or db:
                           poly_mul(pa, pb)})
        return out

    def divided(self, value: Frac, den: List[int]) -> Frac:
        """value / prod (L^i - 1) over the i in den."""
        self.charge(sum(len(num) + len(d) for d, num in value.items()) * (1 + len(den)))
        return {tuple(sorted(d + tuple(den))): num for d, num in value.items()}

    def raised(self, value: Frac, e: int) -> Frac:
        """value^e, by squaring from the top bit down, charged first for the
        bits its coefficients grow by."""
        self.check_exponent(e)
        self.charge(e * (max((abs(c).bit_length() for num in value.values()
                              for c in num.values()), default=1) - 1))
        out = {(): {self.unit: 1}}
        for bit in bin(e)[2:]:
            out = self.product(out, out)
            if bit == "1":
                out = self.product(out, value)
        return out


def _classes(value: Frac) -> Dict[Tuple[int, ...], MotClass]:
    """{monomial in the names: class} of a class value, without zero classes;
    each is the ring's sum of one class per denominator."""
    coeffs: Dict[Tuple[int, ...], Dict] = {}
    for den, num in value.items():
        for m, c in num.items():
            coeffs.setdefault(m[:-1], {}).setdefault(den, {})[m[-1]] = c
    sums = {m: sum((MotClass(LaurentPoly._of(p), den) for den, p in groups.items()),
                   MotClass.zero()) for m, groups in coeffs.items()}
    return {m: c for m, c in sums.items() if not c.is_zero}


def _reduced(value: Frac) -> Frac:
    """A class value with its classes in canonical form."""
    out: Frac = {}
    for m, c in _classes(value).items():
        _add(out, {c.den: {m + (e,): k for e, k in c.num.terms.items()}})
    return out


def parse_motclass(text: str) -> MotClass:
    value = _Parser(text, _Target((), True, "in ring expression")).parse()
    return _classes(value).get(()) or MotClass.zero()


def parse_series_num(text: str) -> Dict[int, MotClass]:
    """A polynomial in T with class coefficients, as {exponent: class}."""
    value = _Parser(text, _Target(("T",), True, "in series expression")).parse()
    return {m[0]: c for m, c in _classes(value).items()}


def int_target(names: Sequence[str]) -> _Target:
    """The target of integer polynomials in names."""
    return _Target(names, False, f"(declared: {', '.join(names)})")


def parse_int_poly(text: str, names: Sequence[str]) -> Dict[Tuple[int, ...], int]:
    return _Parser(text, int_target(names)).parse().get((), {})


def split_affine(poly: Dict[Tuple[int, ...], int], n: int,
                 error: str) -> Tuple[Tuple[int, ...], int]:
    """(coeffs, const) of a polynomial in n variables of degree <= 1;
    ParseError(error) for a term of higher degree."""
    coeffs, const = [0] * n, 0
    for mono, c in poly.items():
        if sum(mono) > 1:
            raise ParseError(error)
        if sum(mono):
            coeffs[mono.index(1)] += c
        else:
            const = c
    return tuple(coeffs), const


# -- printing ---------------------------------------------------------------

def _power(name: str, e: int) -> str:
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def format_monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    """x^2*y; the empty string for the monomial 1."""
    return "*".join([_power(name, e) for name, e in zip(names, exps) if e])


def format_sum(terms: Iterable[Tuple[int, str]]) -> str:
    """`a - 2*b + 3` from (coefficient, monomial) pairs in print order, with
    nonzero coefficients; a coefficient of magnitude 1 is left out before a
    monomial other than 1."""
    parts: List[str] = []
    for c, mono in terms:
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if parts:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) if parts else "0"


def format_fraction(terms: Sequence[Tuple[int, str]], factors: Sequence[str]) -> str:
    """format_sum(terms) divided by each factor in turn; a numerator of
    several terms is parenthesized."""
    num = format_sum(terms)
    if not terms or not factors:
        return num
    return (f"({num})" if len(terms) > 1 else num) + "".join("/" + f for f in factors)


def format_laurent(p: LaurentPoly) -> str:
    """`L^2 - 3*L + 1 - L^-1`: format_sum of p by descending exponent, in one pass."""
    terms, parts = p.terms, []
    for e in sorted(terms, reverse=True):
        c, sign = terms[e], " + "
        if c < 0:
            c, sign = -c, " - "
        if e == 0:
            parts.append(f"{sign}{c}")
        elif c == 1:
            parts.append(f"{sign}L" if e == 1 else f"{sign}L^{e}")
        else:
            parts.append(f"{sign}{c}*L" if e == 1 else f"{sign}{c}*L^{e}")
    text = "".join(parts)
    return ("-" + text[3:] if text[1] == "-" else text[3:]) if text else "0"


def format_motclass(a: MotClass) -> str:
    """The numerator, parenthesized if it has several terms, then /(L^i-1)s."""
    num = format_laurent(a.num)
    if not a.den or not a.num.terms:
        return num
    return (f"({num})" if len(a.num.terms) > 1 else num) + "".join(
        ["/(L-1)" if i == 1 else f"/(L^{i}-1)" for i in a.den])


def format_series_num(num: Dict[int, MotClass]) -> str:
    """(a) + (b)*T + (c)*T^2 from {exponent: class}; parse_series_num reads it."""
    terms = []
    for e in sorted(num):
        t = _power("T", e)
        terms.append((1, f"({format_motclass(num[e])})" + (f"*{t}" if t else "")))
    return format_sum(terms)


def format_int_poly(p: Dict[Tuple[int, ...], int], names: Sequence[str]) -> str:
    return format_sum((p[m], format_monomial(names, m)) for m in sorted(p, reverse=True))


def _uv(p: int) -> str:
    return "u*v" if p == 1 else f"(u*v)^{p}"


def format_hodge(h: HodgeRational) -> str:
    return format_fraction(
        [(h.num[p, q], _uv(p) if p == q != 0 else format_monomial(("u", "v"), (p, q)))
         for p, q in sorted(h.num, reverse=True)],
        [f"({_uv(i)}-1)" for i in h.den])
