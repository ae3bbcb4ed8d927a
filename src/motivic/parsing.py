"""Every text syntax of the package: reading and printing.

Class literals, series numerators and integer polynomials are infix
expressions over `^`, `*`, `+`, `-` and parentheses, parsed into one tuple
AST that one evaluator maps to its target: classes over `L` with divisors
written `/(L^i-1)` (repeatable), polynomials in T with class coefficients,
or integer polynomials in named variables (`presburger` builds the same AST
from its s-expression affine forms).  The evaluator computes on sums of integer
fractions {den: {monomial: int}}; classes are made at the end, and for a factor
over a denominator before it multiplies on.  Conditions are s-expressions
whose `and`/`or`/`not` skeleton one reader parses, leaving the atoms to the
caller; one walker, `fold`, evaluates such a tree, substitutes into it or
evaluates it three-valued, and `atoms` lists its leaves.  The printers
share one signed-sum writer, and printing then parsing reproduces the value.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .errors import ParseError
from .grring import HodgeRational, LaurentPoly, MotClass, poly_mul

_TOKEN_RE = re.compile(r"(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])|(\S)")

# Nesting deeper than this is a parse error.  The bound keeps the recursive
# parser and the recursive walks over the parsed trees far from Python's
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
    """Recursive-descent parser producing a small tuple AST; (None, end) ends the tokens."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text) + [(None, len(text))]
        self.i = 0
        self.depth = 0

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

    def parse(self):
        node = self.expr()
        tok, pos = self.tokens[self.i]
        if tok is not None:
            raise ParseError(f"trailing input {tok!r} at column {pos + 1}")
        return node

    def expr(self):
        # flat n-ary nodes: a long sum or product must not nest deeply
        terms = [(1, self.term())]
        while (op := self.tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            terms.append((1 if op == "+" else -1, self.term()))
        return terms[0][1] if len(terms) == 1 else ("add", tuple(terms))

    def term(self):
        factors = [("*", self.unary())]
        while (op := self.tokens[self.i][0]) in ("*", "/"):
            self.i += 1
            factors.append((op, self.unary()))
        return factors[0][1] if len(factors) == 1 else ("mul", tuple(factors))

    def unary(self):
        op, pos = self.tokens[self.i]
        if op not in ("-", "+"):
            return self.power()
        self.i += 1
        self.descend(pos)
        node = self.unary()
        self.depth -= 1
        return ("neg", node) if op == "-" else node

    def power(self):
        base = self.atom()
        if self.tokens[self.i][0] == "^":
            self.i += 1
            # exponent: optionally signed integer literal
            sign = 1
            if self.tokens[self.i][0] == "-":
                self.i += 1
                sign = -1
            tok, pos = self.next()
            if not tok.isdigit():
                raise ParseError(f"exponent must be an integer at column {pos + 1}")
            return ("pow", base, sign * int(tok))
        return base

    def atom(self):
        tok, pos = self.next()
        if tok == "(":
            self.descend(pos)
            node = self.expr()
            tok, pos = self.next()
            if tok != ")":
                raise ParseError(f"expected ')' at column {pos + 1}, got {tok!r}")
            self.depth -= 1
            return node
        if tok.isdigit():
            return ("num", int(tok))
        if tok.isidentifier():
            return ("var", tok)
        raise ParseError(f"unexpected token {tok!r} at column {pos + 1}")


def parse_expr(text: str):
    return _Parser(text).parse()


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


def _merge(out: Frac, den: Tuple[int, ...], num: Dict, sign: int = 1) -> None:
    """out += sign * num / den, without zero coefficients or empty groups."""
    acc = out.setdefault(den, {})
    for m, c in num.items():
        if c := acc.get(m, 0) + sign * c:
            acc[m] = c
        else:
            del acc[m]
    if not acc:
        del out[den]


class _Target:
    """What `_evaluate` computes: polynomials in `names` with class
    coefficients (then `L`, negative powers of L and divisors that are
    products of (L^i - 1) factors are allowed) or integer ones; an unknown
    symbol is reported with `where` after it.  One target serves one
    expression, and `spent` counts the pairs of terms its products form."""

    def __init__(self, names: Tuple[str, ...], classes: bool, where: str):
        self.names, self.classes, self.where = names, classes, where
        self.unit = (0,) * (len(names) + classes)
        self.spent = 0

    def charge(self, pairs: int) -> None:
        self.spent += pairs
        if self.spent > MAX_TERMS:
            raise ParseError(f"expression multiplies more than {MAX_TERMS} pairs of terms")

    def product(self, a: Frac, b: Frac) -> Frac:
        """a * b, charged first: numerators multiply, denominators join.  A left
        factor with a denominator is reduced first: left to the end, the
        cancelling in a long product or power costs far more than its terms."""
        a = _reduced(a) if any(a) else a
        sizes = [sum(len(num) + len(den) for den, num in f.items()) for f in (a, b)]
        self.charge(sizes[0] * sizes[1])
        out: Frac = {}
        for da, pa in a.items():
            for db, pb in b.items():
                _merge(out, tuple(sorted(da + db)) if da and db else da or db,
                       poly_mul(pa, pb))
        return out


def _evaluate(node, target: _Target) -> Frac:
    """The sum of fractions that a parsed expression denotes in target."""
    kind, unit, classes = node[0], target.unit, target.classes
    if kind == "num":
        return {(): {unit: node[1]}} if node[1] else {}
    if kind == "pow" and node[2] < 0 and not (classes and node[1] == ("var", "L")):
        raise ParseError("negative powers are only allowed for L" if classes
                         else "negative powers are not allowed in polynomials")
    if kind == "var" or kind == "pow" and node[1][0] == "var":  # v or v^e: one monomial
        name, e = (node[1], 1) if kind == "var" else (node[1][1], node[2])
        names = target.names + ("L",) * classes  # the layout of a monomial
        if name not in names:
            raise ParseError(f"unknown {'symbol' if classes else 'variable'} "
                             f"{name!r} {target.where}")
        v = names.index(name)
        return {(): {unit[:v] + (e,) + unit[v + 1:]: 1}}
    if kind == "neg":
        return {den: {m: -c for m, c in num.items()}
                for den, num in _evaluate(node[1], target).items()}
    if kind == "add":
        out: Frac = {}
        for sign, child in node[1]:
            for den, num in _evaluate(child, target).items():
                _merge(out, den, num, sign)
        return out
    if kind == "mul":
        if not classes and any(op == "/" for op, _ in node[1]):
            raise ParseError("division is not allowed in polynomials")
        out = _evaluate(node[1][0][1], target)  # the first factor is no divisor
        for op, child in node[1][1:]:
            if op == "*":
                out = target.product(out, _evaluate(child, target))
                continue
            # the divisor must be a product of factors L^i - 1, i >= 1
            den, todo = [], [child]
            while todo:
                f = todo.pop()
                if f[0] == "mul" and all(op == "*" for op, _ in f[1]):
                    todo += [g for _, g in f[1]]
                    continue
                if f[0] == "add" and len(f[1]) == 2 and f[1][1] == (-1, ("num", 1)):
                    power = f[1][0][1]
                    if power == ("var", "L"):
                        power = ("pow", ("var", "L"), 1)
                    if power[:2] == ("pow", ("var", "L")) and power[2] >= 1:
                        den.append(power[2])
                        continue
                raise ParseError("denominators must be products of (L^i-1) factors")
            target.charge(sum(len(n) + len(d) for d, n in out.items()) * (1 + len(den)))
            out = {tuple(sorted(d + tuple(den))): num for d, num in out.items()}
        return out
    base, e = node[1], node[2]  # kind == "pow", of anything but a variable
    value, out = _evaluate(base, target), {(): {unit: 1}}
    target.charge(e * (max((abs(c).bit_length() for num in value.values()
                            for c in num.values()), default=1) - 1))
    for bit in bin(e)[2:]:  # by squaring, from the top bit down
        out = target.product(out, out)
        if bit == "1":
            out = target.product(out, value)
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
        _merge(out, c.den, {m + (e,): k for e, k in c.num.terms.items()})
    return out


def parse_motclass(text: str) -> MotClass:
    value = _evaluate(parse_expr(text), _Target((), True, "in ring expression"))
    return _classes(value).get(()) or MotClass.zero()


def parse_series_num(text: str) -> Dict[int, MotClass]:
    """A polynomial in T with class coefficients, as {exponent: class}."""
    value = _evaluate(parse_expr(text), _Target(("T",), True, "in series expression"))
    return {m[0]: c for m, c in _classes(value).items()}


def parse_int_poly(text: str, names: Sequence[str]) -> Dict[Tuple[int, ...], int]:
    return eval_int_poly(parse_expr(text), names)


def eval_int_poly(node, names: Sequence[str]) -> Dict[Tuple[int, ...], int]:
    """The integer polynomial in names that a parsed expression denotes."""
    names = tuple(names)
    return _evaluate(node, _Target(names, False, f"(declared: {', '.join(names)})")).get((), {})


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


def _laurent_terms(p: LaurentPoly, var: str) -> List[Tuple[int, str]]:
    return [(p.terms[e], _power(var, e)) for e in sorted(p.terms, reverse=True)]


def format_laurent(p: LaurentPoly, var: str = "L") -> str:
    return format_sum(_laurent_terms(p, var))


def format_motclass(a: MotClass) -> str:
    return format_fraction(_laurent_terms(a.num, "L"),
                           [f"({_power('L', i)}-1)" for i in a.den])


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
