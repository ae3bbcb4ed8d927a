"""Text syntax for ring elements, series and polynomials.

MotClass literals are integer-coefficient expressions over `L`, `^`, `*`,
`+`, `-`, parenthesized, with denominator factors written `/(L^i-1)`
(repeatable).  Serialization round-trips exactly.
"""
from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from .errors import ParseError
from .grring import HodgeRational, LaurentPoly, MotClass

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")

# Nesting deeper than this is a parse error.  The bound keeps the recursive
# parser and the recursive walks over the parsed trees far from Python's
# recursion limit.
MAX_DEPTH = 100


def tokenize(text: str) -> List[Tuple[str, int]]:
    """Token stream as (token, position) pairs; raises ParseError on junk."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at column {pos + 1}")
        tok = m.group(1)
        tokens.append(("^" if tok == "**" else tok, m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser producing a small tuple AST."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def descend(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels "
                             f"at column {pos + 1}")

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str):
        got, pos = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r} at column {pos + 1}, got {got!r}")

    def parse(self):
        node = self.expr()
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError(f"trailing input {tok!r} at column {pos + 1}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op, _ = self.next()
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() not in ("-", "+"):
            return self.power()
        op, pos = self.next()
        self.descend(pos)
        node = self.unary()
        self.depth -= 1
        return ("neg", node) if op == "-" else node

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            # exponent: optionally signed integer literal
            sign = 1
            if self.peek() == "-":
                self.next()
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
            self.expect(")")
            self.depth -= 1
            return node
        if tok.isdigit():
            return ("num", int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
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


# -- denominator-factor pattern matching -----------------------------------

def _match_binom_factor(node) -> List[int]:
    """Match an AST against a product of (L^i - 1) factors; return the i's.

    Raises ParseError when the divisor is not of the allowed shape.
    """
    if node[0] == "mul":
        return _match_binom_factor(node[1]) + _match_binom_factor(node[2])
    if node[0] == "sub" and node[2] == ("num", 1):
        lhs = node[1]
        if lhs == ("var", "L"):
            return [1]
        if lhs[0] == "pow" and lhs[1] == ("var", "L") and isinstance(lhs[2], int) and lhs[2] >= 1:
            return [lhs[2]]
    raise ParseError("denominators must be products of (L^i-1) factors")


# -- MotClass evaluation ----------------------------------------------------

def _eval_motclass(node) -> MotClass:
    kind = node[0]
    if kind == "num":
        return MotClass.const(node[1])
    if kind == "var":
        if node[1] == "L":
            return MotClass.L()
        raise ParseError(f"unknown symbol {node[1]!r} in ring expression")
    if kind == "neg":
        return -_eval_motclass(node[1])
    if kind == "add":
        return _eval_motclass(node[1]) + _eval_motclass(node[2])
    if kind == "sub":
        return _eval_motclass(node[1]) - _eval_motclass(node[2])
    if kind == "mul":
        return _eval_motclass(node[1]) * _eval_motclass(node[2])
    if kind == "pow":
        e = node[2]
        if node[1] == ("var", "L"):
            return MotClass(LaurentPoly.L(e))
        if e < 0:
            raise ParseError("negative powers are only allowed for L")
        return _eval_motclass(node[1]) ** e
    if kind == "div":
        num = _eval_motclass(node[1])
        factors = _match_binom_factor(node[2])
        return num * MotClass(LaurentPoly.const(1), factors)
    raise ParseError(f"bad expression node {kind!r}")


def parse_motclass(text: str) -> MotClass:
    return _eval_motclass(parse_expr(text))


# -- series numerators: polynomials in T with MotClass coefficients ---------

def _eval_tpoly(node) -> Dict[int, MotClass]:
    kind = node[0]
    if kind == "num":
        return {0: MotClass.const(node[1])}
    if kind == "var":
        if node[1] == "L":
            return {0: MotClass.L()}
        if node[1] == "T":
            return {1: MotClass.one()}
        raise ParseError(f"unknown symbol {node[1]!r} in series expression")
    if kind == "neg":
        return {e: -c for e, c in _eval_tpoly(node[1]).items()}
    if kind in ("add", "sub"):
        a = _eval_tpoly(node[1])
        b = _eval_tpoly(node[2])
        out = dict(a)
        for e, c in b.items():
            cur = out.get(e, MotClass.zero())
            out[e] = cur + c if kind == "add" else cur - c
        return {e: c for e, c in out.items() if not c.is_zero}
    if kind == "mul":
        a = _eval_tpoly(node[1])
        b = _eval_tpoly(node[2])
        out: Dict[int, MotClass] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, MotClass.zero()) + c1 * c2
        return {e: c for e, c in out.items() if not c.is_zero}
    if kind == "pow":
        e = node[2]
        if node[1] == ("var", "L"):
            return {0: MotClass(LaurentPoly.L(e))}
        if e < 0:
            raise ParseError("negative powers are only allowed for L")
        base = _eval_tpoly(node[1])
        out: Dict[int, MotClass] = {0: MotClass.one()}
        for _ in range(e):
            nxt: Dict[int, MotClass] = {}
            for e1, c1 in out.items():
                for e2, c2 in base.items():
                    k = e1 + e2
                    nxt[k] = nxt.get(k, MotClass.zero()) + c1 * c2
            out = {k: c for k, c in nxt.items() if not c.is_zero}
        return out
    if kind == "div":
        num = _eval_tpoly(node[1])
        factors = _match_binom_factor(node[2])
        scale = MotClass(LaurentPoly.const(1), factors)
        return {e: c * scale for e, c in num.items()}
    raise ParseError(f"bad expression node {kind!r}")


def parse_series_num(text: str) -> Dict[int, MotClass]:
    return _eval_tpoly(parse_expr(text))


# -- integer polynomials in named variables ---------------------------------

def _eval_int_poly(node, names: Sequence[str]) -> Dict[Tuple[int, ...], int]:
    n = len(names)
    kind = node[0]
    if kind == "num":
        return {(0,) * n: node[1]} if node[1] else {}
    if kind == "var":
        if node[1] not in names:
            raise ParseError(f"unknown variable {node[1]!r} (declared: {', '.join(names)})")
        mono = [0] * n
        mono[list(names).index(node[1])] = 1
        return {tuple(mono): 1}
    if kind == "neg":
        return {m: -c for m, c in _eval_int_poly(node[1], names).items()}
    if kind in ("add", "sub"):
        a = _eval_int_poly(node[1], names)
        b = _eval_int_poly(node[2], names)
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + (c if kind == "add" else -c)
        return {m: c for m, c in out.items() if c}
    if kind == "mul":
        a = _eval_int_poly(node[1], names)
        b = _eval_int_poly(node[2], names)
        out: Dict[Tuple[int, ...], int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}
    if kind == "pow":
        if node[2] < 0:
            raise ParseError("negative powers are not allowed in polynomials")
        out = {(0,) * n: 1}
        base = _eval_int_poly(node[1], names)
        for _ in range(node[2]):
            nxt: Dict[Tuple[int, ...], int] = {}
            for m1, c1 in out.items():
                for m2, c2 in base.items():
                    m = tuple(x + y for x, y in zip(m1, m2))
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            out = {m: c for m, c in nxt.items() if c}
        return out
    if kind == "div":
        raise ParseError("division is not allowed in polynomials")
    raise ParseError(f"bad expression node {kind!r}")


def parse_int_poly(text: str, names: Sequence[str]) -> Dict[Tuple[int, ...], int]:
    return _eval_int_poly(parse_expr(text), names)


# -- formatting -------------------------------------------------------------

def format_laurent(p: LaurentPoly, var: str = "L") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        if e == 0:
            mono = str(abs(c))
        else:
            head = var if e == 1 else f"{var}^{e}"
            mono = head if abs(c) == 1 else f"{abs(c)}*{head}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


def format_motclass(a: MotClass) -> str:
    num = format_laurent(a.num)
    if not a.den:
        return num
    if len(a.num.terms) > 1:
        num = f"({num})"
    tail = "".join(f"/(L^{i}-1)" if i != 1 else "/(L-1)" for i in a.den)
    return num + tail


def format_int_poly(p: Dict[Tuple[int, ...], int], names: Sequence[str]) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, reverse=True):
        c = p[mono]
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_hodge(h: HodgeRational) -> str:
    if h.is_zero:
        return "0"
    parts = []
    for (p, q) in sorted(h.num, reverse=True):
        c = h.num[(p, q)]
        factors = []
        if p == q and p != 0:
            factors.append("u*v" if p == 1 else f"(u*v)^{p}")
        else:
            if p == 1:
                factors.append("u")
            elif p != 0:
                factors.append(f"u^{p}")
            if q == 1:
                factors.append("v")
            elif q != 0:
                factors.append(f"v^{q}")
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    num = " ".join(parts)
    if not h.den:
        return num
    if len(h.num) > 1:
        num = f"({num})"
    tail = "".join(f"/((u*v)^{i}-1)" if i != 1 else "/(u*v-1)" for i in h.den)
    return num + tail
