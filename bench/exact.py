"""Exact integer Laurent polynomials and rational expressions for the oracles.

This module shares no code with ``motivic``: it re-reads what the CLI prints
(class literals, Hodge values, generating functions) and decides equality by
cross-multiplication, so a formatter or parser bug in the program cannot hide
behind the same bug in the check.

A polynomial is a dict ``{exponent tuple: int}`` over a fixed variable list;
exponents may be negative.  A rational expression is a ``(num, den)`` pair.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Poly = Dict[Tuple[int, ...], int]
Rat = Tuple[Poly, Poly]

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|[-+*/^()])")


def const(c: int, nvars: int) -> Poly:
    return {(0,) * nvars: c} if c else {}


def mono(expo: Sequence[int], c: int = 1) -> Poly:
    return {tuple(expo): c} if c else {}


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def neg(a: Poly) -> Poly:
    return {e: -c for e, c in a.items()}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(a: Poly, n: int, nvars: int) -> Poly:
    out = const(1, nvars)
    for _ in range(n):
        out = mul(out, a)
    return out


def rat_add(a: Rat, b: Rat) -> Rat:
    return add(mul(a[0], b[1]), mul(b[0], a[1])), mul(a[1], b[1])


def rat_mul(a: Rat, b: Rat) -> Rat:
    return mul(a[0], b[0]), mul(a[1], b[1])


def rat_eq(a: Rat, b: Rat) -> bool:
    if a[1] == b[1]:
        return a[0] == b[0]
    return mul(a[0], b[1]) == mul(b[0], a[1])


def parse(text: str, names: Sequence[str]) -> Rat:
    """Read an integer expression over ``names`` with + - * / ^ and parens."""
    tokens: List[str] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unreadable output {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    nv = len(names)
    one = const(1, nv)
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    def take():
        nonlocal i
        if i >= len(tokens):
            raise ValueError(f"truncated output {text!r}")
        i += 1
        return tokens[i - 1]

    def expr() -> Rat:
        acc, den = term()
        acc = dict(acc)
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            n, d = term()
            if d == den:  # the common case: sum in place, no cross-multiplying
                for e, c in n.items():
                    acc[e] = acc.get(e, 0) + sign * c
            else:
                acc, den = rat_add((acc, den), (n if sign > 0 else neg(n), d))
                acc = dict(acc)
        return {e: c for e, c in acc.items() if c}, den

    def term() -> Rat:
        node = unary()
        while peek() in ("*", "/"):
            op = take()
            rhs = unary()
            node = rat_mul(node, rhs if op == "*" else (rhs[1], rhs[0]))
        return node

    def unary() -> Rat:
        if peek() == "-":
            take()
            n, d = unary()
            return neg(n), d
        if peek() == "+":
            take()
            return unary()
        return pw()

    def pw() -> Rat:
        base = atom()
        if peek() != "^":
            return base
        take()
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        e = int(take())
        n, d = base
        if len(n) == 1 and d == one:
            (ex, c), = n.items()
            if abs(c) == 1:  # a monomial: negative powers stay polynomial
                return {tuple(x * sign * e for x in ex): c ** e}, one
        n, d = power(n, e, nv), power(d, e, nv)
        return (n, d) if sign > 0 else (d, n)

    def atom() -> Rat:
        tok = take()
        if tok == "(":
            node = expr()
            if take() != ")":
                raise ValueError(f"unbalanced output {text!r}")
            return node
        if tok.isdigit():
            return const(int(tok), nv), one
        if tok in names:
            return mono(tuple(1 if v == tok else 0 for v in names)), one
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    node = expr()
    if i != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def fmt(p: Poly, names: Sequence[str]) -> str:
    """Write a polynomial in the syntax ``parse`` (and the program) reads."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k]
        body = "*".join(factors) if factors else str(abs(c))
        if factors and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def binom(i: int) -> Poly:
    """L^i - 1 in the single variable L."""
    return add(mono((i,)), const(-1, 1))


def value_at_one(r: Rat) -> Fraction:
    """lim_{L -> 1} of a rational function of L; ZeroDivisionError if it has
    a pole there.  Taylor coefficients at 1 come from generalised binomials,
    so negative exponents need no special case."""
    def taylor(p: Poly, k: int) -> Fraction:
        total = Fraction(0)
        for (e,), c in p.items():
            b = Fraction(1)
            for t in range(k):
                b = b * (e - t) / (t + 1)
            total += c * b
        return total

    num, den = r
    k = 0
    while taylor(den, k) == 0:
        if taylor(num, k) != 0:
            raise ZeroDivisionError("pole at L = 1")
        k += 1
    return taylor(num, k) / taylor(den, k)
