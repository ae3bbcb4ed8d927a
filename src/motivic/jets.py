"""Finite-field jet enumeration: the independent counting oracle.

A level-n jet of an affine variety over F_q is a tuple of truncated power
series (mod t^{n+1}) on which every defining polynomial vanishes.  Jets are
searched depth first: extending a solution from level s to level s+1
amounts to solving a linear system over F_q whose matrix is the Jacobian J
at the constant term x0, so dead branches are pruned early.  J(x0) is
row-reduced once per level-0 point, and each node computes only the new
coefficient t^s of f(x(t)), from the series of the monomials of f carried
along the path.

Most subtrees are counted in closed form (Newton's lemma, the key lemma of
Denef-Loeser section 4 after Greenberg).  Over a level-s jet x of one
equation f, let e = min_u ord df/dx_u(x(t)) and k* the first level in
(s, s + e] where f(x(t)) has a nonzero coefficient (infinity if none).  If
e <= s, then for n >= s and j >= 0 the level-n truncations over x of the
level-(n+j) jets number
    q^((N-1)(n-s) + max(0, min(n-s, e-j)))  if n + j < k*,  else 0:
a unit change of variables brings grad f(x(t)) to (t^e, 0, ..., 0), and
each coefficient of f(x + delta) above level s + e then fixes one
coefficient of the first new variable.  Over a point where J(x0) has full
row rank r (Hensel) the same holds with N - r for N - 1 and e = 0, under
any number of equations.  So does e = k - s when f(x(t)) has a nonzero
coefficient at a level k <= 2s + 1 and grad f(x(t)) = 0 mod t^(k-s): then
f(x + delta) = f(x) mod t^(k+1), so x has every extension below level k
and none from k on.  Such jets are closed; only the open ones are expanded.

Over an open jet the search stops halfway.  Over a level-s jet x,
f(x + delta) = f(x) + J(x(t)) delta mod t^(2s+2) for every delta of order
> s, so the level-n extensions of x, for n <= 2s + 1, are the solutions of
one linear system over F_q, J(x(t)) a(t) = -f(x(t)) t^-(s+1) mod t^(n-s),
which `_Lifter.lift` solves without building a jet.  A jet of one
equation gets the record that decides its scan from its parent: a child
of a closed jet inherits it, and a child z + a t^s of an open jet z gets
it from one Taylor step of f at z, in O(N^2) (see `_Lifter`).  Counting
level-n jets searches to level n // 2, where one equation's jets are counted
off their records and built only when open at odd n; deciding whether a jet
lifts to level n searches to level n // 2 below it.  Truncation images, the
truncations of F_q[[t]]-arcs with Greenberg's gamma(n), certified on the
jet tree, and three-valued ord/angular-component conditions build on this.

An arc lies over a jet exactly when it lies over one of its children, so a
table for n = 0..n_max searches only below its open level-n_max jets and
each row reads its verdicts off the row below.  Conditions read ord and ac
of their atom polynomials off the atoms' own series, carried like the
monomials of f.  A condition decided on a jet inside a closed subtree cuts
out a cylinder, counted in closed form: no jet below it is built.
"""
from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceeded, ParseError, Unstable, ValidationError
from .parsing import (And, Not, Or, atoms, fold, parse_int_poly, read_condition,
                      split_affine)

Poly = Dict[Tuple[int, ...], int]
FrozenPoly = Tuple[Tuple[Tuple[int, ...], int], ...]  # sorted (monomial, coefficient)
Jet = Tuple[Tuple[int, ...], ...]  # N coordinate series, each of length n+1

DEFAULT_BUDGET = 10 ** 8
_BUDGET_ENV = "MOTIVIC_JETS_BUDGET"

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}


def default_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise ValidationError(f"{_BUDGET_ENV} must be a nonnegative integer, got {raw!r}")


class JetVariety:
    """Affine presentation: N ambient variables, integer polynomials, and a
    declared pure dimension d (used only for scaling sequences)."""

    __slots__ = ("N", "polys", "d", "names")

    def __init__(self, N: int, polys: Sequence[Poly], d: int,
                 names: Optional[Sequence[str]] = None):
        if N < 1:
            raise ValidationError("need at least one ambient variable")
        if d < 0 or d > N:
            raise ValidationError(f"declared dimension {d} outside [0, {N}]")
        self.N = N
        self.polys = [dict(p) for p in polys]
        for p in self.polys:
            for mono in p:
                if len(mono) != N or any(e < 0 for e in mono):
                    raise ValidationError(f"bad monomial {mono} for {N} variables")
        self.d = d
        self.names = tuple(names) if names is not None else tuple(
            f"x{v}" for v in range(N))
        if len(self.names) != N:
            raise ValidationError("variable-name list length differs from N")


@dataclass(frozen=True)
class JetPoint:
    q: int
    n: int
    coords: Jet


def _check_q(q: int) -> None:
    if q not in _SMALL_PRIMES:
        raise ValidationError(f"q must be a prime <= 97, got {q}")


def _poly_derivative(p: Poly, v: int, k: int = 1) -> Poly:
    """The k-th Hasse derivative in x_v: x_v^m goes to C(m, k) x_v^(m-k).
    For k = 2 it need not vanish mod 2 where d^2/dx_v^2 does."""
    out: Poly = {}
    for mono, c in p.items():
        if mono[v] >= k:
            m = list(mono)
            m[v] -= k
            key = tuple(m)
            out[key] = out.get(key, 0) + c * math.comb(mono[v], k)
    return {m: c for m, c in out.items() if c}


def _poly_eval_point(p: Poly, point: Sequence[int], q: int) -> int:
    total = 0
    for mono, c in p.items():
        term = c
        for x, e in zip(point, mono):
            if e:
                term = term * pow(x, e, q)
        total += term
    return total % q


def _ser_mul(a: Sequence[int], b: Sequence[int], order: int, q: int) -> List[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj:
                out[i + j] = (out[i + j] + ai * bj) % q
    return out


def _poly_eval_series(p: Poly, jet: Jet, order: int, q: int) -> List[int]:
    """f(x(t)) mod t^{order+1}, each coordinate series zero-padded."""
    coords = [list(c[: order + 1]) + [0] * max(0, order + 1 - len(c)) for c in jet]
    out = [0] * (order + 1)
    for mono, c in p.items():
        term = [c % q] + [0] * order
        for v, e in enumerate(mono):
            for _ in range(e):
                term = _ser_mul(term, coords[v], order, q)
        for i in range(order + 1):
            out[i] = (out[i] + term[i]) % q
    return out


def _first_nonzero(coeffs: Iterable[int]) -> Tuple[Optional[int], Optional[int]]:
    """(ord, ac) of a series from its coefficients; (None, None) if all vanish."""
    for i, c in enumerate(coeffs):
        if c:
            return i, c
    return None, None


class _Base:
    """J(x0) row-reduced once for one level-0 point x0.

    Gauss-Jordan on [J | I] gives the transform E with E J = RREF(J); each
    node over x0 then solves J a = b by one product E b, in the pivot order
    that reducing [J | b] would take.  `jac0` is J(x0), its entries reduced
    mod q, and `grads` holds the gradient at x0 of each carried series.
    Where one equation f has J(x0) = 0, `second` holds the Hessian H of f
    at x0 and the Hasse second derivatives D_u f(x0): the quadratic part
    of f(x0 + a) is Q(a) = sum_u D_u a_u^2 + sum_{u<v} H_uv a_u a_v.
    """

    __slots__ = ("q", "n_vars", "jac0", "pivot_rows", "check_rows", "pivots",
                 "basis", "free", "smooth", "grads", "second", "_kernel", "_taylor")

    def __init__(self, rows: List[List[int]], n_vars: int, q: int,
                 grads: List[List[int]],
                 second: Optional[Tuple[List[List[int]], List[int]]] = None):
        aug = [[x % q for x in row] + [int(i == k) for k in range(len(rows))]
               for i, row in enumerate(rows)]
        pivots: List[int] = []
        r = 0
        for col in range(n_vars):
            piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = pow(aug[r][col], q - 2, q)
            aug[r] = [(x * inv) % q for x in aug[r]]
            for i in range(len(aug)):
                if i != r and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [(x - f * y) % q for x, y in zip(aug[i], aug[r])]
            pivots.append(col)
            r += 1
        transform = [row[n_vars:] for row in aug]
        self.jac0 = rows
        self.q = q
        self.n_vars = n_vars
        self.pivot_rows = transform[:r]
        self.check_rows = transform[r:]
        self.pivots = pivots
        self.basis = []
        for fc in (c for c in range(n_vars) if c not in pivots):
            vec = [0] * n_vars
            vec[fc] = 1
            for i, col in enumerate(pivots):
                vec[col] = (-aug[i][fc]) % q
            self.basis.append(vec)
        self.free = len(self.basis)
        # Hensel: with J(x0) of full row rank every jet over x0 lifts, with
        # q^free children at every level
        self.smooth = r == len(rows)
        self.grads = grads
        self.second = second
        self._kernel: Optional[List[List[int]]] = None
        self._taylor: Optional[List[Tuple[int, List[int]]]] = None

    def consistent(self, rhs: List[int]) -> bool:
        return not any(sum(map(mul, row, rhs)) % self.q for row in self.check_rows)

    def particular(self, rhs: List[int]) -> List[int]:
        """The solution of J(x0) a = rhs that is zero off the pivots."""
        out = [0] * self.n_vars
        for col, row in zip(self.pivots, self.pivot_rows):
            out[col] = sum(map(mul, row, rhs)) % self.q
        return out

    def kernel(self) -> List[List[int]]:
        """All q^free vectors k of ker J(x0), ordered by their coordinates in
        the nullspace basis, each followed by the products grad . k."""
        q = self.q
        if self._kernel is None:
            self._kernel = []
            for combo in itertools.product(range(q), repeat=self.free):
                vec = [0] * self.n_vars
                for coef, bvec in zip(combo, self.basis):
                    if coef:
                        vec = [(x + coef * y) % q for x, y in zip(vec, bvec)]
                self._kernel.append(vec + [sum(map(mul, g, vec)) for g in self.grads])
        return self._kernel

    def taylor(self) -> List[Tuple[int, List[int]]]:
        """(Q(a), H a) mod q for each vector a of `kernel`, in its order;
        only over a point with `second`, where the kernel is all of F_q^N."""
        q, n = self.q, self.n_vars
        if self._taylor is None:
            hess, hasse = self.second
            self._taylor = []
            for vec in self.kernel():
                a = vec[:n]
                quad = sum(a[u] * (hasse[u] * a[u] + sum(map(mul, hess[u][u + 1:], a[u + 1:])))
                           for u in range(n))
                self._taylor.append((quad % q, [sum(map(mul, row, a)) % q for row in hess]))
        return self._taylor


def _solve_toeplitz(jac: List[List[List[int]]], fs: List[List[int]], n_vars: int,
                    width: int, q: int) -> Tuple[int, int]:
    """(w, e) for the system sum_k J_{d-k} a_k = f_d, d < width, with
    jac[i][u][d] the entry (i, u) of J_d: the largest w <= width for which
    its first w block rows have a solution (a_0, ..., a_{w-1}), and log_q
    of the number of those.  The block rows are row-reduced in turn."""
    # (column, row, rhs), each row zero at the columns of those before it
    pivots: List[Tuple[int, List[int], int]] = []
    for d in range(width):
        rank = len(pivots)
        for jp, f in zip(jac, fs):
            row = [jp[u][d - k] for k in range(d + 1) for u in range(n_vars)]
            b = f[d]
            for col, prow, pb in pivots:
                c = row[col]
                if c:
                    row = [(x - c * y) % q for x, y in zip(row, prow)] + row[len(prow):]
                    b = (b - c * pb) % q
            col = next((i for i, x in enumerate(row) if x), None)
            if col is None:
                if b:
                    return d, n_vars * d - rank
                continue
            inv = pow(row[col], q - 2, q)
            pivots.append((col, [x * inv % q for x in row], b * inv % q))
    return width, n_vars * width - len(pivots)


# A level-s node's record (g, k, lo), read for one equation f at a singular
# point: ord grad f(x(t)) where it is known to be <= s, k* where it is known,
# and the first level at which f(x(t)) may be nonzero (see `_Lifter`).
Record = Tuple[Optional[int], Optional[int], int]
_ROOT: Record = (None, None, 2)  # open; see `_Lifter`
# A node of the jet tree: its N coordinate series followed by the series of
# the carried monomials, the reduction at its level-0 point, and its record.
Node = Tuple[Tuple[Tuple[int, ...], ...], _Base, Record]
# A closed node's (s, e, k*): its level, the exponent e and the first level
# k* it does not extend to (math.inf if none); see `_Lifter.closed`.
Closed = Tuple[int, int, float]
_UNSCANNED = object()  # a node's `_scan` answer, not yet asked


class _Lifter:
    """Level-by-level jet extension for one variety over one prime field.

    Extending a node of length s means solving J(x0) a = -[f(x(t))]_s, where
    the coefficient t^s is taken with a_s = 0.  Each nonlinear monomial of f
    is a coordinate times a shorter monomial, so its new coefficient costs
    O(s) from the series of the shorter one; the monomials that a longer one
    extends are carried along the path as series, and a child adds
    grad m(x0) . a to their new coefficient.  `lift` counts the extensions
    of a node of length s + 1 to any level up to 2s + 1 with one solve, and
    `closed` tells whether the whole subtree has a closed count.
    One lifter serves one whole computation, so its budget caps all of it:
    one unit per node, which `closed`, `children`, `lift` and `count` share.
    Each of `atoms`, the polynomials a condition reads ord and ac of, is
    carried the same way as one more series, a child adding grad f(x0) . a
    to the part its nonlinear monomials give, so `ord_ac` reads it off a node.

    For one equation f at a singular point, `closed` and `lift` read the
    scan of grad f(x(t)) and f(x(t)) off the node's record (g, k, lo), which
    `_records` builds once per parent from the parent's answer.  A root is
    open: J(x0) = 0, and [f]_1 = 0 on a constant jet.  A child y of a
    closed level-s node x (s, e, k*) inherits.  With finite k*,
    f(y) = f(x) mod t^(k*+1) and grad f(y) = 0 mod t^(k*-s), so a level-s'
    descendant is (s', k* - s', k*).  With k* = inf, e <= s, so grad f(y) =
    grad f(x) mod t^(s+1) keeps the order e, and f(y) = f(x) mod t^(s+e+1):
    y reads only [f(y)]_(s+1+e).
    A child y = z + a t^s of an open level-(s-1) node z gets its record
    from one Taylor step: grad f(z(t)) = 0 mod t^s and f(z(t)) = 0 mod
    t^(2s), so
        f(y) = f(z) + t^s grad f(z) . a + t^(2s) Q(a)  mod t^(3s),
        grad f(y) = grad f(z) + t^s H(x0) a  mod t^(2s),
    with H the Hessian and Q the quadratic part of f(x0 + a), the scan of y
    finds nothing below [f(y)]_2s and [grad f(y)]_s, and these are
        [f(y)]_2s = [f(z)]_2s + [grad f(z)]_s . a + Q(a),
        [grad f(y)]_s = [grad f(z)]_s + H(x0) a.
    Where the first is nonzero, y has e = s and k* = 2s; else, where the
    second is, e = s and k* = inf; else y reads only [f(y)]_(2s+1) off its
    series, and is open where it vanishes.  A child answered from its
    record is charged its unit when it is asked, or counted by `count`.
    """

    def __init__(self, X: JetVariety, q: int, budget: Optional[int] = None,
                 atoms: Sequence[FrozenPoly] = ()):
        _check_q(q)
        self.X = X
        self.q = q
        self.budget = default_budget() if budget is None else budget
        self.expansions = 0
        self.polys = [{m: c % q for m, c in p.items() if c % q} for p in X.polys]
        self.polys = [p for p in self.polys if p]
        self.degree = max((sum(m) for p in self.polys for m in p), default=1)
        self.jacobian = [[_poly_derivative(p, v) for v in range(X.N)]
                         for p in self.polys]
        # one equation: its Hessian and Hasse second derivatives, which
        # `level0` evaluates where J(x0) = 0
        self.second = None
        if len(self.polys) == 1:
            self.second = ([[_poly_derivative(d, v) for v in range(X.N)]
                            for d in self.jacobian[0]],
                           [_poly_derivative(self.polys[0], u, 2) for u in range(X.N)])
        # chain[k] = (m, v, ref): monomial m of degree >= 2 is x_v times the
        # coordinate ref < N or the monomial chain[ref - N]; in _residual the
        # coefficient t^s of coordinate v sits at top[v], of chain[k] at
        # top[N + k]
        chain: List[Tuple[Tuple[int, ...], int, int]] = []
        index = {tuple(int(u == v) for u in range(X.N)): v for v in range(X.N)}

        def carry(mono: Tuple[int, ...]) -> int:
            # a loop, not a recursion, for monomials of any degree
            path = []
            while mono not in index:
                v = next(v for v, e in enumerate(mono) if e)
                path.append((mono, v))
                mono = mono[:v] + (mono[v] - 1,) + mono[v + 1:]
            for longer, v in reversed(path):
                chain.append((longer, v, index[mono]))
                index[longer] = X.N + len(chain) - 1
                mono = longer
            return index[mono]

        # constant and linear terms add nothing at t^s once a_s = 0
        self.terms = [[(c, carry(m)) for m, c in p.items() if sum(m) > 1]
                      for p in self.polys]
        # d f_i / d x_u, as (coefficient, index) over the same monomials:
        # `lift` reads J(x(t)) below the level of a node off its series
        derivs = [[[(c * m[u] % q, carry(m[:u] + (m[u] - 1,) + m[u + 1:]))
                    for m, c in p.items() if sum(m) > 1 and c * m[u] % q]
                   for u in range(X.N)] for p in self.polys]
        if any(len(m) != X.N for f in atoms for m, _ in f):
            raise ValidationError(f"condition monomials need {X.N} exponents")
        # an atom's coefficient t^s, like that of a chain monomial, is the
        # one with a_s = 0 (these terms at top) plus grad f(x0) . a
        atoms = list(atoms)
        self.atom_terms = [[(c, carry(m)) for m, c in f if sum(m) > 1] for f in atoms]
        # a node carries, after its N coordinates, the whole series of the
        # monomials that a longer one extends and of those in a derivative,
        # then the series of each atom
        monos = sorted({ref for _, _, ref in chain if ref >= X.N} |
                       {k for row in derivs for col in row for _, k in col if k >= X.N})
        where = {ref: X.N + j for j, ref in enumerate(monos)}
        where.update({v: v for v in range(X.N)})
        self.steps = [(v, ref, where[ref]) for _, v, ref in chain]
        # `children` puts the atoms' coefficients at top after the chain's
        self.carried = monos + [X.N + len(chain) + i for i in range(len(atoms))]
        self.atoms = {f: X.N + len(monos) + i for i, f in enumerate(atoms)}
        self.carried_polys = [{chain[ref - X.N][0]: 1} for ref in monos] + list(map(dict, atoms))
        self.carried_grads = [[_poly_derivative(p, v) for v in range(X.N)]
                              for p in self.carried_polys]
        self.derivs = [[[(c, where[k]) for c, k in col] for col in row]
                       for row in derivs]
        # grad f over the chain's coefficients t^s, for `children`'s records
        self.top_derivs = derivs[0] if len(self.polys) == 1 else None
        # the node last charged, and its `_residual` and `_f_coeffs` once
        # computed
        self._node: Optional[Node] = None
        self._state: Optional[Tuple[List[int], List[int]]] = None
        self._high: Optional[List[Optional[List[int]]]] = None

    def _charge(self, level: Optional[int] = None, units: int = 1) -> None:
        """One unit for each of units nodes at level (None: level-0 points), up to budget + 1."""
        self.expansions = min(self.expansions + units, self.budget + 1)
        if self.expansions > self.budget:
            at = "scanning level-0 points" if level is None else f"expanding a level-{level} jet"
            raise BudgetExceeded(
                f"jet enumeration exceeded the budget of {self.budget} node expansions:"
                f" all {self.budget} units used, stopped while {at}")

    def _enter(self, node: Node) -> None:
        """Charge node its one budget unit, unless it was the last one charged."""
        if node is not self._node:
            self._charge(len(node[0][0]) - 1)
            self._node, self._state, self._high = node, None, None

    def level0(self) -> List[Node]:
        q = self.q
        out = []
        for point in itertools.product(range(q), repeat=self.X.N):
            self._charge()
            if all(_poly_eval_point(p, point, q) == 0 for p in self.polys):
                rows = [[_poly_eval_point(dp, point, q) for dp in row]
                        for row in self.jacobian]
                grads = [[_poly_eval_point(dp, point, q) for dp in row]
                         for row in self.carried_grads]
                second = None
                if self.second is not None and not any(rows[0]):
                    hess, hasse = self.second
                    second = ([[_poly_eval_point(p, point, q) for p in row] for row in hess],
                              [_poly_eval_point(p, point, q) for p in hasse])
                out.append((tuple((x,) for x in point) +
                            tuple((_poly_eval_point(p, point, q),)
                                  for p in self.carried_polys),
                            _Base(rows, self.X.N, q, grads, second), _ROOT))
        return out

    def _residual(self, node: Node) -> Tuple[List[int], List[int]]:
        """One expansion of a node of length s: the right-hand side -[f]_s
        of J(x0) a = -[f]_s and the coefficients t^s of the coordinates and
        of the monomials in the chain, all taken with a_s = 0.  It costs the
        node's one budget unit; asked again for the node it last expanded,
        it answers from memory."""
        self._enter(node)
        if self._state is None:
            q = self.q
            series = node[0]
            top = [0] * self.X.N
            for v, ref, at in self.steps:
                x = series[v]
                top.append((x[0] * top[ref]
                            + sum(map(mul, x[1:], series[at][:0:-1]))) % q)
            rhs = [-sum(c * top[k] for c, k in terms) % q for terms in self.terms]
            self._state = rhs, top
        return self._state

    def closed(self, node: Node) -> Optional[Closed]:
        """(s, e, k*) if the subtree over the level-s node has a closed
        count (see `closed_dim`), else None.

        Over a point where J(x0) has full row rank it is (s, 0, inf), under
        any number of equations and at no cost.  Otherwise it answers only
        for one equation f: scanning d = 0, 1, ..., s, it is (s, d, inf) at
        the first d where grad f(x(t)) has a nonzero coefficient t^d, and
        (s, d + 1, s + 1 + d) at the first where f(x(t)) has a nonzero
        coefficient t^(s+1+d), whichever comes first.  In the first case
        e = d <= s and the coefficients of f(x(t)) on (s, s + e] vanish, so
        k* = inf; in the second, only k* matters.  A node with neither is
        open: grad f(x(t)) = 0 mod t^(s+1) and f(x(t)) = 0 mod t^(2s+2).
        `_scan` reads this off the node's record.
        """
        s = len(node[0][0]) - 1
        if node[1].smooth:
            return s, 0, math.inf
        if len(self.polys) != 1:
            return None
        found = self._scan(node)
        return None if found is None else (s,) + found

    def closed_dim(self, info: Closed, n: int, j: int) -> Optional[int]:
        """log_q of the number of level-n truncations of the level-(n+j)
        jets over a closed node (s, e, k*), n >= s, or None if there are
        none.  This is Newton's lemma; with r equations,
            (N - r)(n - s) + max(0, min(n - s, e - j))  if n + j < k*."""
        s, e, k = info
        if n + j >= k:
            return None
        return (self.X.N - len(self.polys)) * (n - s) + max(0, min(n - s, e - j))

    def closed_count(self, info: Closed, n: int, j: int) -> int:
        """The number that `closed_dim` gives log_q of."""
        dim = self.closed_dim(info, n, j)
        return 0 if dim is None else self.q ** dim

    def _scan(self, node: Node, last: Optional[int] = None) -> Optional[Tuple[int, float]]:
        """(e, k*) of a one-equation node at a singular point, read off its
        record (g, k, lo) (see `_Lifter`); None if the node is open.  Where
        k is unknown, the first level l in [lo, top] at which f(x(t)) is
        nonzero gives (l - s, l), with top = s + g, or 2s + 1 if g is
        unknown; if there is none, the node is (g, inf), or open.  No level
        above last is read, and None also means that the answer lies above."""
        self._enter(node)
        s = len(node[0][0]) - 1
        g, k, lo = node[2]
        if k is None:
            top = 2 * s + 1 if g is None else s + g
            end = top if last is None else min(top, last)
            k = next((l for l in range(lo, end + 1) if self._f_coeffs(node, l - s - 1)[0]),
                     None)
            if k is None:
                return (g, math.inf) if g is not None and end == top else None
        return k - s, k

    def lift(self, node: Node, n: int) -> Tuple[int, int]:
        """(m, dim) for a level-s node and n <= 2s + 1 (any n if the node is
        closed): the deepest level m <= n that node extends to, and log_q of
        the number of its level-m extensions; no jet is built.

        For ord delta > s, f(x + delta) = f(x) + J(x(t)) delta mod t^(2s+2),
        so the extensions a_{s+1}, ..., a_m are the solutions over F_q of the
        block lower-triangular Toeplitz system
            sum_{k=s+1..l} J_{l-k}(x) a_k = -[f(x)]_l,   l = s+1..m,
        i.e. of J(x(t)) a(t) = -F(t) mod t^(m-s) with a(t) = sum a_{s+1+i} t^i
        and F(t) = sum [f(x)]_{s+1+i} t^i.  Block row s+1 alone is the step
        of `children`.  For one equation the Smith form of the row J(x(t))
        over F_q[[t]] is t^e, e = min_u ord J_u(x(t)), so this is the closed
        form of `closed_dim` at j = 0, with e capped at n - s; more
        equations are row-reduced by `_solve_toeplitz`.  One budget unit per
        node.
        """
        series, base, _ = node
        length = len(series[0])
        if n < length:
            return n, 0
        s = length - 1
        if base.smooth:
            return n, self.closed_dim((s, 0, math.inf), n, 0)
        if len(self.polys) == 1:
            e, k = self._scan(node, n) or (n - s, math.inf)
            m = min(n, k - 1)
            return m, self.closed_dim((s, e, k), m, 0)
        rhs, top = self._residual(node)
        if not base.consistent(rhs):
            return s, 0
        if n == length:
            return n, base.free
        N = self.X.N
        width = n - s
        jac = [[[c] for c in row] for row in base.jac0]
        fs = [[-b % self.q] for b in rhs]
        for d in range(1, width):
            for row, coeffs in zip(jac, self._jacobian_coeffs(series, d)):
                for col, c in zip(row, coeffs):
                    col.append(c)
            for f, c in zip(fs, self._f_coeffs(node, d)):
                f.append(c)
        w, dim = _solve_toeplitz(jac, fs, N, width, self.q)
        return length - 1 + w, dim

    def _jacobian_coeffs(self, series, d: int) -> List[List[int]]:
        """Coefficient t^d of J(x(t)), for d below the length of the node,
        from the carried series of the derivative monomials."""
        q = self.q
        return [[sum(c * series[at][d] for c, at in col) % q for col in row]
                for row in self.derivs]

    def _f_coeffs(self, node: Node, d: int) -> List[int]:
        """Coefficient t^(length + d) of each f_i(x(t)) over the node, with
        the coefficients of its x from length on zero; charged as
        `_residual`.  `_high` keeps each chain monomial's coefficients
        length, length + 1, ..., its levels filled in order up to the one
        asked."""
        q, N = self.q, self.X.N
        series = node[0]
        top = self._residual(node)[1]
        if self._high is None:
            self._high = [[c] if k >= N else None for k, c in enumerate(top)]
        high = self._high
        length = len(series[0])
        while self.steps and len(high[N]) <= d:
            level = len(high[N])
            for k, (v, ref, at) in enumerate(self.steps, N):
                x = series[v]
                h = sum(map(mul, x[level + 1:], series[at][length - 1:level:-1]))
                if ref >= N:
                    h += sum(map(mul, x, high[ref][::-1]))
                high[k].append(h % q)
        return [sum(c * high[k][d] for c, k in terms) % q for terms in self.terms]

    def is_arc(self, node: Node) -> bool:
        """Whether the node's polynomial representative x is an arc: no
        f_i(x(t)), of degree <= s deg f_i, has a nonzero coefficient above
        level s.  Its top coefficient is read first, off the leading terms
        of x: f_i's monomials of greatest degree in t at the leading
        coefficients.  Charged as `_residual`."""
        s = len(node[0][0]) - 1
        lead = [max(((i, c) for i, c in enumerate(x) if c), default=(-math.inf, 0))
                for x in node[0][:self.X.N]]
        for p in self.polys:
            deg = {m: sum(e * i for e, (i, _) in zip(m, lead) if e) for m in p}
            top = {m: c for m, c in p.items() if deg[m] == max(deg.values())}
            if _poly_eval_point(top, [c for _, c in lead], self.q):
                return False
        return not any(any(self._f_coeffs(node, d)) for d in range(s * (self.degree - 1)))

    def ord_ac(self, f: FrozenPoly, series) -> Tuple[Optional[int], Optional[int]]:
        """(ord, ac) of the atom f on a node, read off its carried series."""
        return _first_nonzero(series[self.atoms[f]])

    def _records(self, node: Node, found=_UNSCANNED) -> Iterable[Record]:
        """The records of a node's children, in the order of `_Base.kernel`:
        one for all from its answer, or an open node's from a Taylor step.
        found is the node's `_scan`, if it is known."""
        series, base, record = node
        if base.second is None:  # a record is read only at a singular point of one equation
            return itertools.repeat(record)
        q, s = self.q, len(series[0])
        if found is _UNSCANNED:
            found = self._scan(node)
        if found is None:
            top = self._residual(node)[1]
            f2s = self._f_coeffs(node, s)[0]
            g = [sum(c * top[k] for c, k in col) % q for col in self.top_derivs]
            kinds = (None, 2 * s, 2 * s), (s, None, 2 * s + 1), (None, None, 2 * s + 1)
            return [kinds[0] if (f2s + sum(map(mul, g, a)) + quad) % q
                    else kinds[1] if any((x + y) % q for x, y in zip(g, ha))
                    else kinds[2]
                    for a, (quad, ha) in zip(base.kernel(), base.taylor())]
        e, k = found
        return itertools.repeat((None, k, k) if k < math.inf else (e, None, s + e))

    def children(self, node: Node, pairs: Optional[Iterable] = None,
                 found=_UNSCANNED) -> List[Node]:
        """All one-level extensions z + a t^s of a solution jet z, with their
        records (found as in `_records`); or those of the (kernel vector a,
        record) pairs given."""
        q = self.q
        series, base, _ = node
        rhs, top = self._residual(node)
        if not base.consistent(rhs):
            return []
        if pairs is None:
            pairs = zip(base.kernel(), self._records(node, found))
        particular = base.particular(rhs)
        top = top + [sum(c * top[k] for c, k in terms) for terms in self.atom_terms]
        start = particular + [top[ref] + sum(map(mul, g, particular))
                              for ref, g in zip(self.carried, base.grads)]
        return [(tuple([c + ((a + d) % q,) for c, a, d in zip(series, start, delta)]),
                 base, record)
                for delta, record in pairs]

    def count(self, node: Node, n: int) -> int:
        """The number of level-n extensions of a level-s node, n <= 2s + 3:
        `lift`'s to 2s + 1, else its children's, each charged a unit.  Those
        of one equation at a singular point are counted off their records: 0
        for k* = 2s + 2, else as (s + 1, s + 1, inf), but open ones at odd n."""
        q, s = self.q, len(node[0][0]) - 1
        if n <= 2 * s + 1:
            reach, dim = self.lift(node, n)
            return q ** dim if reach == n else 0
        if (info := self.closed(node)) is not None:
            return self.closed_count(info, n, 0)
        if node[1].second is None:
            return sum(self.count(child, n) for child in self.children(node))
        records = self._records(node, None)  # open, so consistent: [f]_(s+1) = 0
        built = [(a, r) for a, r in zip(node[1].kernel(), records) if r == (None, None, n)]
        self._charge(s + 1, len(records) - len(built))
        decided = len(records) - len(built) - records.count((None, 2 * s + 2, 2 * s + 2))
        return (decided * q ** self.closed_dim((s + 1, s + 1, math.inf), n, 0)
                + sum(self.count(child, n) for child in built and self.children(node, built)))

    def walk(self, node: Node, depth: int,
             prune: bool = True) -> Iterator[Tuple[Node, Optional[Closed]]]:
        """Depth first and in order, each node depth levels below node with
        None, and with prune each closed node above them with its `closed`
        answer; a closed node is not expanded, and the nodes at depth are
        not asked, since `lift` or `count` answers within the same unit."""
        stack = [[node]]
        while stack:
            level = stack[-1]
            if not level:
                stack.pop()
                continue
            nd = level.pop()
            if len(stack) > depth:
                yield nd, None
                continue
            if not prune:
                stack.append(self.children(nd)[::-1])
            elif (info := self.closed(nd)) is not None:
                yield nd, info
            else:  # open, so `_scan` found nothing
                stack.append(self.children(nd, found=None)[::-1])

    def descendants(self, node: Node, depth: int) -> Iterator[Node]:
        """The nodes depth levels below node, depth first and in order."""
        return (nd for nd, _ in self.walk(node, depth, prune=False))

    def can_extend(self, node: Node, n: int) -> bool:
        """Whether node extends to level n: a depth-first search over the
        open nodes to the level s = max(level of node, n // 2), where `lift`
        decides the rest; a closed node (s, e, k*) on the way decides its
        subtree at once, since it extends to level n iff n < k*."""
        depth = max(0, n // 2 - len(node[0][0]) + 1)
        for found, info in self.walk(node, depth):
            if info is not None:
                if n < info[2]:
                    return True
            elif self.lift(found, min(n, 2 * len(found[0][0]) - 1))[0] >= n:
                return True
        return False


def _is_affine_space(X: JetVariety, q: int) -> bool:
    """Every polynomial vanishes mod q, so every tuple of series is a jet."""
    return not any(c % q for p in X.polys for c in p.values())


def enumerate_jets(X: JetVariety, n: int, q: int,
                   budget: Optional[int] = None) -> int:
    """|L_n(X)(F_q)|: the number of level-n jets, `image_count` at j = 0."""
    return image_count(X, n, 0, q, budget)


def enumerate_jet_points(X: JetVariety, n: int, q: int,
                         budget: Optional[int] = None) -> Iterator[JetPoint]:
    """Stream of the level-n jets themselves."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lifter = _Lifter(X, q, budget)
    for root in lifter.level0():
        for node in lifter.descendants(root, n):
            yield JetPoint(q=q, n=n, coords=node[0][:X.N])


def image_count(X: JetVariety, n: int, j: int, q: int,
                budget: Optional[int] = None) -> int:
    """Number of distinct level-n truncations of level-(n+j) jets, closed
    jets counted in closed form.  At j = 0 `count` counts the level-n extensions
    of the open level-max(0, n // 2 - 1) jets; else each open level-n jet is searched."""
    if n < 0 or j < 0:
        raise ValueError("n and j must be nonnegative")
    _check_q(q)
    if _is_affine_space(X, q):
        return q ** (X.N * (n + 1))
    lifter = _Lifter(X, q, budget)
    return sum(lifter.closed_count(info, n, j) if info is not None
               else lifter.can_extend(node, n + j) if j else lifter.count(node, n)
               for root in lifter.level0()
               for node, info in lifter.walk(root, n if j else max(0, n // 2 - 1)))


@dataclass
class StabilizedResult:
    """Row n of a certified table: N_n, the number of level-n truncations of
    F_q[[t]]-arcs, where `stable` (see `stabilized_count`), else that count
    plus the level-n jets left unknown, an upper bound; Greenberg's gamma(n)
    where stable, else None; and `counts`: the level-n jets, and the unknown."""
    N_n: int
    stable: bool
    gamma: Optional[int]
    counts: List[int]


def _join(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """The verdict of a jet from those of two of its branches (see `_Tree`)."""
    if math.inf in (a, b):
        return math.inf
    return None if None in (a, b) else max(a, b)


class _Tree:
    """The arc certificate of every row n <= n_max, from one search.

    The open jets over the level-0 points, levels 0..n_max, are kept with
    the closed jets among their children, (node, (s, e, k*)), which are not
    expanded.  Each open jet gets a verdict, one value in `reach`:
    - math.inf, *in*: an arc lies over it, since its polynomial
      representative, or that of an open descendant, is one, or since a
      descendant is closed with k* = inf and lifts by Newton's lemma
      (Hensel's at a full-rank point);
    - its reach m, *out*: no arc does, and m is the deepest level it
      extends to, since every branch below it ends in a closed jet with
      finite k* (which reaches k* - 1) or dies inside the linear range of
      `lift`;
    - None, *unknown*: a branch is still open at level n_max + j_max.
    A jet is in when one of its children is, and out when all are; only the
    open jets at level n_max are searched, depth first, each up to its first
    descendant that is in.
    """

    def __init__(self, lifter: _Lifter, n_max: int, j_max: int):
        self.lifter, self.bottom = lifter, n_max + j_max
        self.closed: List[Tuple[Node, Closed]] = []
        self.reach: List[List[Optional[float]]] = []
        self.leaves: List[Node] = []
        parents: List[List[int]] = []
        # (index of the open parent, node); the roots have none
        level = [(None, root) for root in lifter.level0()]
        for l in range(n_max + 1):
            reach, nxt = [], []
            parents.append([])
            for parent, node in level:
                info = lifter.closed(node)
                if info is not None:
                    self.closed.append((node, info))
                    if parent is not None:
                        above[parent] = _join(above[parent], info[2] - 1)
                    continue
                parents[l].append(parent)
                if l < n_max:
                    nxt += [(len(reach), child)
                            for child in lifter.children(node, found=None)]
                    reach.append(math.inf if lifter.is_arc(node) else l)
                else:
                    self.leaves.append(node)
                    reach.append(self._search(node))
            self.reach.append(reach)
            above, level = reach, nxt
        for l in range(n_max, 0, -1):
            above = self.reach[l - 1]
            for parent, verdict in zip(parents[l], self.reach[l]):
                above[parent] = _join(above[parent], verdict)
        self.kinds = Counter(info for _, info in self.closed)

    def _search(self, leaf: Node) -> Optional[float]:
        """The verdict of an open jet, from a depth-first search below it to
        level `bottom` that stops at the first jet that is in."""
        lifter, verdict, stack = self.lifter, len(leaf[0][0]) - 1, [leaf]
        while stack:
            node = stack.pop()
            s = len(node[0][0]) - 1
            info = lifter.closed(node)
            if info is not None and info[2] < math.inf:
                verdict = _join(verdict, info[2] - 1)
                continue
            if info is not None or lifter.is_arc(node):
                return math.inf
            reach = lifter.lift(node, 2 * s + 1)[0]
            if reach <= 2 * s:
                verdict = _join(verdict, reach)
            elif s < self.bottom:
                stack += lifter.children(node, found=None)
            else:
                verdict = None
        return verdict

    def row(self, n: int) -> StabilizedResult:
        """Row n, read off the verdicts of the open level-n jets and the
        closed jets (s, e, k*) at levels s <= n.  Over a closed one, the
        level-n truncations of the level-(n+j) jets are those of arcs once
        n + j >= k* (none then) when k* is finite, and once j >= e, or
        s = n, when k* = inf; an out jet stops at level reach + 1.  So
        gamma(n) = n + max(0, k* - n, e, reach + 1 - n) over these, and the
        closed jets add their counts at depth gamma(n) - n."""
        lifter, verdicts = self.lifter, self.reach[n]
        kinds = [(info, mult) for info, mult in self.kinds.items() if info[0] <= n]
        gamma = n + max([0] + [k - n if k < math.inf else e
                               for (s, e, k), _ in kinds if k < math.inf or s < n]
                        + [m + 1 - n for m in verdicts if m is not None and m < math.inf])
        unknown = verdicts.count(None)
        arcs = sum(mult * lifter.closed_count(info, n, gamma - n) for info, mult in kinds)
        jets = sum(mult * lifter.closed_count(info, n, 0) for info, mult in kinds)
        return StabilizedResult(arcs + verdicts.count(math.inf) + unknown, not unknown,
                                None if unknown else gamma, [jets + len(verdicts), unknown])


def stabilized_count(X: JetVariety, n: int, q: int, j_max: int,
                     budget: Optional[int] = None) -> StabilizedResult:
    """N_n, the number of level-n truncations of F_q[[t]]-arcs, certified by a
    search to level n + j_max (see `_Tree`): the point count of [pi_n(L(X))] for
    smooth X and the node, not in general (y^2 = x^3, q = 5, n = 2: 103, not 105)."""
    return stabilized_table(X, q, n, j_max, budget)[n]


def stabilized_table(X: JetVariety, q: int, n_max: int, j_max: int,
                     budget: Optional[int] = None) -> List[StabilizedResult]:
    """The rows n = 0..n_max from one search to level n_max + j_max and one
    budget; the jets over the points where J has full rank are counted in
    closed form."""
    if n_max < 0 or j_max < 0:
        raise ValueError("n_max and j_max must be nonnegative")
    _check_q(q)
    if _is_affine_space(X, q):
        return [StabilizedResult(q ** (X.N * (n + 1)), True, n, [q ** (X.N * (n + 1)), 0])
                for n in range(n_max + 1)]
    tree = _Tree(_Lifter(X, q, budget), n_max, j_max)
    return [tree.row(n) for n in range(n_max + 1)]


def poincare_table(X: JetVariety, q: int, n_max: int, j_max: int,
                   budget: Optional[int] = None) -> List[Tuple[int, int, bool]]:
    """Rows (n, N_n, stable) of the certified table."""
    return [(n, res.N_n, res.stable)
            for n, res in enumerate(stabilized_table(X, q, n_max, j_max, budget))]


def oesterle_sequence(X: JetVariety, q: int, n_max: int, j_max: int,
                      budget: Optional[int] = None) -> List[Fraction]:
    """The exact rational sequence N_n / q^{(n+1)d}, N_n as in `stabilized_count`
    (arcs over F_q[[t]]); converges for d equal to the dimension of X."""
    return [Fraction(res.N_n, q ** ((n + 1) * X.d))
            for n, res in enumerate(stabilized_table(X, q, n_max, j_max, budget))]


# ---------------------------------------------------------------------------
# semi-algebraic conditions on truncated jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrdCmp:
    """Atom: ord f >= ord g + (param_coeffs . params + const)."""

    f: FrozenPoly
    g: FrozenPoly
    param_coeffs: Tuple[int, ...] = ()
    const: int = 0


@dataclass(frozen=True)
class OrdMod:
    """Atom: ord f == residue (mod modulus); ord = +infinity satisfies every
    congruence by convention."""

    f: FrozenPoly
    modulus: int
    residue: int


@dataclass(frozen=True)
class AcRel:
    """Atom: h(ac(f_1), ..., ac(f_m)) == 0 in F_q, where ac is the lowest
    nonzero coefficient (0 for the zero series)."""

    h: FrozenPoly
    fs: Tuple[FrozenPoly, ...]


def _freeze_poly(p: Poly) -> FrozenPoly:
    return tuple(sorted(p.items()))


def ord_cmp(f: Poly, g: Poly, param_coeffs: Sequence[int] = (), const: int = 0) -> OrdCmp:
    return OrdCmp(_freeze_poly(f), _freeze_poly(g), tuple(param_coeffs), const)


def ord_mod(f: Poly, modulus: int, residue: int) -> OrdMod:
    if modulus < 1:
        raise ValidationError("congruence modulus must be >= 1")
    return OrdMod(_freeze_poly(f), modulus, residue)


def ac_rel(h: Poly, fs: Sequence[Poly]) -> AcRel:
    return AcRel(_freeze_poly(h), tuple(_freeze_poly(f) for f in fs))


SemiAlgCondition = Union[OrdCmp, OrdMod, AcRel, And, Or, Not, bool]

UNKNOWN = "unknown"


def _atom_polys(c: SemiAlgCondition) -> set:
    """The polynomials that the atoms of c read ord or ac of."""
    return set().union(*({a.f, a.g} if isinstance(a, OrdCmp) else {a.f}
                         if isinstance(a, OrdMod) else set(a.fs) if isinstance(a, AcRel)
                         else set() for a in atoms(c)))


def eval_semialg(c: SemiAlgCondition, p: JetPoint, params: Sequence[int] = ()):
    """Three-valued evaluation: True / False / 'unknown'.

    An undetermined ord is only known to lie in [n+1, +infinity]; an atom is
    unknown unless every possibility agrees.  Each polynomial is evaluated
    on the jet once, however many atoms read it.
    """
    found = {f: _first_nonzero(_poly_eval_series(dict(f), p.coords, p.n, p.q))
             for f in _atom_polys(c)}
    return _eval_semialg(c, found, p.n, p.q, params)


def _eval_semialg(c: SemiAlgCondition, found: Dict, n: int, q: int,
                  params: Sequence[int]):
    """eval_semialg on a level-n jet, with the (ord, ac) of each atom
    polynomial on it in found; (None, None) when the truncation vanishes."""
    value = fold(c, lambda atom: _eval_atom(atom, found, n, q, params))
    return value if isinstance(value, bool) else UNKNOWN


def _eval_atom(c, found: Dict, n: int, q: int, params: Sequence[int]):
    """One atom of _eval_semialg: True, False or UNKNOWN."""
    if isinstance(c, OrdCmp):
        if len(params) != len(c.param_coeffs):
            raise ValueError("parameter vector length mismatch")
        off = sum(a * b for a, b in zip(c.param_coeffs, params)) + c.const
        a, _ = found[c.f]
        b, _ = found[c.g]
        bound = n + 1  # an undetermined ord lies in [n+1, +infinity]
        if a is not None and b is not None:
            return a >= b + off
        if a is None and b is not None:
            # every value in [n+1, +inf] (with +inf >= anything) works or not
            return True if bound >= b + off else UNKNOWN
        if a is not None and b is None:
            # b = +inf gives a >= +inf: false; small finite b may succeed
            return False if a - off < bound else UNKNOWN
        return UNKNOWN
    if isinstance(c, OrdMod):
        a, _ = found[c.f]
        if a is not None:
            return a % c.modulus == c.residue % c.modulus
        # +infinity satisfies every congruence, finite candidates vary
        return True if c.modulus == 1 else UNKNOWN
    if isinstance(c, AcRel):
        acs = []
        for f in c.fs:
            _, ac = found[f]
            if ac is None:
                return UNKNOWN
            acs.append(ac)
        return _poly_eval_point(dict(c.h), acs, q) == 0
    raise TypeError(f"bad condition node {c!r}")


def _cond_poly(tok, names) -> Poly:
    if not isinstance(tok, str):
        raise ParseError(f"expected a {{polynomial}} literal, got {tok!r}")
    body = tok[1:-1] if tok.startswith("{") and tok.endswith("}") else tok
    return parse_int_poly(body, names)


def _parse_atom(node, names, param_names) -> Optional[SemiAlgCondition]:
    head = node[0]
    if head in ("ord>=", "ord<=", "ord="):
        if len(node) not in (3, 4):
            raise ParseError(f"{head!r} needs (op f [g] offset)")
        f = _cond_poly(node[1], names)
        if len(node) == 4:
            g = _cond_poly(node[2], names)
            off_tok = node[3]
        else:
            g = {(0,) * len(names): 1}
            off_tok = node[2]
        coeffs, const = split_affine(_cond_poly(off_tok, param_names), len(param_names),
                                     "ord offset must be affine in the parameters")
        fwd = OrdCmp(_freeze_poly(f), _freeze_poly(g), coeffs, const)
        # the reverse inequality ord g >= ord f - offset
        rev = OrdCmp(_freeze_poly(g), _freeze_poly(f),
                     tuple(-c for c in coeffs), -const)
        if head == "ord>=":
            return fwd
        if head == "ord<=":
            return rev
        return And((fwd, rev))
    if head == "ordmod":
        if len(node) != 4:
            raise ParseError("'ordmod' needs (ordmod f modulus residue)")
        f = _cond_poly(node[1], names)
        try:
            d, rr = int(node[2]), int(node[3])
        except (TypeError, ValueError):
            raise ParseError("'ordmod' modulus and residue must be integers")
        return ord_mod(f, d, rr)
    if head == "ac=":
        if len(node) < 3:
            raise ParseError("'ac=' needs (ac= h f1 ...)")
        m = len(node) - 2
        ac_names = tuple(f"a{t + 1}" for t in range(m))
        h = _cond_poly(node[1], ac_names)
        fs = [_cond_poly(tok, names) for tok in node[2:]]
        return ac_rel(h, fs)
    return None


def parse_semialg(text: str, names: Sequence[str],
                  param_names: Sequence[str] = ()) -> SemiAlgCondition:
    """Parse the documented condition syntax, e.g.
    (and (ord>= {x} {1} 1) (ordmod {y} 2 0) (ac= {a1 - 1} {x}))."""
    names, param_names = tuple(names), tuple(param_names)
    return read_condition(text, lambda node: _parse_atom(node, names, param_names))


def count_semialg(X: JetVariety, c: SemiAlgCondition, n: int, q: int,
                  params: Sequence[int] = (), j_max: int = 6,
                  budget: Optional[int] = None) -> Tuple[int, int]:
    """(definitely_true, unknown) over the level-n truncations of arcs.

    They are read off the certificate of row n (see `_Tree`): the open
    level-n jets that are in, and the jets at depth j = gamma(n) - n over
    the closed ones.  Under each closed jet with some, a depth-first walk
    evaluates the condition on each jet x at its own level s.  That is
    monotone: an undetermined ord lies in [s+1, inf], and a longer jet only
    narrows it.  So x, once decided, adds its closed count at depth j to its
    value and is not expanded.  A level-n jet counts if it lifts to depth j:
    every one when the closed form at j equals the one at depth 0 (e = 0,
    for one), else each by its own k*.  Ord and ac of an atom are read off
    the series that each jet carries."""
    if n < 0 or j_max < 0:
        raise ValueError("n and j_max must be nonnegative")
    polys = _atom_polys(c)
    lifter = _Lifter(X, q, budget, polys)
    tree = _Tree(lifter, n, j_max)
    res = tree.row(n)
    if not res.stable:
        raise Unstable(
            f"level-{n} arcs not certified: {res.counts[1]} open level-{n} jets"
            f" undecided after a search to level {tree.bottom}")
    counts = {True: 0, UNKNOWN: 0, False: 0}

    def value(node, s: int):
        return _eval_semialg(c, {f: lifter.ord_ac(f, node[0]) for f in polys}, s, q, params)

    j = res.gamma - n
    for top, info in tree.closed:
        some = lifter.closed_dim(info, n, j)
        if some is None:
            continue
        every = some == lifter.closed_dim(info, n, 0)
        # (node, its `closed` answer if already known), depth first
        stack = [(top, info)]
        while stack:
            node, known = stack.pop()
            s = len(node[0][0]) - 1
            v = value(node, s)
            if s == n:
                counts[v] += every or res.gamma < (known or lifter.closed(node))[2]
            elif v is not UNKNOWN:
                counts[v] += lifter.closed_count(known or lifter.closed(node), n, j)
            else:
                stack += [(child, None) for child in lifter.children(node)[::-1]]
    for node, verdict in zip(tree.leaves, tree.reach[n]):
        if verdict == math.inf:
            counts[value(node, n)] += 1
    return counts[True], counts[UNKNOWN]
