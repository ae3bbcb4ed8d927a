"""Finite-field jet enumeration: the independent counting oracle.

A level-n jet of an affine variety over F_q is a tuple of truncated power
series (mod t^{n+1}) on which every defining polynomial vanishes.  Jets are
enumerated level by level: extending a solution from level s to level s+1
amounts to solving a linear system over F_q whose matrix is the Jacobian at
the constant term, so dead branches are pruned early.  Truncation images,
their stabilization in the lifting depth, and three-valued evaluation of
ord/angular-component conditions are built on top of the enumerator.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceeded, ParseError, Unstable, ValidationError
from .parsing import parse_int_poly, read_sexp
from .presburger import And, Not, Or

Poly = Dict[Tuple[int, ...], int]
Jet = Tuple[Tuple[int, ...], ...]  # N coordinate series, each of length n+1

DEFAULT_BUDGET = 10 ** 8
_BUDGET_ENV = "MOTIVIC_JETS_BUDGET"

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}


def default_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"{_BUDGET_ENV} must be an integer, got {raw!r}")
    return DEFAULT_BUDGET


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


def _poly_derivative(p: Poly, v: int) -> Poly:
    out: Poly = {}
    for mono, c in p.items():
        if mono[v]:
            m = list(mono)
            m[v] -= 1
            key = tuple(m)
            out[key] = out.get(key, 0) + c * mono[v]
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


def _solve_affine(rows: List[List[int]], rhs: List[int], q: int
                  ) -> Optional[Tuple[List[int], List[List[int]]]]:
    """Solve rows * a = rhs over F_q; return (particular, nullspace basis)."""
    n_vars = len(rows[0]) if rows else 0
    aug = [[x % q for x in row] + [b % q] for row, b in zip(rows, rhs)]
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
    for i in range(r, len(aug)):
        if aug[i][n_vars]:
            return None
    particular = [0] * n_vars
    for i, col in enumerate(pivots):
        particular[col] = aug[i][n_vars]
    free = [c for c in range(n_vars) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n_vars
        vec[fc] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-aug[i][fc]) % q
        basis.append(vec)
    return particular, basis


class _Lifter:
    """Level-by-level jet extension for one variety over one prime field.

    One lifter serves one whole computation, so its budget caps all of it.
    """

    def __init__(self, X: JetVariety, q: int, budget: Optional[int] = None):
        _check_q(q)
        self.X = X
        self.q = q
        self.budget = default_budget() if budget is None else budget
        self.expansions = 0
        self.polys = [{m: c % q for m, c in p.items() if c % q} for p in X.polys]
        self.polys = [p for p in self.polys if p]
        self.jacobian = [[_poly_derivative(p, v) for v in range(X.N)]
                         for p in self.polys]

    def _charge(self) -> None:
        self.expansions += 1
        if self.expansions > self.budget:
            raise BudgetExceeded(
                f"jet enumeration exceeded the budget of {self.budget} node expansions")

    def level0(self) -> List[Jet]:
        out = []
        for point in itertools.product(range(self.q), repeat=self.X.N):
            self._charge()
            if all(_poly_eval_point(p, point, self.q) == 0 for p in self.polys):
                out.append(tuple((x,) for x in point))
        return out

    def children(self, jet: Jet) -> List[Jet]:
        """All one-level extensions of a solution jet."""
        self._charge()
        q = self.q
        s = len(jet[0])  # new coefficient sits at t^s
        if not self.polys:
            return [tuple(c + (a,) for c, a in zip(jet, vec))
                    for vec in itertools.product(range(q), repeat=self.X.N)]
        x0 = tuple(c[0] for c in jet)
        rows = [[_poly_eval_point(dp, x0, q) for dp in row] for row in self.jacobian]
        padded = tuple(c + (0,) for c in jet)
        rhs = []
        for p in self.polys:
            series = _poly_eval_series(p, padded, s, q)
            rhs.append((-series[s]) % q)
        sol = _solve_affine(rows, rhs, q)
        if sol is None:
            return []
        particular, basis = sol
        out = []
        for combo in itertools.product(range(q), repeat=len(basis)):
            vec = list(particular)
            for coef, bvec in zip(combo, basis):
                if coef:
                    for t in range(self.X.N):
                        vec[t] = (vec[t] + coef * bvec[t]) % q
            out.append(tuple(c + (a,) for c, a in zip(jet, vec)))
        return out

    def next_level(self, jets: List[Jet]) -> List[Jet]:
        return [child for jet in jets for child in self.children(jet)]

    def all_jets(self, n: int) -> List[Jet]:
        frontier = self.level0()
        for _ in range(n):
            frontier = self.next_level(frontier)
        return frontier

    def can_extend(self, jet: Jet, target_len: int) -> Optional[Jet]:
        """Depth-first search for one extension of jet to target_len
        coefficients; returns a witness or None."""
        if len(jet[0]) >= target_len:
            return jet
        for child in self.children(jet):
            found = self.can_extend(child, target_len)
            if found is not None:
                return found
        return None


def _is_affine_space(X: JetVariety, q: int) -> bool:
    """Every polynomial vanishes mod q, so every tuple of series is a jet."""
    return not any(c % q for p in X.polys for c in p.values())


def enumerate_jets(X: JetVariety, n: int, q: int,
                   budget: Optional[int] = None) -> int:
    """|L_n(X)(F_q)|: the number of level-n jets."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_q(q)
    if _is_affine_space(X, q):
        return q ** (X.N * (n + 1))
    return len(_Lifter(X, q, budget).all_jets(n))


def enumerate_jet_points(X: JetVariety, n: int, q: int,
                         budget: Optional[int] = None) -> Iterator[JetPoint]:
    """Stream of the level-n jets themselves."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for jet in _Lifter(X, q, budget).all_jets(n):
        yield JetPoint(q=q, n=n, coords=jet)


def image_count(X: JetVariety, n: int, j: int, q: int,
                budget: Optional[int] = None) -> int:
    """Number of distinct level-n truncations of level-(n+j) jets."""
    if n < 0 or j < 0:
        raise ValueError("n and j must be nonnegative")
    _check_q(q)
    if _is_affine_space(X, q):
        return q ** (X.N * (n + 1))
    lifter = _Lifter(X, q, budget)
    target = n + j + 1
    return sum(1 for jet in lifter.all_jets(n)
               if lifter.can_extend(jet, target) is not None)


@dataclass
class StabilizedResult:
    N_n: int
    j_star: int
    stable: bool
    counts: List[int] = field(default_factory=list)

    def __iter__(self):
        return iter((self.N_n, self.j_star, self.stable))


def _affine_space_result(X: JetVariety, n: int, q: int, j_max: int) -> StabilizedResult:
    count = q ** (X.N * (n + 1))
    return StabilizedResult(N_n=count, j_star=0, stable=True,
                            counts=[count] * (j_max + 3))


def _stabilize(lifter: _Lifter, level_n_jets: List[Jet], n: int, j_max: int
               ) -> Tuple[StabilizedResult, List[Jet]]:
    """Image counts of the level-n jets at lifting depths j = 0, 1, ...,
    j_max + 2, stopping at the first three equal consecutive counts; returns
    the result and the level-n jets that lift to the last depth reached.

    A jet that lifts to depth j + 1 lifts to depth j, so the survivor sets
    shrink as j grows: equal counts mean equal sets, and only the newest
    triple of counts needs checking.
    """
    # keep a witness extension per surviving level-n jet; extending the
    # witness one more level is almost always enough, a fresh search runs
    # only when the witness path dies
    witnesses: Dict[Jet, Jet] = {jet: jet for jet in level_n_jets}
    counts = [len(witnesses)]
    for j in range(1, j_max + 3):
        target = n + j + 1
        nxt: Dict[Jet, Jet] = {}
        for jet, wit in witnesses.items():
            found = lifter.can_extend(wit, target)
            if found is None and len(wit[0]) > n + 1:
                found = lifter.can_extend(jet, target)
            if found is not None:
                nxt[jet] = found
        witnesses = nxt
        counts.append(len(witnesses))
        if j >= 2 and counts[j - 2] == counts[j - 1] == counts[j]:
            return (StabilizedResult(N_n=counts[j], j_star=j - 2, stable=True,
                                     counts=counts), list(witnesses))
    return (StabilizedResult(N_n=counts[-1], j_star=len(counts) - 1, stable=False,
                             counts=counts), list(witnesses))


def stabilized_count(X: JetVariety, n: int, q: int, j_max: int,
                     budget: Optional[int] = None) -> StabilizedResult:
    """Smallest j_star <= j_max with image counts equal at j_star, j_star+1,
    j_star+2 (two confirmations); the count there approximates the truncated
    arc space |pi_n(L(X))(F_q)|."""
    if n < 0 or j_max < 0:
        raise ValueError("n and j_max must be nonnegative")
    _check_q(q)
    if _is_affine_space(X, q):
        return _affine_space_result(X, n, q, j_max)
    lifter = _Lifter(X, q, budget)
    return _stabilize(lifter, lifter.all_jets(n), n, j_max)[0]


def stabilized_table(X: JetVariety, q: int, n_max: int, j_max: int,
                     budget: Optional[int] = None) -> List[StabilizedResult]:
    """stabilized_count(X, n, q, j_max) for n = 0..n_max from one traversal:
    the level-n jets are built once, from the level-(n-1) jets, and one
    budget caps the whole table."""
    if n_max < 0 or j_max < 0:
        raise ValueError("n_max and j_max must be nonnegative")
    _check_q(q)
    if _is_affine_space(X, q):
        return [_affine_space_result(X, n, q, j_max) for n in range(n_max + 1)]
    lifter = _Lifter(X, q, budget)
    frontier = lifter.level0()
    rows = []
    for n in range(n_max + 1):
        if n:
            frontier = lifter.next_level(frontier)
        rows.append(_stabilize(lifter, frontier, n, j_max)[0])
    return rows


def greenberg_estimate(X: JetVariety, n: int, q: int, j_max: int,
                       budget: Optional[int] = None) -> int:
    """Empirical estimate n + j_star of the level from which jets detect
    liftability to genuine arcs; a heuristic, not a certificate."""
    res = stabilized_count(X, n, q, j_max, budget=budget)
    if not res.stable:
        raise Unstable(
            f"image counts did not stabilize within j_max={j_max}: {res.counts}")
    return n + res.j_star


def poincare_table(X: JetVariety, q: int, n_max: int, j_max: int,
                   budget: Optional[int] = None) -> List[Tuple[int, int, bool]]:
    """Rows (n, N_n, stable) of stabilized truncation counts."""
    return [(n, res.N_n, res.stable)
            for n, res in enumerate(stabilized_table(X, q, n_max, j_max, budget))]


def oesterle_sequence(X: JetVariety, q: int, n_max: int, j_max: int,
                      budget: Optional[int] = None) -> List[Fraction]:
    """The exact rational sequence N_n / q^{(n+1)d}; converges for d equal to
    the dimension of X."""
    return [Fraction(res.N_n, q ** ((n + 1) * X.d))
            for n, res in enumerate(stabilized_table(X, q, n_max, j_max, budget))]


# ---------------------------------------------------------------------------
# semi-algebraic conditions on truncated jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrdCmp:
    """Atom: ord f >= ord g + (param_coeffs . params + const)."""

    f: Tuple[Tuple[Tuple[int, ...], int], ...]
    g: Tuple[Tuple[Tuple[int, ...], int], ...]
    param_coeffs: Tuple[int, ...] = ()
    const: int = 0


@dataclass(frozen=True)
class OrdMod:
    """Atom: ord f == residue (mod modulus); ord = +infinity satisfies every
    congruence by convention."""

    f: Tuple[Tuple[Tuple[int, ...], int], ...]
    modulus: int
    residue: int


@dataclass(frozen=True)
class AcRel:
    """Atom: h(ac(f_1), ..., ac(f_m)) == 0 in F_q, where ac is the lowest
    nonzero coefficient (0 for the zero series)."""

    h: Tuple[Tuple[Tuple[int, ...], int], ...]
    fs: Tuple[Tuple[Tuple[Tuple[int, ...], int], ...], ...]


def _freeze_poly(p: Poly) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
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


def _ord_and_ac(f, p: JetPoint) -> Tuple[Optional[int], Optional[int]]:
    """(ord, ac) of f on the truncated jet; (None, None) when the truncation
    vanishes identically so neither is determined."""
    series = _poly_eval_series(dict(f), p.coords, p.n, p.q)
    for i, c in enumerate(series):
        if c:
            return i, c
    return None, None


def _kleene_and(values):
    out = True
    for v in values:
        if v is False:
            return False
        if v == UNKNOWN:
            out = UNKNOWN
    return out


def _kleene_not(v):
    return UNKNOWN if v == UNKNOWN else (not v)


def eval_semialg(c: SemiAlgCondition, p: JetPoint, params: Sequence[int] = ()):
    """Three-valued evaluation: True / False / 'unknown'.

    An undetermined ord is only known to lie in [n+1, +infinity]; an atom is
    unknown unless every possibility agrees.
    """
    if isinstance(c, bool):
        return c
    if isinstance(c, And):
        return _kleene_and(eval_semialg(k, p, params) for k in c.children)
    if isinstance(c, Or):
        return _kleene_not(_kleene_and(
            _kleene_not(eval_semialg(k, p, params)) for k in c.children))
    if isinstance(c, Not):
        return _kleene_not(eval_semialg(c.child, p, params))
    if isinstance(c, OrdCmp):
        if len(params) != len(c.param_coeffs):
            raise ValueError("parameter vector length mismatch")
        off = sum(a * b for a, b in zip(c.param_coeffs, params)) + c.const
        a, _ = _ord_and_ac(c.f, p)
        b, _ = _ord_and_ac(c.g, p)
        bound = p.n + 1  # an undetermined ord lies in [n+1, +infinity]
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
        a, _ = _ord_and_ac(c.f, p)
        if a is not None:
            return a % c.modulus == c.residue % c.modulus
        # +infinity satisfies every congruence, finite candidates vary
        return True if c.modulus == 1 else UNKNOWN
    if isinstance(c, AcRel):
        acs = []
        for f in c.fs:
            _, ac = _ord_and_ac(f, p)
            if ac is None:
                return UNKNOWN
            acs.append(ac)
        return _poly_eval_point(dict(c.h), acs, p.q) == 0
    raise TypeError(f"bad condition node {c!r}")


def _cond_poly(tok, names) -> Poly:
    if not isinstance(tok, str):
        raise ParseError(f"expected a {{polynomial}} literal, got {tok!r}")
    body = tok[1:-1] if tok.startswith("{") and tok.endswith("}") else tok
    return parse_int_poly(body, names)


def _cond_offset(tok, param_names) -> Tuple[Tuple[int, ...], int]:
    poly = _cond_poly(tok, param_names)
    coeffs = [0] * len(param_names)
    const = 0
    for mono, c in poly.items():
        if sum(mono) == 0:
            const = c
        elif sum(mono) == 1:
            coeffs[mono.index(1)] += c
        else:
            raise ParseError("ord offset must be affine in the parameters")
    return tuple(coeffs), const


def _parse_semialg_node(node, names, param_names) -> SemiAlgCondition:
    if isinstance(node, str):
        if node == "true":
            return True
        if node == "false":
            return False
        raise ParseError(f"bad condition token {node!r}")
    if not node:
        raise ParseError("empty condition")
    head = node[0]
    if head == "and":
        return And(tuple(_parse_semialg_node(k, names, param_names) for k in node[1:]))
    if head == "or":
        return Or(tuple(_parse_semialg_node(k, names, param_names) for k in node[1:]))
    if head == "not":
        if len(node) != 2:
            raise ParseError("'not' needs exactly one argument")
        return Not(_parse_semialg_node(node[1], names, param_names))
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
        coeffs, const = _cond_offset(off_tok, param_names)
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
    raise ParseError(f"unknown condition operator {head!r}")


def parse_semialg(text: str, names: Sequence[str],
                  param_names: Sequence[str] = ()) -> SemiAlgCondition:
    """Parse the documented condition syntax, e.g.
    (and (ord>= {x} {1} 1) (ordmod {y} 2 0) (ac= {a1 - 1} {x}))."""
    return _parse_semialg_node(read_sexp(text), tuple(names),
                               tuple(param_names))


def count_semialg(X: JetVariety, c: SemiAlgCondition, n: int, q: int,
                  params: Sequence[int] = (), j_max: int = 6,
                  budget: Optional[int] = None) -> Tuple[int, int]:
    """(definitely_true, unknown) over the stabilized level-n image points."""
    if n < 0 or j_max < 0:
        raise ValueError("n and j_max must be nonnegative")
    lifter = _Lifter(X, q, budget)
    jets = lifter.all_jets(n)
    if not _is_affine_space(X, q):
        res, jets = _stabilize(lifter, jets, n, j_max)
        if not res.stable:
            raise Unstable(f"image counts did not stabilize within j_max={j_max}")
    true_count = 0
    unknown_count = 0
    for jet in jets:
        value = eval_semialg(c, JetPoint(q=q, n=n, coords=jet), params)
        if value is True:
            true_count += 1
        elif value == UNKNOWN:
            unknown_count += 1
    return true_count, unknown_count
