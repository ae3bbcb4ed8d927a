"""Seeded job streams for the three benchmark workloads, and their oracles.

A job is one ``motivic`` CLI call: an argv whose ``{dir}`` is the directory
the model files are written to, the files themselves, and the parameters the
oracle needs.  Each workload is a list of strata; a stratum fixes the
subcommand, the family and the size (q, n, generator box, moduli), and the
seed draws only the instance.  Jobs are dealt round-robin over the strata in
a seeded order, so any prefix of the stream has nearly the same mix -- that
is what keeps jobs_per_s steady across seeds although single jobs differ.

Every family is bounded: the ROADMAP's Direction-1 stress cases
(``enumerate_jets(node, 7, 5)``, the cusp ``jets-poincare`` table, the
5-generator zeta value, the 3-clause mod-5/7 ``genfun``) each take over 20 s
and are left out.

Oracles run in the parent, outside the timed phase, and return None when an
output is right or a one-line reason when it is not.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import exact

XY = ("x", "y")
L1 = ("L",)
UV = ("u", "v")


class Job:
    __slots__ = ("stratum", "argv", "files", "params")

    def __init__(self, stratum: str, argv: List[str], files: Dict[str, str],
                 params: dict):
        self.stratum = stratum
        self.argv = argv
        self.files = files
        self.params = params

    def spec(self) -> dict:
        return {"argv": self.argv, "files": self.files}


# -- plane curves over F_q ---------------------------------------------------

def _peval(p: exact.Poly, point: Sequence[int], q: int) -> int:
    total = 0
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            term *= pow(x, k, q)
        total += term
    return total % q


def _deriv(p: exact.Poly, v: int) -> exact.Poly:
    out: exact.Poly = {}
    for e, c in p.items():
        if e[v]:
            k = list(e)
            k[v] -= 1
            out[tuple(k)] = out.get(tuple(k), 0) + c * e[v]
    return {e: c for e, c in out.items() if c}


def smooth_jet_count(p: exact.Poly, q: int, n: int) -> int:
    """|L_n(X)(F_q)| for a plane curve smooth at each F_q-point: Hensel gives
    q^n lifts of every point.  Raises if some point is singular."""
    grads = [_deriv(p, 0), _deriv(p, 1)]
    points = 0
    for pt in itertools.product(range(q), repeat=2):
        if _peval(p, pt, q) == 0:
            if all(_peval(g, pt, q) == 0 for g in grads):
                raise ValueError(f"curve singular at {pt} mod {q}")
            points += 1
    return points * q ** n


def monomial_jet_count(a: int, b: int, q: int, n: int) -> int:
    """Level-n jets of x^a y^b = 0: ord x * a + ord y * b >= n + 1, with the
    zero truncation counted as order n + 1."""
    def weight(i: int) -> int:
        return 1 if i == n + 1 else (q - 1) * q ** (n - i)
    return sum(weight(i) * weight(j) for i in range(n + 2) for j in range(n + 2)
               if a * i + b * j >= n + 1)


def _ser_pow(s: Sequence[int], e: int, n: int, q: int) -> Tuple[int, ...]:
    out = [1] + [0] * n
    for _ in range(e):
        nxt = [0] * (n + 1)
        for i, u in enumerate(out):
            if u:
                for j in range(n + 1 - i):
                    if s[j]:
                        nxt[i + j] = (nxt[i + j] + u * s[j]) % q
        out = nxt
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cusp_jet_count(a: int, b: int, q: int, n: int) -> int:
    """Level-n jets of y^a = x^b by direct enumeration: the number of pairs of
    truncations with equal a-th and b-th powers."""
    ya: Dict[tuple, int] = {}
    xb: Dict[tuple, int] = {}
    for s in itertools.product(range(q), repeat=n + 1):
        k = _ser_pow(s, a, n, q)
        ya[k] = ya.get(k, 0) + 1
        k = _ser_pow(s, b, n, q)
        xb[k] = xb.get(k, 0) + 1
    return sum(c * xb.get(k, 0) for k, c in ya.items())


def _lin(a: int, b: int) -> exact.Poly:
    return exact.add(exact.mono((1, 0), a), exact.mono((0, 1), b))


def _shift(p: exact.Poly, sx: int, sy: int) -> exact.Poly:
    """p(x + sx, y + sy)."""
    X = exact.add(exact.mono((1, 0)), exact.const(sx, 2))
    Y = exact.add(exact.mono((0, 1)), exact.const(sy, 2))
    out: exact.Poly = {}
    for (i, j), c in p.items():
        out = exact.add(out, exact.mul(exact.const(c, 2), exact.mul(
            exact.power(X, i, 2), exact.power(Y, j, 2))))
    return out


def _variety(p: exact.Poly, condition: Optional[str] = None) -> str:
    text = f"kind = variety\nvars = x y\ndimension = 1\npoly = {exact.fmt(p, XY)}\n"
    if condition:
        text += f"condition = {condition}\n"
    return text


def _graph(rng: random.Random, deg: int) -> exact.Poly:
    """y - g(x) or x - g(y) for a random g of degree deg: always smooth."""
    g = {(k,): rng.randint(-3, 3) for k in range(deg)}
    g[(deg,)] = rng.choice([-2, -1, 1, 2])
    v = rng.randrange(2)
    p = exact.mono((0, 1) if v == 0 else (1, 0))
    for (k,), c in g.items():
        p = exact.add(p, exact.mono((k, 0) if v == 0 else (0, k), -c))
    return p


def _hyperbola(rng: random.Random, q: int) -> exact.Poly:
    """(x + s)(y + t) - c with c a unit mod q: smooth with q - 1 points."""
    p = exact.add(exact.mono((1, 1)), exact.const(-rng.randint(1, q - 1), 2))
    return _shift(p, rng.randint(-2, 2), rng.randint(-2, 2))


def _linear_pair(rng: random.Random, q: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    while True:
        l1 = (rng.randint(-2, 2), rng.randint(-2, 2))
        l2 = (rng.randint(-2, 2), rng.randint(-2, 2))
        if (l1[0] * l2[1] - l1[1] * l2[0]) % q:
            return l1, l2


def _monomial_like(rng: random.Random, q: int, a: int, b: int) -> exact.Poly:
    """l1^a l2^b for independent linear forms, translated: a linear change
    of coordinates of x^a y^b, so it has the same jet counts."""
    l1, l2 = _linear_pair(rng, q)
    p = exact.mul(exact.power(_lin(*l1), a, 2), exact.power(_lin(*l2), b, 2))
    return _shift(p, rng.randint(-1, 1), rng.randint(-1, 1))


_CUSPS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 7))


def _cusp(rng: random.Random, a: int, b: int) -> exact.Poly:
    p = exact.add(exact.mono((0, a)), exact.mono((b, 0), -1))
    if rng.randrange(2):  # x <-> y
        p = {(j, i): c for (i, j), c in p.items()}
    if rng.randrange(2):
        p = exact.neg(p)
    return p


def _node_series_counts(q: int, n_max: int) -> List[int]:
    """Arc-truncation counts of the node from the program's own series
    module: specialize_at_q of 2L/(1 - LT) - 1/(1 - T)."""
    from motivic.models import parse_model
    from motivic.series import specialize_at_q

    P = parse_model("kind = series\nnum = (2*L - 1) + (-L)*T\n"
                    "den = (1,1) (0,1)\n").datum
    return [int(v) for v in specialize_at_q(P, q, n_max)]


def _read_csv(out: str) -> List[dict]:
    return list(csv.DictReader(io.StringIO(out)))


# -- semi-algebraic conditions -----------------------------------------------

_ATOM_POLYS = ("x", "y", "x - y", "x + y", "x*y")
UNKNOWN = "unknown"


def _random_condition(rng: random.Random, depth: int = 0):
    r = rng.random()
    if depth < 2 and r < 0.45:
        op = rng.choice(["and", "or"])
        return (op, _random_condition(rng, depth + 1), _random_condition(rng, depth + 1))
    if depth < 2 and r < 0.55:
        return ("not", _random_condition(rng, depth + 1))
    if rng.randrange(2):
        d = rng.choice([2, 3])
        return ("ordmod", rng.choice(_ATOM_POLYS), d, rng.randrange(d))
    f, g = rng.sample(_ATOM_POLYS, 2)
    return ("ord>=", f, g, rng.randint(-1, 1))


def _cond_text(c) -> str:
    if c[0] in ("and", "or"):
        return f"({c[0]} {_cond_text(c[1])} {_cond_text(c[2])})"
    if c[0] == "not":
        return f"(not {_cond_text(c[1])})"
    if c[0] == "ordmod":
        return f"(ordmod {{{c[1]}}} {c[2]} {c[3]})"
    return f"(ord>= {{{c[1]}}} {{{c[2]}}} {c[3]})"


def _ord(poly: exact.Poly, jet, n: int, q: int) -> Optional[int]:
    """ord_t of poly(x(t), y(t)) mod t^(n+1); None when the truncation is 0."""
    total = [0] * (n + 1)
    for (i, j), c in poly.items():
        term = [c % q] + [0] * n
        for s, e in ((jet[0], i), (jet[1], j)):
            for _ in range(e):
                nxt = [0] * (n + 1)
                for a, u in enumerate(term):
                    if u:
                        for b in range(n + 1 - a):
                            nxt[a + b] = (nxt[a + b] + u * s[b]) % q
                term = nxt
        total = [(u + v) % q for u, v in zip(total, term)]
    return next((k for k, u in enumerate(total) if u), None)


def _eval3(c, jet, n: int, q: int, polys: Dict[str, exact.Poly]):
    """Three-valued truth: an undetermined ord lies anywhere in [n+1, inf]
    and an atom is unknown unless every possible value agrees."""
    if c[0] == "not":
        v = _eval3(c[1], jet, n, q, polys)
        return UNKNOWN if v == UNKNOWN else not v
    if c[0] in ("and", "or"):
        vals = [_eval3(k, jet, n, q, polys) for k in c[1:]]
        want = c[0] == "or"  # the value that decides the connective
        if want in vals:
            return want
        return UNKNOWN if UNKNOWN in vals else (not want)
    if c[0] == "ordmod":
        a = _ord(polys[c[1]], jet, n, q)
        if a is not None:
            return a % c[2] == c[3]
        return UNKNOWN  # +inf satisfies it, n+1.. do not all
    a = _ord(polys[c[1]], jet, n, q)
    b = _ord(polys[c[2]], jet, n, q)
    off = c[3]
    if a is not None and b is not None:
        return a >= b + off
    if a is None and b is not None:
        return True if n + 1 >= b + off else UNKNOWN
    if a is not None and b is None:
        return False if a < n + 1 + off else UNKNOWN
    return UNKNOWN


def _graph_arcs(p: exact.Poly, q: int, n: int):
    """All level-n jets of y = g(x) (or x = g(y)); each one is an arc."""
    if p.get((0, 1)) == 1 and all(e[1] == 0 for e in p if e != (0, 1)):
        dep, free = (0, 1), 0
    else:
        dep, free = (1, 0), 1
    g = {e[free]: -c for e, c in p.items() if e != dep}
    for s in itertools.product(range(q), repeat=n + 1):
        other = [0] * (n + 1)
        for k, c in g.items():
            other = [(u + c * w) % q for u, w in zip(other, _ser_pow(s, k, n, q))]
        yield (s, tuple(other)) if free == 0 else (tuple(other), s)


def _node_arcs(l1, l2, shift, q: int, n: int):
    """Truncations of arcs on l1 * l2 = 0 (translated by shift): the union
    of the truncations of the two lines."""
    out = set()
    for a, b in (l1, l2):
        for s in itertools.product(range(q), repeat=n + 1):
            if b % q:
                m = (-a * pow(b, -1, q)) % q
                X, Y = s, tuple(m * u % q for u in s)
            else:
                X, Y = (0,) * (n + 1), s
            x = ((X[0] + shift[0]) % q,) + X[1:]
            y = ((Y[0] + shift[1]) % q,) + Y[1:]
            out.add((x, y))
    return out


# -- the jets workload ------------------------------------------------------

def _jets_count_smooth(rng, i):
    q, n = 5, 5
    p = _graph(rng, 2 + _round(i, "jets") % 3)
    return (["jets-count", f"{{dir}}/{i}.model", "--q", str(q), "--n", str(n),
             "--threads", "1"], {f"{i}.model": _variety(p)},
            {"check": "count", "want": ("smooth", p, q, n)})


def _jets_count_hyperbola(rng, i):
    q, n = 3, 7
    p = _hyperbola(rng, q)
    return (["jets-count", f"{{dir}}/{i}.model", "--q", str(q), "--n", str(n),
             "--threads", "1"], {f"{i}.model": _variety(p)},
            {"check": "count", "want": ("smooth", p, q, n)})


def _jets_count_cusp(rng, i):
    q, n = 2, 8
    a, b = _CUSPS[_round(i, "jets") % len(_CUSPS)]
    p = _cusp(rng, a, b)
    return (["jets-count", f"{{dir}}/{i}.model", "--q", str(q), "--n", str(n),
             "--threads", "1"], {f"{i}.model": _variety(p)},
            {"check": "count", "want": ("cusp", a, b, q, n)})


def _jets_count_monomial(rng, i):
    q, n = 3, 4
    a, b = rng.choice([(1, 2), (2, 1)])
    p = _monomial_like(rng, q, a, b)
    return (["jets-count", f"{{dir}}/{i}.model", "--q", str(q), "--n", str(n),
             "--threads", "1"], {f"{i}.model": _variety(p)},
            {"check": "count", "want": ("monomial", a, b, q, n)})


def _alternate(i: int) -> bool:
    """Node on odd rounds, smooth curve on even ones: the two families differ
    in cost several times over, so a coin flip per job would move jobs_per_s
    from seed to seed."""
    return _round(i, "jets") % 2 == 1


def _round(i: int, workload: str) -> int:
    """Which round of the stream job i belongs to.  Strata cycle their
    cost-setting choice (degree, exponent pair, modulus) by round rather
    than drawing it, for the same reason as _alternate."""
    return i // len(WORKLOADS[workload])


def _table_job(cmd: str, q: int, n_max: int):
    def gen(rng, i):
        if _alternate(i):
            l1, l2 = _linear_pair(rng, q)
            p = _shift(exact.mul(_lin(*l1), _lin(*l2)), rng.randint(-1, 1),
                       rng.randint(-1, 1))
            family = "node"
        else:
            p = _graph(rng, 3)
            family = "smooth"
        return ([cmd, f"{{dir}}/{i}.model", "--q", str(q), "--n-max", str(n_max),
                 "--j-max", str(n_max + 2), "--threads", "1"],
                {f"{i}.model": _variety(p)},
                {"check": cmd, "family": family, "p": p, "q": q, "n_max": n_max})
    return gen


def _semialg_job(rng, i):
    q, n = 3, 4
    cond = _random_condition(rng)
    if _alternate(i):
        l1, l2 = _linear_pair(rng, q)
        shift = (rng.randint(-1, 1), rng.randint(-1, 1))
        p = _shift(exact.mul(_lin(*l1), _lin(*l2)), -shift[0], -shift[1])
        arcs = ("node", l1, l2, shift)
        n = 3
    else:
        p = _graph(rng, 3)
        arcs = ("graph", p)
    return (["semialg-count", f"{{dir}}/{i}.model", "--q", str(q), "--n", str(n),
             "--j-max", str(n + 2), "--threads", "1"],
            {f"{i}.model": _variety(p, _cond_text(cond))},
            {"check": "semialg", "arcs": arcs, "cond": cond, "q": q, "n": n})


def _check_count(params, out: str) -> Optional[str]:
    kind, *args = params["want"]
    if kind == "smooth":
        want = smooth_jet_count(*args)
    elif kind == "monomial":
        want = monomial_jet_count(*args)
    else:
        want = cusp_jet_count(*args)
    got = out.strip()
    return None if got == str(want) else f"jet count {got!r}, oracle {want}"


def _table_rows(params, out: str, columns: Sequence[str]) -> List[dict]:
    rows = _read_csv(out)
    if [int(r["n"]) for r in rows] != list(range(params["n_max"] + 1)):
        raise ValueError("rows are not n = 0..n_max")
    for r in rows:
        for c in columns:
            if c not in r:
                raise ValueError(f"missing column {c}")
    return rows


def _exact_counts(params) -> List[int]:
    q, n_max = params["q"], params["n_max"]
    if params["family"] == "node":
        return _node_series_counts(q, n_max)
    return [smooth_jet_count(params["p"], q, n) for n in range(n_max + 1)]


def _check_table(params, out: str) -> Optional[str]:
    """Smooth curves and nodes have proven stabilized counts: every level-n
    jet lifts on a smooth curve, and the node's arcs are the two lines."""
    cmd = params["check"]
    cols = {"jets-poincare": ("N_n", "stable"),
            "jets-greenberg": ("N_n", "gamma_hat", "stable"),
            "jets-oesterle": ("ratio_num", "ratio_den")}[cmd]
    rows = _table_rows(params, out, cols)
    want = _exact_counts(params)
    q = params["q"]
    for n, (r, w) in enumerate(zip(rows, want)):
        if cmd == "jets-oesterle":
            got = Fraction(int(r["ratio_num"]), int(r["ratio_den"]))
            if got != Fraction(w, q ** (n + 1)):
                return f"n={n}: ratio {got}, oracle {Fraction(w, q ** (n + 1))}"
            continue
        if int(r["N_n"]) != w or r["stable"] != "1":
            return f"n={n}: N_n={r['N_n']} stable={r['stable']}, oracle {w}"
        if cmd == "jets-greenberg":
            g = int(r["gamma_hat"])
            if g < n or (params["family"] == "smooth" and g != n):
                return f"n={n}: gamma_hat={g}"
    return None


def _check_semialg(params, out: str) -> Optional[str]:
    q, n = params["q"], params["n"]
    arcs = params["arcs"]
    if arcs[0] == "graph":
        jets = _graph_arcs(arcs[1], q, n)
    else:
        jets = _node_arcs(arcs[1], arcs[2], arcs[3], q, n)
    polys = {name: exact.parse(name, XY)[0] for name in _ATOM_POLYS}
    true = unknown = 0
    for jet in jets:
        v = _eval3(params["cond"], jet, n, q, polys)
        if v is True:
            true += 1
        elif v == UNKNOWN:
            unknown += 1
    want = f"definitely_true={true} unknown={unknown}"
    return None if out.strip() == want else f"{out.strip()!r}, oracle {want!r}"


# -- the cones workload -----------------------------------------------------

def _staircase(rng, n: int, hi: int) -> List[List[int]]:
    xs = sorted(rng.sample(range(1, hi + 1), n))
    ys = sorted(rng.sample(range(1, hi + 1), n), reverse=True)
    return [[x, y] for x, y in zip(xs, ys)]


# Zeta-value inputs are drawn from fixed lists because the cost of z_of_delta
# varies 100-fold inside any box of generators (and even under a permutation
# of the coordinates).  Both lists hold the instances whose zeta value took
# roughly 8-25 ms when the benchmark was defined (2-core Xeon, Python 3.11).
# K2_STAIRCASES: [[x1, y1], [x2, y2], [x3, y3]] written as "x1x2x3y1y2y3".
K2_STAIRCASES = """
123621 124521 124621 124631 124632 125421 125641 125651 125532 125632 126321
126421 126531 126541 126432 126642 126652 126543 126654 134541 134641 134632
134642 135421 135431 135641 135532 135632 135542 135643 135653 136421 136631
136541 136532 136642 136652 136543 136643 136653 136654 145621 145431 145631
145542 145653 146521 146431 146531 146542 146642 146653 156521 156531 156651
156432 156632 156642 156543 156654 234621 234651 235521 235631 235632 236421
236641 236651 236532 236653 245541 245641 245652 246631 246641 246651 246532
246643 256621 256431 256631 256541 256542 256653 345621 345651 346531 346631
346642 356621 356541 356641 356632 356652 456631 456641 456643""".split()
# K3_AXES: ((a, b, c), inner point or None) for [[a,1,1], [1,b,1], [1,1,c]].
K3_AXES = [((3, 4, 4), None), ((2, 2, 4), (2, 2, 1)), ((2, 2, 4), (2, 1, 2)),
           ((2, 2, 4), None), ((2, 2, 4), (1, 2, 2)), ((3, 3, 4), None),
           ((3, 3, 4), (2, 2, 1)), ((2, 4, 4), (2, 2, 1)), ((2, 4, 4), (2, 1, 2)),
           ((2, 4, 4), None), ((3, 4, 4), (2, 2, 1)), ((3, 4, 4), (2, 1, 2))]


def _zdelta_k2(rng, i):
    code = rng.choice(K2_STAIRCASES)
    gens = [[int(code[t]), int(code[t + 3])] for t in range(3)]
    rng.shuffle(gens)
    return (["zdelta", f"{{dir}}/{i}.model"],
            {f"{i}.model": f"kind = polyhedron\nk = 2\ngenerators = {gens}\n"},
            {"check": "zdelta", "gens": gens, "order": 24})


def _zdelta_k3(rng, i):
    (a, b, c), inner = rng.choice(K3_AXES)
    gens = [[a, 1, 1], [1, b, 1], [1, 1, c]] + ([list(inner)] if inner else [])
    # a dominated generator changes the input, not the polyhedron
    top = max(gens, key=sum)
    gens.append([x + rng.randint(0, 2) for x in top])
    rng.shuffle(gens)
    return (["zdelta", f"{{dir}}/{i}.model"],
            {f"{i}.model": f"kind = polyhedron\nk = 3\ngenerators = {gens}\n"},
            {"check": "zdelta", "gens": gens, "order": 12})


def _laurent(rng, lo: int, hi: int) -> exact.Poly:
    p = {(e,): rng.randint(-3, 3) for e in range(lo, hi + 1)}
    p = {e: c for e, c in p.items() if c}
    return p or {(hi,): 1}


def _volume_polyhedra(rng, i):
    d = rng.randint(2, 3)
    strata = [(_laurent(rng, 0, 2), None)]
    for _ in range(2):
        gens = ([[rng.randint(1, 4)]] if rng.randrange(2)
                else _staircase(rng, 2, 4))
        strata.append((_laurent(rng, 0, 2), gens))
    lines = [f"kind = polyhedron\ndimension = {d}"]
    for cls, gens in strata:
        line = f"stratum | class = {exact.fmt(cls, L1)}"
        if gens:
            line += f" | generators = {gens}"
        lines.append(line)
    return (["volume-polyhedra", f"{{dir}}/{i}.model"],
            {f"{i}.model": "\n".join(lines) + "\n"},
            {"check": "volume-polyhedra", "d": d, "strata": strata, "order": 16})


def _pres_affine(rng, m: int) -> Tuple[List[int], int, str]:
    names = ("i", "j")[:m]
    cs = [rng.randint(-2, 2) for _ in range(m)]
    if not any(cs):
        cs[0] = 1
    c0 = rng.randint(-2, 6)
    parts = [f"(* {c} {v})" for c, v in zip(cs, names) if c] + [str(c0)]
    return cs, c0, "(+ " + " ".join(parts) + ")"


def _pres_clause(rng, m: int, moduli: Sequence[int]):
    atoms = []
    for _ in range(rng.randint(1, 2)):
        atoms.append(f"(>= {_pres_affine(rng, m)[2]} 0)")
    d = rng.choice(moduli)
    v = rng.choice(("i", "j")[:m])
    atoms.append(f"(mod {v} {d} {rng.randrange(d)})")
    return "(and " + " ".join(atoms) + ")"


def _genfun_job(m: int, clauses: int, moduli: Sequence[int], maps: bool):
    def gen(rng, i):
        names = ("i", "j")[:m]
        # one modulus per job: mixing 2 and 3 unfolds 36 residue classes
        d = moduli[_round(i, "cones") % len(moduli)]
        parts = [_pres_clause(rng, m, (d,)) for _ in range(clauses)]
        cond = parts[0] if clauses == 1 else "(or " + " ".join(parts) + ")"
        text = f"kind = presburger\nvars = {' '.join(names)}\ncondition = {cond}\n"
        map_coeffs = []
        if maps:
            map_coeffs = rng.choice([[(1, 1)], [(1, 2), (0, 1)], [(2, 1), (1, 0)],
                                     [(1, 1), (0, 1)]])
            for a, b in map_coeffs:
                text += "map = " + exact.fmt(exact.add(exact.mono((1, 0), a),
                                                       exact.mono((0, 1), b)),
                                             ("i", "j")) + "\n"
        return (["genfun", f"{{dir}}/{i}.model"], {f"{i}.model": text},
                {"check": "genfun", "m": m, "cond": cond, "maps": map_coeffs,
                 "degree": 16})
    return gen


def _zeta_expansion(gens, order: int):
    """z_truncated of the polyhedron, cached on its minimal generators: a
    dominated generator does not change the polyhedron."""
    pts = {tuple(g) for g in gens}
    minimal = tuple(sorted(g for g in pts if not any(
        h != g and all(a <= b for a, b in zip(h, g)) for h in pts)))
    return _zeta_cached(minimal, order)


@functools.lru_cache(maxsize=None)
def _zeta_cached(gens, order: int):
    from motivic.polyhedra import NewtonPolyhedron, z_truncated

    return z_truncated(NewtonPolyhedron(len(gens[0]), gens), order)


def _check_zdelta(params, out: str) -> Optional[str]:
    """The closed form's completion expansion matches direct summation over
    the lattice orthant (z_truncated)."""
    from motivic.grring import expand_completion
    from motivic.parsing import parse_motclass

    m = params["order"]
    got = expand_completion(parse_motclass(out.strip()), m)
    if not got.matches(_zeta_expansion(params["gens"], m)):
        return f"zeta value {out.strip()!r} disagrees with z_truncated"
    return None


def _check_volume_polyhedra(params, out: str) -> Optional[str]:
    """L^-d sum [C] Z(Delta_C), expanded in L^-1 from z_truncated; each class
    is a Laurent polynomial, so multiplying by it only shifts coefficients."""
    from motivic.grring import expand_completion
    from motivic.parsing import parse_motclass

    m, d = params["order"], params["d"]
    valid = m
    total: Dict[int, int] = {}
    for cls, gens in params["strata"]:
        z = {0: 1} if gens is None else _zeta_expansion(gens, m).coeffs
        top = max(e for (e,) in cls)
        valid = min(valid, m - top + d)
        for (e,), c in cls.items():
            for k, v in z.items():
                key = k - e + d
                total[key] = total.get(key, 0) + c * v
    got = expand_completion(parse_motclass(out.strip()), valid)
    for k in set(got.coeffs) | set(total):
        if k <= valid and got.coeffs.get(k, 0) != total.get(k, 0):
            return f"volume {out.strip()!r} differs at L^-{k}"
    return None


def _parse_ratfunc(out: str, nvars: int):
    """Read the printed num/(1 - X^c)/... back into the program's RatFunc."""
    from motivic.presburger import RatFunc

    names = ("X", "Y")[:nvars]
    num, den = exact.parse(out, names)
    one = exact.const(1, nvars)
    factors = []
    product = one
    for chunk in out.split("/(1 - ")[1:]:
        (expo, _), = exact.parse(chunk.split(")")[0], names)[0].items()
        factors.append(expo)
        product = exact.mul(product, exact.add(one, exact.mono(expo, -1)))
    if product != den:
        raise ValueError("denominator is not a product of (1 - X^c) factors")
    return RatFunc(nvars, num, factors)


def _check_genfun(params, out: str) -> Optional[str]:
    """RatFunc.expand of the printed closed form equals
    genfun_truncated, pushed through the image maps.  The image series is
    sum over P of X^phi(p), so a point with a fiber of k points has
    coefficient k, as genfun_image's docstring and tests define it."""
    from motivic.presburger import PresburgerSet, genfun_truncated, parse_condition

    m, D = params["m"], params["degree"]
    names = ("i", "j")[:m]
    P = PresburgerSet(m, parse_condition(params["cond"], names))
    points = genfun_truncated(P, D)
    maps = params["maps"]
    if maps:
        # every variable has a positive coefficient in some map, so image
        # points of degree <= D come from points of degree <= D
        want: Dict[tuple, int] = {}
        for p in points:
            pt = tuple(a * p[0] + b * p[1] for a, b in maps)
            if sum(pt) <= D:
                want[pt] = want.get(pt, 0) + 1
        nvars = len(maps)
    else:
        want = {pt: 1 for pt in points}
        nvars = m
    if out.strip() == "0":
        return None if not want else "generating function is 0"
    got = _parse_ratfunc(out.strip(), nvars).expand(D)
    return None if got == want else "series disagrees with genfun_truncated"


# -- the ring workload ------------------------------------------------------

def _cls_text(num: exact.Poly, den: Sequence[int]) -> str:
    body = exact.fmt(num, L1)
    if not den:
        return body
    return f"({body})" + "".join(f"/(L^{i}-1)" for i in den)


def _cls_rat(num: exact.Poly, den: Sequence[int]) -> exact.Rat:
    d = exact.const(1, 1)
    for i in den:
        d = exact.mul(d, exact.binom(i))
    return num, d


def _to_uv(r: exact.Rat) -> exact.Rat:
    return tuple({(e, e): c for (e,), c in p.items()} for p in r)


def _resolution(rng, with_N: bool, realization_only: bool, total: bool):
    d = rng.randint(1, 3)
    r = rng.randint(2, 3)
    divs = [(f"E{t}", rng.randint(1, 4), rng.randint(0, 2)) for t in range(r)]
    subsets = [()] + [s for k in (1, 2) for s in itertools.combinations(range(r), k)
                      if k == 1 or rng.random() < 0.7]
    strata = []
    for s in subsets:
        if realization_only and s and rng.random() < 0.4:
            chi = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            hodge = {(a, b): rng.randint(-2, 2) for a in range(2) for b in range(2)}
            hodge = {e: c for e, c in hodge.items() if c} or {(0, 0): 1}
            strata.append((s, None, chi, hodge))
        else:
            strata.append((s, _laurent(rng, 0, d), None, None))
    lines = ["kind = resolution", f"dimension = {d}"]
    for name, nu, N in divs:
        lines.append(f"divisor {name} nu={nu}" + (f" N={N}" if with_N else ""))
    for s, cls, chi, hodge in strata:
        head = "stratum " + " ".join(divs[t][0] for t in s) + " | "
        if cls is not None:
            lines.append(head + f"class = {exact.fmt(cls, L1)}")
        else:
            lines.append(head + f"chi = {chi} | hodge = {exact.fmt(hodge, UV)}")
    if total:
        tot: exact.Poly = {}
        for _, cls, _, _ in strata:
            tot = exact.add(tot, cls)
        lines.append(f"total = {exact.fmt(tot, L1)}")
    return "\n".join(lines) + "\n", {"d": d, "divs": divs, "strata": strata}


def _volume_job(cmd: str):
    def gen(rng, i):
        text, res = _resolution(rng, cmd == "volume-ideal", False, cmd == "kontsevich")
        return ([cmd, f"{{dir}}/{i}.model"], {f"{i}.model": text},
                {"check": "volume", "res": res, "ideal": cmd == "volume-ideal"})
    return gen


def _realize_model_job(cmd: str):
    def gen(rng, i):
        text, res = _resolution(rng, False, True, False)
        return ([cmd, f"{{dir}}/{i}.model"], {f"{i}.model": text},
                {"check": cmd + "-model", "res": res})
    return gen


def _realize_literal_job(cmd: str):
    def gen(rng, i):
        den = sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        num = _laurent(rng, -1, 2)
        if cmd == "chi":  # (L-1)^len(den) | num keeps chi defined
            num = exact.mul(num, exact.power(exact.binom(1), len(den), 1))
        return ([cmd, _cls_text(num, den)], {},
                {"check": cmd + "-literal", "cls": (num, den)})
    return gen


def _series_model(num: Dict[int, exact.Poly], den: Sequence[Tuple[int, int]]) -> str:
    terms = []
    for e in sorted(num):
        c = f"({exact.fmt(num[e], L1)})"
        terms.append(c if e == 0 else f"{c}*T" if e == 1 else f"{c}*T^{e}")
    dens = " ".join(f"({a},{b})" for a, b in den)
    return f"kind = series\nnum = {' + '.join(terms)}\nden = {dens}\n"


def _random_series(rng, lo: int, den: List[Tuple[int, int]]):
    num = {e: _laurent(rng, lo, 2) for e in range(rng.randint(1, 3))}
    return num, den


def _series_expand_job(factors: int, n_lo: int, n_hi: int):
    """series-expand is the heaviest ring job.  Two strata of it, sized to
    cost about the same, put the 90th percentile inside their cost range
    instead of on its lower edge."""
    def gen(rng, i):
        den = [(rng.randint(-1, 1), 1) for _ in range(factors)]
        num, den = _random_series(rng, -1, den)
        N = rng.randint(n_lo, n_hi)
        return (["series-expand", f"{{dir}}/{i}.model", "--n", str(N)],
                {f"{i}.model": _series_model(num, den)},
                {"check": "series-expand", "num": num, "den": den, "N": N})
    return gen


def _series_limit_job(rng, i):
    d = rng.randint(1, 2)
    den = [(d, 1)] + [(b * d - rng.randint(1, 3), b)
                      for b in (rng.randint(1, 2) for _ in range(rng.randint(1, 2)))]
    rng.shuffle(den)
    num, den = _random_series(rng, -1, den)
    return (["series-limit", f"{{dir}}/{i}.model", "--d", str(d)],
            {f"{i}.model": _series_model(num, den)},
            {"check": "series-limit", "num": num, "den": den, "d": d})


def _series_check_job(rng, i):
    den = [(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
    num, den = _random_series(rng, 0, den)
    q, K = rng.choice([2, 3, 5]), rng.randint(8, 16)
    counts = [sum(c * q ** e for (e,), c in a.items())
              for a in _expand_series(num, den, K)]
    table = "n,count\n" + "".join(f"{n},{c}\n" for n, c in enumerate(counts))
    return (["series-check", f"{{dir}}/{i}.model", f"{{dir}}/{i}.csv", "--q", str(q)],
            {f"{i}.model": _series_model(num, den), f"{i}.csv": table},
            {"check": "series-check", "K": K})


def _expand_series(num, den, N: int) -> List[exact.Poly]:
    """Coefficients of num / prod (1 - L^a T^b) by the recurrence
    out[n] = c[n] + L^a out[n - b], one factor at a time."""
    coeffs = [num.get(n, {}) for n in range(N + 1)]
    for a, b in den:
        out: List[exact.Poly] = []
        for n in range(N + 1):
            prev = out[n - b] if n >= b else {}
            out.append(exact.add(coeffs[n], {(e + a,): c for (e,), c in prev.items()}))
        coeffs = out
    return coeffs


def _volume_rat(res, ideal: bool, target: str) -> exact.Rat:
    """L^-d sum_I [E_I] prod (L-1)/(L^nu-1), in L or (target 'hodge') in u,v."""
    nvars = 2 if target == "hodge" else 1
    total: exact.Rat = ({}, exact.const(1, nvars))
    nus = [nu + (N if ideal else 0) for _, nu, N in res["divs"]]
    for s, cls, _chi, hodge in res["strata"]:
        term = (cls, exact.const(1, 1)) if cls is not None else None
        if target == "hodge":
            term = _to_uv(term) if term else (hodge, exact.const(1, 2))
        for t in s:
            edge = (exact.binom(1), exact.binom(nus[t]))
            term = exact.rat_mul(term, _to_uv(edge) if target == "hodge" else edge)
        total = exact.rat_add(total, term)
    shift = (-res["d"],) * nvars
    return exact.rat_mul(total, (exact.mono(shift), exact.const(1, nvars)))


def _check_volume(params, out: str) -> Optional[str]:
    want = _volume_rat(params["res"], params["ideal"], "class")
    got = exact.parse(out, L1)
    return None if exact.rat_eq(got, want) else f"volume {out.strip()!r} is wrong"


def _check_chi_model(params, out: str) -> Optional[str]:
    want = Fraction(0)
    for s, cls, chi, _ in params["res"]["strata"]:
        v = chi if cls is None else exact.value_at_one((cls, exact.const(1, 1)))
        for t in s:
            v /= params["res"]["divs"][t][1]
        want += v
    return None if Fraction(out.strip()) == want else f"chi {out.strip()}, oracle {want}"


def _check_hodge_model(params, out: str) -> Optional[str]:
    want = _volume_rat(params["res"], False, "hodge")
    got = exact.parse(out, UV)
    return None if exact.rat_eq(got, want) else f"hodge {out.strip()!r} is wrong"


def _check_chi_literal(params, out: str) -> Optional[str]:
    want = exact.value_at_one(_cls_rat(*params["cls"]))
    return None if Fraction(out.strip()) == want else f"chi {out.strip()}, oracle {want}"


def _check_hodge_literal(params, out: str) -> Optional[str]:
    want = _to_uv(_cls_rat(*params["cls"]))
    got = exact.parse(out, UV)
    return None if exact.rat_eq(got, want) else f"hodge {out.strip()!r} is wrong"


def _check_series_expand(params, out: str) -> Optional[str]:
    want = _expand_series(params["num"], params["den"], params["N"])
    lines = out.splitlines()
    if len(lines) != len(want):
        return f"{len(lines)} coefficients, expected {len(want)}"
    for n, (line, w) in enumerate(zip(lines, want)):
        head, _, body = line.partition(": ")
        if head != str(n) or not exact.rat_eq(exact.parse(body, L1), (w, exact.const(1, 1))):
            return f"coefficient {n}: {line!r}"
    return None


def _check_series_limit(params, out: str) -> Optional[str]:
    """lim a_n L^-(n+1)d = L^-d num(L^-d) / prod_{others} (1 - L^(a - b d))."""
    d = params["d"]
    one = exact.const(1, 1)
    value: exact.Rat = ({}, one)
    for e, c in params["num"].items():
        value = exact.rat_add(value, ({(k - d * e,): v for (k,), v in c.items()}, one))
    dominant = False
    for a, b in params["den"]:
        if (a, b) == (d, 1) and not dominant:
            dominant = True
            continue
        s = b * d - a  # 1 - L^-s = (L^s - 1) / L^s
        value = exact.rat_mul(value, (exact.mono((s,)), exact.binom(s)))
    value = exact.rat_mul(value, (exact.mono((-d,)), one))
    got = exact.parse(out, L1)
    return None if exact.rat_eq(got, value) else f"limit {out.strip()!r} is wrong"


def _check_series_check(params, out: str) -> Optional[str]:
    lines = out.splitlines()
    ok = len(lines) == params["K"] + 2 and lines[-1] == "PASS" and all(
        line.endswith(" ok") for line in lines[:-1])
    return None if ok else f"series-check report {lines[-1:]!r}"


# -- registry ---------------------------------------------------------------

Gen = Callable[[random.Random, int], tuple]

WORKLOADS: Dict[str, List[Tuple[str, Gen]]] = {
    "jets": [
        ("count-smooth-q5", _jets_count_smooth),
        ("count-hyperbola-q3", _jets_count_hyperbola),
        ("count-cusp-q2", _jets_count_cusp),
        ("count-monomial-q3", _jets_count_monomial),
        ("poincare-q2", _table_job("jets-poincare", 2, 5)),
        ("greenberg-q3", _table_job("jets-greenberg", 3, 3)),
        ("oesterle-q5", _table_job("jets-oesterle", 5, 2)),
        ("semialg-q3", _semialg_job),
    ],
    "cones": [
        ("zdelta-k2", _zdelta_k2),
        ("zdelta-k3", _zdelta_k3),
        ("volume-polyhedra", _volume_polyhedra),
        ("genfun-m2-or", _genfun_job(2, 2, (2, 3), False)),
        ("genfun-m2-map", _genfun_job(2, 2, (2, 3), True)),
        ("genfun-m1", _genfun_job(1, 2, (2, 3, 4), False)),
    ],
    "ring": [
        ("volume", _volume_job("volume")),
        ("volume-ideal", _volume_job("volume-ideal")),
        ("kontsevich", _volume_job("kontsevich")),
        ("chi-literal", _realize_literal_job("chi")),
        ("hodge-literal", _realize_literal_job("hodge")),
        ("chi-model", _realize_model_job("chi")),
        ("hodge-model", _realize_model_job("hodge")),
        ("series-expand-2", _series_expand_job(2, 40, 46)),
        ("series-expand-3", _series_expand_job(3, 25, 29)),
        ("series-limit", _series_limit_job),
        ("series-check", _series_check_job),
    ],
}

# Jobs generated per run.  Each is well above what one run completes at the
# parent commit, so a faster program still meets fresh inputs; past the end
# the stream starts again from its first job.
STREAM_LENGTH = {"jets": 600, "cones": 4000, "ring": 4000}

# Jobs in one traced pass: whole rounds over the strata, the same for every
# commit, so per-layer counts from one seed repeat exactly.
TRACE_JOBS = {"jets": 16, "cones": 60, "ring": 200}

_CHECKS = {
    "count": _check_count, "jets-poincare": _check_table,
    "jets-greenberg": _check_table, "jets-oesterle": _check_table,
    "semialg": _check_semialg, "zdelta": _check_zdelta,
    "volume-polyhedra": _check_volume_polyhedra, "genfun": _check_genfun,
    "volume": _check_volume, "chi-model": _check_chi_model,
    "hodge-model": _check_hodge_model, "chi-literal": _check_chi_literal,
    "hodge-literal": _check_hodge_literal, "series-expand": _check_series_expand,
    "series-limit": _check_series_limit, "series-check": _check_series_check,
}


def make_jobs(workload: str, seed: int, count: Optional[int] = None) -> List[Job]:
    """The first ``count`` jobs of the seeded stream of a workload."""
    strata = WORKLOADS[workload]
    count = STREAM_LENGTH[workload] if count is None else count
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Job] = []
    while len(jobs) < count:
        for name, gen in rng.sample(strata, len(strata)):
            if len(jobs) == count:
                break
            argv, files, params = gen(rng, len(jobs))
            jobs.append(Job(name, argv, files, params))
    return jobs


def job_list_hash(jobs: Sequence[Job]) -> str:
    blob = json.dumps([j.spec() for j in jobs], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check(job: Job, rc: int, out: str) -> Optional[str]:
    """None when the job's exit code and output are right, else why not.
    Every job of every workload is expected to exit 0."""
    from motivic.errors import MotivicError

    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        return _CHECKS[job.params["check"]](job.params, out)
    except (ValueError, KeyError, IndexError, ZeroDivisionError, MotivicError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
