"""Arcs of monomial curves: an oracle for the certified jet tables.

Every arc over F_q[[t]] of the curve (sigma^a_1, ..., sigma^a_N) with
gcd(a_i) = 1, such as y^a = x^b with gcd(a, b) = 1, is that tuple for
exactly one sigma: with u_1 a_1 + ... + u_N a_N = 1, sigma is the monomial
prod x_i^u_i in the coordinates.  So pi_n(L(X))(F_q) is the set of the
tuples mod t^(n+1), which `arc_count` enumerates without the jet engine, and
`plane_arc_closed_form` is its closed form for y^a = x^b where p does not
divide a.
"""
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motivic.cli import main
from motivic.jets import JetVariety, stabilized_table
from motivic.parsing import parse_int_poly


def series_power(u, a, m, q):
    """u^a mod (q, t^m), for a coefficient tuple u of length >= m."""
    out = [1] + [0] * (m - 1) if m else []
    for _ in range(a):
        out = [sum(out[i] * u[k - i] for i in range(k + 1)) % q for k in range(m)]
    return out


def arc_count(exps, q, n):
    """|{(sigma^a_1, ..., sigma^a_N) mod t^(n+1) : sigma in F_q[[t]]}| for
    exponents with gcd 1, split on k = ord sigma.  The units give (q - 1) q^n
    tuples, one per sigma mod t^(n+1), since (sigma/tau)^a_i = 1 for every i
    forces sigma = tau; every sigma with k min(a_i) > n gives the zero tuple;
    and for each other k >= 1 the tuples t^(a_i k) u^a_i are enumerated over
    the units u mod t^(n + 1 - k min(a_i)), on which they depend.  Tuples
    from different k differ in the order of the coordinate of least a_i."""
    low = min(exps)
    total = (q - 1) * q ** n + 1
    for k in range(1, n // low + 1):
        units = itertools.product(range(1, q), *[range(q)] * (n - k * low))
        total += len({tuple(tuple(series_power(u, a, max(0, n + 1 - a * k), q)) for a in exps)
                      for u in units})
    return total


def plane_arc_closed_form(a, b, q, n):
    """arc_count((a, b), q, n) for a < b coprime and p not dividing a:
    (q - 1) q^n + 1 + sum_{1 <= k <= n/a} (q - 1) q^(n-ak) / g_k, with g_k = 1
    if bk <= n, else gcd(a, q - 1).  The sigma of order k give (q - 1)
    q^(n-ak) values of x = sigma^a, since u -> u^a is injective on the
    1-units when p does not divide a, and y tells apart the a-th roots of
    unity that u^a cannot only when bk <= n."""
    g = math.gcd(a, q - 1)
    return (q - 1) * q ** n + 1 + sum((q - 1) * q ** (n - a * k) // (1 if b * k <= n else g)
                                      for k in range(1, n // a + 1))


@st.composite
def coprime_curves(draw):
    """(a, b, q, n): a < b <= 7 coprime, q in {2, 3, 5, 7} prime to a, and
    n <= 6, except that x = sigma gives a = 1 at q = 7 the enumeration of
    6 * 7^5 units at n = 6, so there n <= 5."""
    a, b = draw(st.sampled_from([(a, b) for b in range(2, 8) for a in range(1, b)
                                 if math.gcd(a, b) == 1]))
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7) if a % q]))
    return a, b, q, draw(st.integers(0, 5 if (a, q) == (1, 7) else 6))


class TestOracle:
    @settings(max_examples=30, deadline=None)
    @example(curve=(2, 3, 5, 6))
    @example(curve=(3, 10, 7, 6))
    @given(curve=coprime_curves())
    def test_closed_form_is_the_enumeration(self, curve):
        a, b, q, n = curve
        assert arc_count((a, b), q, n) == plane_arc_closed_form(a, b, q, n)

    def test_closed_form_needs_p_prime_to_a(self):
        # y^2 = x^3 at q = 2: the closed form counts 11 at n = 3, the arcs 10
        assert (arc_count((2, 3), 2, 3), plane_arc_closed_form(2, 3, 2, 3)) == (10, 11)

    def test_space_curve(self):
        # y^2 = x^3, z^2 = xy has the arcs (sigma^4, sigma^6, sigma^5)
        assert [arc_count((4, 6, 5), 5, n) for n in range(6)] == [5, 21, 101, 501, 2502, 12521]


def plane_curve(text):
    return JetVariety(2, [parse_int_poly(text, ("x", "y"))], 1, ("x", "y"))


# Each table certified to the oracle under a budget of exactly the units it
# takes, with gamma(n), the first level n + j at which the image count meets
# the oracle: y^2 - x^3 at q = 5 and 3, y^2 - x^5 at q = 3 and y^4 - x^9 and
# y^3 - x^10 at q = 2 are rows that three equal image counts in a row
# reported wrong; y^2 - x^3 and y^4 - x^9 at q = 2 and y^3 - x^5 at q = 3
# have p | a, where only the enumeration applies
@pytest.mark.parametrize("text, exps, q, n_max, j_max, units, gammas", [
    ("y^2 - x^3", (2, 3), 5, 6, 4, 3_149, [0, 3, 6, 9, 12, 15, 18]),
    ("y^2 - x^3", (2, 3), 3, 5, 2, 211, [0, 3, 6, 9, 12, 15]),
    ("y^2 - x^3", (2, 3), 2, 3, 1, 25, [0, 3, 4, 9]),
    ("y^2 - x^5", (2, 5), 3, 4, 6, 4_238, [0, 5, 10, 15, 20]),
    ("y^3 - x^4", (3, 4), 2, 4, 4, 372, [0, 4, 8, 9, 16]),
    ("y^3 - x^5", (3, 5), 3, 3, 2, 1_006, [0, 5, 10, 10]),
    ("y^4 - x^9", (4, 9), 2, 2, 7, 7_141, [0, 9, 18]),
    ("y^3 - x^10", (3, 10), 2, 3, 7, 10_780, [0, 10, 20, 20]),
    ("y^5 - x^11", (5, 11), 2, 1, 4, 357, [0, 11]),
])
def test_certified_tables(text, exps, q, n_max, j_max, units, gammas):
    rows = stabilized_table(plane_curve(text), q, n_max, j_max, budget=units)
    assert [(row.N_n, row.stable, row.gamma) for row in rows] == \
        [(arc_count(exps, q, n), True, gamma) for n, gamma in enumerate(gammas)]


def run_table(tmp_path, capsys, body, argv):
    path = tmp_path / "curve.model"
    path.write_text("kind = variety\n" + body)
    code = main([argv[0], str(path)] + argv[1:])
    out, err = capsys.readouterr()
    return code, out, err


def test_deep_row_is_an_upper_bound(tmp_path, capsys):
    # at q = 2 the level-2 row of y^5 - x^11 needs a search to level 11,
    # where it is certified as 5; at the default depth 6 below it, some of
    # its open jets stay undecided
    code, out, err = run_table(tmp_path, capsys, "vars = x y\ndimension = 1\npoly = y^5 - x^11\n",
                               ["jets-poincare", "--q", "2", "--n-max", "2"])
    assert (code, err) == (0, "")
    n, N_n, stable = out.splitlines()[-1].split(",")
    assert (n, stable) == ("2", "0") and int(N_n) >= arc_count((5, 11), 2, 2) == 5


def test_space_curve_row(tmp_path, capsys):
    # two equations: over the singular point only exact arcs and dead
    # branches decide, and they decide every level-3 jet
    code, out, err = run_table(
        tmp_path, capsys, "vars = x y z\ndimension = 1\npoly = y^2 - x^3\npoly = z^2 - x*y\n",
        ["jets-greenberg", "--q", "5", "--n-max", "3", "--budget", "17001"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"3,{arc_count((4, 6, 5), 5, 3)},9,1" == "3,501,9,1"
