"""Finite-field jet enumeration and semi-algebraic counting."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from motivic import jets
from motivic.errors import BudgetExceeded, Unstable, ValidationError
from motivic.jets import (UNKNOWN, JetPoint, JetVariety, count_semialg,
                          enumerate_jet_points, enumerate_jets, eval_semialg,
                          image_count, oesterle_sequence, ord_cmp, ord_mod,
                          parse_semialg, poincare_table, stabilized_count,
                          stabilized_table)
from motivic.parsing import parse_int_poly
from motivic.presburger import And, Not, Or


def variety(texts, d, names):
    return JetVariety(len(names), [parse_int_poly(t, names) for t in texts],
                      d, names)


NODE = variety(["x*y"], 1, ("x", "y"))
LINE = variety(["y"], 1, ("x", "y"))
PLANE = variety([], 2, ("x", "y"))
CUSP = variety(["y^2 - x^3"], 1, ("x", "y"))
A1 = variety([], 1, ("x",))
CONIC = variety(["x^2 + y^2 - 1"], 1, ("x", "y"))


class TestEnumerate:
    def test_hyperplane(self):
        assert enumerate_jets(LINE, 2, 3) == 27

    def test_node_level_one(self):
        assert enumerate_jets(NODE, 1, 2) == 8

    def test_affine_space(self):
        for n, q in ((0, 2), (3, 2), (2, 5)):
            assert enumerate_jets(A1, n, q) == q ** (n + 1)
            assert enumerate_jets(PLANE, n, q) == q ** (2 * (n + 1))

    def test_points_satisfy_equations(self):
        pts = list(enumerate_jet_points(NODE, 2, 3))
        assert len(pts) == enumerate_jets(NODE, 2, 3)
        assert len({p.coords for p in pts}) == len(pts)
        from motivic.jets import _poly_eval_series

        for p in pts:
            assert _poly_eval_series(NODE.polys[0], p.coords, 2, 3) == [0, 0, 0]

    def test_q_validation(self):
        with pytest.raises(ValidationError):
            enumerate_jets(A1, 1, 4)
        with pytest.raises(ValidationError):
            enumerate_jets(A1, 1, 101)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_jets(NODE, 6, 3, budget=10)

    def test_closed_form_at_smooth_points(self):
        # every F_3-point of the conic is smooth, so the count is Hensel's
        # closed form and costs only the 9 steps of the level-0 scan
        assert enumerate_jets(CONIC, 60, 3, budget=50) == \
            len(plane_points(CONIC, 3)) * 3 ** 60

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        q = data.draw(st.sampled_from([2, 3]), label="q")
        n = data.draw(st.integers(0, 3 if q == 2 else 2), label="n")
        poly = data.draw(st.dictionaries(
            st.sampled_from([(a, b) for a in range(4) for b in range(4 - a)]),
            st.integers(-2, 2)), label="poly")
        X = JetVariety(2, [poly], 1, ("x", "y"))
        points = [p.coords for p in enumerate_jet_points(X, n, q)]
        expected = brute_force_jets(poly, n, q)
        assert enumerate_jets(X, n, q) == len(points) == len(expected)
        assert set(points) == expected

    # carried monomials two steps from a coordinate (x^2 y = x * xy,
    # x^3 = x * x^2), read back at depth 3 and more, at points off the origin
    @pytest.mark.parametrize("text, q", [
        ("x^2*y + y + 1", 3), ("x^2*y + y + 1", 5), ("y^2 - x^3 + 1", 3),
        ("x^3 + x*y^2 - y + 1", 3), ("x^2*y - x*y^2 + x - 1", 2)])
    def test_deep_points_are_jets(self, text, q):
        X = variety([text], 1, ("x", "y"))
        poly = X.polys[0]
        top = max(max(m) for m in poly)
        n = 4
        points = [p.coords for p in enumerate_jet_points(X, n, q)]
        assert len(set(points)) == len(points) == enumerate_jets(X, n, q) > 0
        for xs, ys in points:
            assert vanishes(poly, series_powers(xs, top, n),
                            series_powers(ys, top, n), q)


class TestImageCount:
    def test_hensel_for_smooth_fixtures(self):
        for X in (PLANE, LINE):
            for j in range(3):
                assert image_count(X, 2, j, 3) == enumerate_jets(X, 2, 3)

    def test_smooth_conic(self):
        # q = 3 does not divide the discriminant of x^2 + y^2 - 1
        base = image_count(CONIC, 2, 0, 3)
        for j in (1, 2):
            assert image_count(CONIC, 2, j, 3) == base

    def test_node_documented_values(self):
        assert image_count(NODE, 1, 0, 2) == 8
        assert image_count(NODE, 1, 1, 2) == 7
        assert image_count(NODE, 1, 2, 2) == 7

    def test_monotone_in_j(self):
        for X in (NODE, CUSP):
            for n in range(3):
                counts = [image_count(X, n, j, 2) for j in range(4)]
                assert counts == sorted(counts, reverse=True)


class TestStabilized:
    def test_smooth(self):
        res = stabilized_count(LINE, 3, 2, 4)
        assert (res.N_n, res.gamma, res.stable) == (2 ** 4, 3, True)

    def test_node_counts(self):
        for q in (2, 3):
            for n in range(5):
                res = stabilized_count(NODE, n, q, j_max=n + 2)
                assert res.stable
                assert res.N_n == 2 * q ** (n + 1) - 1

    def test_unstable_flag(self):
        # the four level-3 jets (a t^2, 0), a != 0, of y^2 - x^3 at q = 5
        # are open, and a search to level 3 leaves them undecided: the count
        # is the upper bound 521 + 4 (the node's rows are certified at
        # j_max = 0, since its one open jet, the zero jet, is an arc)
        res = stabilized_count(CUSP, 3, 5, j_max=0)
        assert (res.N_n, res.stable, res.gamma, res.counts) == (525, False, None, [1125, 4])
        assert stabilized_count(NODE, 3, 2, j_max=0).stable

    def test_counts_level_n_jets(self):
        res = stabilized_count(NODE, 1, 2, 4)
        assert (res.N_n, res.gamma, res.stable, res.counts) == (7, 2, True, [8, 0])


class TestGreenberg:
    def test_smooth_equals_n(self):
        assert stabilized_count(LINE, 3, 2, 4).gamma == 3

    def test_node(self):
        # level-n jets (c t^n, d t^n), cd != 0, of xy reach level 2n - 1
        assert stabilized_count(NODE, 1, 2, 4).gamma == 2
        assert stabilized_count(NODE, 2, 2, 6).gamma == 4

    def test_unstable_row_has_no_gamma(self):
        assert stabilized_count(CUSP, 3, 5, 0).gamma is None

    def test_semialg_unstable_names_level_and_depth(self):
        cond = parse_semialg("(ordmod {x} 2 0)", ("x", "y"))
        with pytest.raises(Unstable, match=r"^level-3 arcs not certified: 4 open level-3 "
                                           r"jets undecided after a search to level 3$"):
            count_semialg(CUSP, cond, 3, 5, j_max=0)


class TestTables:
    def test_poincare_line(self):
        table = poincare_table(LINE, 2, 3, 4)
        assert [row[1] for row in table] == [2, 4, 8, 16]
        assert all(row[2] for row in table)

    def test_poincare_node(self):
        table = poincare_table(NODE, 2, 3, 6)
        assert [row[1] for row in table] == [3, 7, 15, 31]

    def test_oesterle_node(self):
        seq = oesterle_sequence(NODE, 2, 4, 8)
        assert seq == [2 - Fraction(1, 2 ** (n + 1)) for n in range(5)]
        diffs = [b - a for a, b in zip(seq, seq[1:])]
        assert all(d2 == d1 / 2 for d1, d2 in zip(diffs, diffs[1:]))

    def test_oesterle_smooth_constant(self):
        assert len(set(oesterle_sequence(LINE, 3, 3, 2))) == 1

    def test_dimension_bound(self):
        # N_n <= C q^{(n+1)d} with C = branches + 1
        for X, branches in ((NODE, 2), (CUSP, 1), (LINE, 1)):
            for n, N_n, stable in poincare_table(X, 2, 3, 6):
                assert stable
                assert N_n <= (branches + 1) * 2 ** ((n + 1) * X.d)

    def test_determinism_across_worker_counts(self):
        res = stabilized_count(NODE, 2, 2, 5)
        assert (res.N_n, res.gamma, res.stable) == (15, 4, True)

    # CUSP is y^2 - x^3.  A table searches its row n to level n_max + j_max,
    # and one row to level n + j_max, so the table decides every jet that
    # the row decides, the same way
    @pytest.mark.parametrize("X, q", [
        (X, q) for X in (NODE, CUSP, LINE, CONIC,
                         variety(["y^2 - x^5"], 1, ("x", "y")),
                         variety(["y^3 - x^4"], 1, ("x", "y")))
        for q in (2, 3)])
    def test_table_matches_per_level_counts(self, X, q):
        table = stabilized_table(X, q, 3, 5)
        assert len(table) == 4
        for n, row in enumerate(table):
            res = stabilized_count(X, n, q, 5)
            assert row == res if res.stable else row.N_n <= res.N_n
            assert row.counts[0] == res.counts[0] == enumerate_jets(X, n, q)

    # gamma(n) = n on smooth varieties, where every jet lifts; the node's
    # arcs are its two lines, and its jets (c t^n, d t^n), cd != 0, reach
    # level 2n - 1
    @pytest.mark.parametrize("X, counts, gamma", [
        (PLANE, lambda n: 4 ** (n + 1), lambda n: n),
        (A1, lambda n: 2 ** (n + 1), lambda n: n),
        (LINE, lambda n: 2 ** (n + 1), lambda n: n),
        (NODE, lambda n: 2 ** (n + 2) - 1, lambda n: 2 * n)])
    def test_smooth_and_node_rows_are_certified(self, X, counts, gamma):
        for n, row in enumerate(stabilized_table(X, 2, 4, 4)):
            assert (row.N_n, row.stable, row.gamma) == (counts(n), True, gamma(n))

    # the rows are the closed form of the arcs (sigma^2, sigma^3) (see
    # test_arcs.py): (q - 1) q^n + 1 + sum_{1 <= k <= n/2} (q - 1) q^(n-2k),
    # halved where 3k > n, with gamma(n) = 3n
    def test_cusp_table_at_five(self):
        rows = [(row.N_n, row.gamma, row.stable) for row in stabilized_table(CUSP, 5, 5, 4)]
        assert rows == [(5, 0, True), (21, 3, True), (103, 6, True), (521, 9, True),
                        (2603, 12, True), (13011, 15, True)]

    def test_cusp_table_at_six_within_budget(self):
        # only the open jets over the origin (grad f = 0 mod t^(s+1) and
        # f = 0 mod t^(2s+2)) are expanded; a search of all 390,625 level-6
        # jets over the origin needs 472,676 units
        rows = stabilized_table(CUSP, 5, 6, 4, budget=10_000)
        assert [row.N_n for row in rows] == [5, 21, 103, 521, 2603, 13011, 65103]
        assert all(row.stable for row in rows)

    @pytest.mark.parametrize("q", [3, 5, 7])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_cusp_image_oracle(self, q, n):
        # at odd q the level-n truncations of arcs of y^2 - x^3 number
        # (q-1) q^n + 1 + sum_{1<=k<=n/2} c_k, c_k counting the arcs
        # (sigma^2, sigma^3) with ord sigma = k: sigma^2 fixes sigma up to
        # sign, and sigma^3 fixes the sign once 3k <= n, so c_k = (q-1)
        # q^(n-2k), halved when 3k > n.  Depth 2n reaches that count
        # (gamma(n) = 3n) and depth 2n - 1 does not
        arcs = (q - 1) * q ** n + 1 + sum(
            (q - 1) * q ** (n - 2 * k) // (1 if 3 * k <= n else 2)
            for k in range(1, n // 2 + 1))
        assert image_count(CUSP, n, 2 * n, q) == arcs
        assert image_count(CUSP, n, 2 * n - 1, q) > arcs

    def test_smooth_table_is_closed_form(self):
        points = len(plane_points(CONIC, 5))
        for n, row in enumerate(stabilized_table(CONIC, 5, 20, 4, budget=30)):
            assert row.stable
            assert row.N_n == points * 5 ** n

    def test_one_reduction_per_point(self, monkeypatch):
        calls = []
        original = jets._Base.__init__
        monkeypatch.setattr(jets._Base, "__init__",
                            lambda self, *args: calls.append(1) or original(self, *args))
        stabilized_table(NODE, 3, 3, 5)
        assert len(calls) == len(plane_points(NODE, 3)) == 5

    def test_budget_caps_the_whole_table(self):
        # one budget covers every row, and the rows share their searches
        rows = [least_budget(lambda b: stabilized_count(NODE, n, 2, 4, budget=b))
                for n in range(3)]
        whole = least_budget(lambda b: stabilized_table(NODE, 2, 2, 4, budget=b))
        assert max(rows) <= whole < sum(rows)

    def test_rows_draw_on_one_budget(self, monkeypatch):
        # one lifter, whose count of expansions runs on across the rows and
        # is exactly what the whole table needs; a fresh lifter or count per
        # row would leave a count below that
        lifters = []
        original = jets._Lifter.__init__
        monkeypatch.setattr(jets._Lifter, "__init__",
                            lambda self, *args: lifters.append(self) or original(self, *args))
        stabilized_table(NODE, 2, 2, 4, budget=10 ** 6)
        assert len(lifters) == 1
        monkeypatch.undo()
        whole = least_budget(lambda b: stabilized_table(NODE, 2, 2, 4, budget=b))
        assert lifters[0].expansions == whole


# image_count(X, n, 0, q) on four curves: the count, and where each budget
# below the units it uses runs out, one character per budget from 0: "-"
# while scanning level-0 points, else the level of the jet being expanded.
# A stop string's length is the number of units the count uses; the double
# line is 4(y + 1)^2 (2x + y - 1) at q = 3.
LAST_LEVEL_CASES = [
    pytest.param("y^3 - x^5", 2, 8, 8448,
                 "----0123444434444344443444423333234444344443444434444233331122221",
                 id="y3-x5-q2-n8"),
    pytest.param("8*x*y^2 + 16*x*y + 8*x + 4*y^3 + 4*y^2 - 4*y - 4", 3, 4, 4293,
                 "---------0122222222211122222222211122222222211012222222221112222222221"
                 "22222222211222222222112222222220122222222211122222222211122222222211",
                 id="double-line-q3-n4"),
    pytest.param("x*y", 5, 7, 2890625, "-" * 25 + "012" + "3" * 25 + "2" * 24 + "1" * 24,
                 id="node-q5-n7"),
    pytest.param("y^2 - x^3", 5, 6, 453125,
                 "-" * 25 + "012" + ("3" * 25 + "2" * 5) * 4 + "3" * 25 + "2" * 4 + "1" * 24,
                 id="cusp-q5-n6"),
]


@st.composite
def plane_curves(draw):
    """One random plane curve; about half have no terms of degree below 2,
    so that the origin is a singular point."""
    low = draw(st.sampled_from([0, 2]), label="lowest degree")
    monomials = [m for m in itertools.product(range(5), repeat=2) if low <= sum(m) <= 4]
    poly = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-2, 2),
                                min_size=1, max_size=4), label="f")
    return JetVariety(2, [poly], 1)


class TestLastLevel:
    """The level-n jets over an open level-(n // 2 - 1) jet of one equation
    are counted off their records; only an open one at odd n is built."""

    @pytest.mark.parametrize("text, q, n, count, stops", LAST_LEVEL_CASES)
    def test_count_units_and_refusals(self, text, q, n, count, stops):
        X = variety([text], 1, ("x", "y"))
        assert image_count(X, n, 0, q, budget=len(stops)) == count
        for budget, stop in enumerate(stops):
            where = ("scanning level-0 points" if stop == "-"
                     else f"expanding a level-{stop} jet")
            with pytest.raises(BudgetExceeded) as exc:
                image_count(X, n, 0, q, budget=budget)
            assert str(exc.value) == (
                f"jet enumeration exceeded the budget of {budget} node expansions:"
                f" all {budget} units used, stopped while {where}")

    # x^4 stays open over x = 0 at every level, so at odd n the open
    # children are built and lifted; the node and the cusp close
    @settings(max_examples=50, deadline=None)
    @example(X=variety(["x^4"], 1, ("x", "y")), q=3, n=5)
    @example(X=variety(["x^4"], 1, ("x", "y")), q=2, n=6)
    @example(X=CUSP, q=5, n=5)
    @example(X=NODE, q=3, n=6)
    @given(X=plane_curves(), q=st.sampled_from([2, 3, 5]), n=st.integers(0, 6))
    def test_count_equals_built_jets(self, X, q, n):
        try:
            count = enumerate_jets(X, n, q, budget=500)
            built = sum(1 for _ in enumerate_jet_points(X, n, q, budget=2000))
        except BudgetExceeded:
            assume(False)
        assert count == built


def random_poly(n_vars):
    monomials = [m for m in itertools.product(range(4), repeat=n_vars)
                 if sum(m) <= 3]
    return st.dictionaries(st.sampled_from(monomials), st.integers(-2, 2),
                           max_size=5)


@st.composite
def small_varieties(draw):
    """A plane curve, or two equations in three variables."""
    n_vars = draw(st.sampled_from([2, 3]), label="N")
    polys = [draw(random_poly(n_vars), label=f"f{i}") for i in range(n_vars - 1)]
    return JetVariety(n_vars, polys, 1)


def gradient_order(poly, node, q):
    """min_u ord df/dx_u(x(t)) over a node of level s, or s + 1 if every
    derivative vanishes mod t^(s+1)."""
    s = len(node[0][0]) - 1
    N = len(next(iter(poly)))
    derivs = (jets._poly_eval_series(jets._poly_derivative(poly, u), node[0][:N], s, q)
              for u in range(N))
    return min(next((i for i, c in enumerate(d) if c), s + 1) for d in derivs)


def dfs_leaves(lifter, node, n):
    """Level-n jets over a node, counted by building them."""
    return sum(1 for _ in lifter.descendants(node, n - len(node[0][0]) + 1))


class TestTailKernel:
    @settings(max_examples=80, deadline=None)
    @given(X=small_varieties(), q=st.sampled_from([2, 3, 5]), data=st.data())
    def test_count_matches_search(self, X, q, data):
        # one solve counts to level 2s + 1, and to 2s + 3 and beyond over a
        # node of one equation with e = min_u ord df/dx_u(x(t)) <= s
        s = data.draw(st.integers(1, 2 if q < 5 else 1), label="s")
        lifter = jets._Lifter(X, q, budget=1000)
        try:
            for root in lifter.level0():
                for node in lifter.descendants(root, s):
                    closed = len(lifter.polys) == 1 and \
                        gradient_order(lifter.polys[0], node, q) <= s
                    counts = {n: dfs_leaves(lifter, node, n)
                              for n in range(s + 1, 2 * s + (4 if closed else 2))}
                    for n, count in counts.items():
                        reach, dim = lifter.lift(node, n)
                        assert (q ** dim if reach == n else 0) == count
                    assert lifter.lift(node, 2 * s + 1)[0] == \
                        max([s] + [n for n, count in counts.items()
                                   if count and n <= 2 * s + 1])
                    if closed:
                        assert lifter.closed(node) is not None
        except BudgetExceeded:
            assume(False)

    @settings(max_examples=60, deadline=None)
    @given(X=small_varieties(), q=st.sampled_from([2, 3]), data=st.data())
    def test_extends_exactly_when_search_finds_a_jet(self, X, q, data):
        level = data.draw(st.integers(0, 2), label="level")
        lifter = jets._Lifter(X, q, budget=1000)
        try:
            for root in lifter.level0():
                for node in lifter.descendants(root, level):
                    for n in range(level, 2 * level + 5):
                        plain = next(lifter.descendants(node, n - level), None)
                        assert lifter.can_extend(node, n) == (plain is not None)
        except BudgetExceeded:
            assume(False)

    def test_one_budget_unit_per_call(self):
        lifter = jets._Lifter(CUSP, 3, budget=10 ** 6)
        origin = next(root for root in lifter.level0() if not root[1].smooth)
        before = lifter.expansions
        assert lifter.lift(origin, 0) == (0, 0)
        assert lifter.expansions == before
        for n in (1, 2, 3):
            node = next(lifter.descendants(origin, n // 2))
            before = lifter.expansions
            lifter.lift(node, n)
            assert lifter.expansions == before + 1


class TestOnePassTable:
    @settings(max_examples=40, deadline=None)
    @given(X=small_varieties(), q=st.sampled_from([2, 3]), data=st.data())
    def test_one_pass_equals_per_row_counts(self, X, q, data):
        n_max = data.draw(st.integers(0, 3), label="n_max")
        j_max = data.draw(st.integers(0, 4), label="j_max")
        try:
            table = stabilized_table(X, q, n_max, j_max, budget=3000)
            rows = [stabilized_count(X, n, q, j_max, budget=3000)
                    for n in range(n_max + 1)]
        except BudgetExceeded:
            assume(False)
        # the table searches deeper below its lower rows, and decides
        # every jet that a row alone decides, the same way
        for row, res in zip(table, rows):
            assert row == res if res.stable else row.N_n <= res.N_n


class TestCertificate:
    # the cusp has the arcs (a t^2, b t^3), a^3 = b^2, among its level-3 jets
    @settings(max_examples=40, deadline=None)
    @example(X=CUSP, q=5, depth=3)
    @given(X=small_varieties(), q=st.sampled_from([2, 3]), depth=st.integers(0, 3))
    def test_arcs_are_the_evaluation(self, X, q, depth):
        # each node asked after another one: f(x(t)) from scratch on its
        # polynomial representative x, of degree <= s deg f
        lifter = jets._Lifter(X, q, budget=3000)
        try:
            nodes = [node for root in lifter.level0() for node in lifter.descendants(root, depth)]
            for node in nodes[::-1]:
                coords = node[0][:X.N]
                assert lifter.is_arc(node) == (not any(
                    any(jets._poly_eval_series(p, coords, depth * max(map(sum, p)), q))
                    for p in lifter.polys))
        except BudgetExceeded:
            assume(False)

    # a plane curve to n = 3, or two equations in three variables to n = 1;
    # 3x^2 + 2 at q = 2 is x^2 with its double line, where every jet over
    # x = 0 stays open and only the exact arcs (0, y) are in
    @settings(max_examples=40, deadline=None)
    @example(X=variety(["3*x^2 + 2"], 1, ("x", "y")), q=2, n_max=2)
    @example(X=variety(["y^2 - x^3", "z^2 - x*y"], 1, ("x", "y", "z")), q=2, n_max=1)
    @given(X=small_varieties(), q=st.sampled_from([2, 3]), n_max=st.integers(0, 3))
    def test_certified_rows_are_image_counts(self, X, q, n_max):
        # a certified N_n is at most the image count at every depth j, and
        # equals it from depth gamma(n) - n on; one depth less counts more,
        # unless gamma(n) = n
        assume(X.N == 2 or n_max <= 1)
        try:
            for n, row in enumerate(stabilized_table(X, q, n_max, 3, budget=3000)):
                if row.stable:
                    j = row.gamma - n
                    counts = [image_count(X, n, i, q, budget=20_000) for i in range(j + 2)]
                    assert min(counts) == counts[j] == counts[j + 1] == row.N_n
                    assert j == 0 or counts[j - 1] > row.N_n
        except BudgetExceeded:
            assume(False)


@st.composite
def one_equation(draw):
    """One random equation in two or three variables."""
    n_vars = draw(st.sampled_from([2, 3]), label="N")
    return JetVariety(n_vars, [draw(random_poly(n_vars), label="f")], n_vars - 1)


class TestClosedSubtrees:
    # y^2 - x^3 at q = 2, where df/dy = 2y vanishes, and x^4, whose nodes
    # over x = 0 stay open at every level
    @settings(max_examples=60, deadline=None)
    @example(X=CUSP, q=2, n_max=2, j_max=2)
    @example(X=variety(["x^4"], 1, ("x", "y")), q=3, n_max=2, j_max=1)
    @example(X=variety(["x^4"], 1, ("x", "y")), q=2, n_max=1, j_max=2)
    @given(X=one_equation(), q=st.sampled_from([2, 3, 5]),
           n_max=st.integers(0, 2), j_max=st.integers(0, 2))
    def test_rows_match_built_jets(self, X, q, n_max, j_max):
        # counts[0] is the number of level-n jets, and a certified N_n the
        # number of level-n truncations of the level-gamma(n) jets, each
        # built one by one; enumerate_jets counts that stream
        try:
            table = stabilized_table(X, q, n_max, j_max, budget=3000)
            built = {}
            for n, row in enumerate(table):
                for m, count in ((n, row.counts[0]), (row.gamma, row.N_n)):
                    if m is None:
                        continue
                    if m not in built:
                        built[m] = [p.coords for p in enumerate_jet_points(X, m, q, budget=300)]
                    assert count == len({tuple(c[:n + 1] for c in coords)
                                         for coords in built[m]})
            for m, coords in built.items():
                assert enumerate_jets(X, m, q, budget=3000) == len(coords)
        except BudgetExceeded:
            assume(False)

    @pytest.mark.parametrize("n_max, units", [(6, 3_149), (8, 14_484)])
    def test_cusp_table_budget(self, n_max, units):
        # one unit per node asked, whether its scan is read off its record
        # or computed from its series: the tree to level n_max, and below
        # its open level-n_max jets the search to level n_max + 4
        lifter = jets._Lifter(CUSP, 5, budget=10 ** 6)
        tree = jets._Tree(lifter, n_max, 4)
        before = lifter.expansions
        for n in range(n_max, -1, -1):
            tree.row(n)
        assert lifter.expansions == before == units

    def test_closed_nodes_are_not_expanded(self):
        # a level-s jet of y^2 - x^3 at q = 5 is open when grad f = 0 mod
        # t^(s+1) and f = 0 mod t^(2s+2), i.e. ord y >= s + 1 and
        # ord x >= 2(s + 1) / 3: q^floor((s+1)/3) jets, all over the origin
        tree = jets._Tree(jets._Lifter(CUSP, 5, budget=10 ** 6), 6, 4)
        assert [len(level) for level in tree.reach] == \
            [5 ** ((s + 1) // 3) for s in range(7)]


@st.composite
def singular_at_origin(draw):
    """One random equation in two or three variables with no terms of
    degree below 2, so that the origin is a singular point."""
    n_vars = draw(st.sampled_from([2, 3]), label="N")
    monomials = [m for m in itertools.product(range(5), repeat=n_vars)
                 if 2 <= sum(m) <= 4]
    poly = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-2, 2),
                                min_size=1, max_size=4), label="f")
    return JetVariety(n_vars, [poly], n_vars - 1)


def scan_by_definition(poly, node, q):
    """(s, e, k*) of a level-s node of one equation from the definition, with
    e' = min_u ord df/dx_u(x(t)) (s + 1 if above s) and k the first level in
    (s, 2s + 1] where f(x(t)) is nonzero, each coordinate zero-padded:
    (s, k - s, k) where k - s <= e', else (s, e', inf) where e' <= s, else
    None (open); and e'."""
    s = len(node[0][0]) - 1
    e = gradient_order(poly, node, q)
    f = jets._poly_eval_series(poly, node[0][:len(next(iter(poly)))], 2 * s + 1, q)
    k = next((l for l in range(s + 1, 2 * s + 2) if f[l]), None)
    if k is not None and k - s <= e:
        return (s, k - s, k), e
    return (s, e, math.inf) if e <= s else None, e


class TestTaylorRecords:
    # y^2 - x^3 at q = 2, where d^2f/dy^2 = 2 vanishes but the Hasse
    # derivative D_y f = 1 puts a_y^2 in Q, and where (t, 0) is closed with
    # k* = 3, so its level-2 children inherit a finite k*; x*y^2 at q = 3,
    # where an open jet z = (x1 t, y1 t) has [grad f(z)]_2 = (y1^2, 0) != 0;
    # x*y at q = 2, where (t, 0) is closed with k* = inf and its child
    # (t, t^2) closes with k* = 3; and x^4, whose jets over x = 0 are open
    # at every level
    @settings(max_examples=60, deadline=None)
    @example(X=CUSP, q=2, depth=2)
    @example(X=variety(["x*y^2"], 1, ("x", "y")), q=3, depth=2)
    @example(X=NODE, q=2, depth=2)
    @example(X=variety(["x^4"], 1, ("x", "y")), q=2, depth=3)
    @given(X=st.one_of(one_equation(), singular_at_origin()),
           q=st.sampled_from([2, 3, 5]), depth=st.integers(0, 2))
    def test_record_equals_scan(self, X, q, depth):
        # every node to level depth + 1, roots and descendants of closed
        # jets included, answers closed and lift, n = s..2s+1, from its
        # record within one unit (none at a full-rank point) as the
        # definition does: lift counts q^((N-1)(m-s) + min(m-s, e')) level-m
        # extensions, m = min(n, k* - 1)
        lifter = jets._Lifter(X, q, budget=10_000)
        assume(lifter.polys)
        poly, N = lifter.polys[0], X.N
        try:
            stack = lifter.level0()
            while stack:
                y = stack.pop()
                s = len(y[0][0]) - 1
                before = lifter.expansions
                answers = [lifter.closed(y)] + [lifter.lift(y, n) for n in range(s, 2 * s + 2)]
                assert lifter.expansions == before + (not y[1].smooth)
                info, e = scan_by_definition(poly, y, q)
                k = math.inf if info is None else info[2]
                expected = [info] + [(min(n, k - 1), (N - 1) * (min(n, k - 1) - s)
                                      + min(min(n, k - 1) - s, e))
                                     for n in range(s, 2 * s + 2)]
                assert answers == expected
                if s <= depth and not y[1].smooth:
                    stack += lifter.children(y)
        except BudgetExceeded:
            assume(False)


def plane_points(X, q):
    return [pt for pt in itertools.product(range(q), repeat=2)
            if all(sum(c * pt[0] ** a * pt[1] ** b for (a, b), c in p.items()) % q == 0
                   for p in X.polys)]


def series_powers(s, top, n):
    """[s^0, ..., s^top] mod t^(n+1) for a coefficient tuple s."""
    out = [[1] + [0] * n]
    for _ in range(top):
        out.append([sum(out[-1][i] * s[k - i] for i in range(k + 1))
                    for k in range(n + 1)])
    return out


def vanishes(poly, px, py, q) -> bool:
    """poly(x(t), y(t)) = 0 mod (q, t^(n+1)), from the powers of x and y."""
    n = len(px[0]) - 1
    return all(sum(c * px[a][i] * py[b][k - i] for (a, b), c in poly.items()
                   for i in range(k + 1)) % q == 0 for k in range(n + 1))


def brute_force_jets(poly, n, q) -> set:
    """The pairs of series mod t^(n+1) on which poly vanishes mod t^(n+1),
    found among all q^(2n+2) pairs."""
    top = max((max(m) for m in poly), default=0)
    powers = {s: series_powers(s, top, n)
              for s in itertools.product(range(q), repeat=n + 1)}
    return {(xs, ys) for xs, ys in itertools.product(powers, repeat=2)
            if vanishes(poly, powers[xs], powers[ys], q)}


def least_budget(run) -> int:
    """Smallest budget under which run(budget) finishes."""
    def fits(budget):
        try:
            run(budget)
        except BudgetExceeded:
            return False
        return True

    hi = 1
    while not fits(hi):
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


X1 = parse_int_poly("x", ("x",))
ONE1 = parse_int_poly("1", ("x",))


class TestSemialg:
    def test_ord_comparison_decided(self):
        p = JetPoint(q=2, n=3, coords=((0, 0, 1, 0),))  # x = t^2
        assert eval_semialg(ord_cmp(X1, ONE1, (), 2), p) is True
        assert eval_semialg(ord_cmp(X1, ONE1, (), 3), p) is False

    def test_zero_truncation_unknown(self):
        p = JetPoint(q=2, n=2, coords=((0, 0, 0),))
        c_eq_3 = And((ord_cmp(X1, ONE1, (), 3), ord_cmp(ONE1, X1, (), -3)))
        assert eval_semialg(c_eq_3, p) == UNKNOWN
        # but ord >= 1 is decided: every possibility is >= 3
        assert eval_semialg(ord_cmp(X1, ONE1, (), 1), p) is True

    def test_parameters(self):
        p = JetPoint(q=3, n=4, coords=((0, 0, 0, 1, 0),))  # ord = 3
        c = ord_cmp(X1, ONE1, (1,), 0)  # ord x >= l
        assert eval_semialg(c, p, params=(3,)) is True
        assert eval_semialg(c, p, params=(4,)) is False

    def test_congruence_convention(self):
        p = JetPoint(q=2, n=2, coords=((0, 0, 0),))
        # modulus 1 is satisfied even by +infinity
        assert eval_semialg(ord_mod(X1, 1, 0), p) is True
        assert eval_semialg(ord_mod(X1, 2, 0), p) == UNKNOWN

    def test_angular_component(self):
        h = parse_int_poly("a1 - 1", ("a1",))
        from motivic.jets import ac_rel

        p = JetPoint(q=2, n=3, coords=((0, 0, 1, 1),))  # t^2 + t^3
        assert eval_semialg(ac_rel(h, [X1]), p) is True
        z = JetPoint(q=2, n=3, coords=((0, 0, 0, 0),))
        assert eval_semialg(ac_rel(h, [X1]), z) == UNKNOWN

    def test_kleene_or_not(self):
        p = JetPoint(q=2, n=2, coords=((0, 0, 0),))
        unknown = ord_mod(X1, 2, 0)
        assert eval_semialg(Or((unknown, True)), p) is True
        assert eval_semialg(Or((unknown, False)), p) == UNKNOWN
        assert eval_semialg(Not(unknown), p) == UNKNOWN

    def test_count_documented_examples(self):
        assert count_semialg(A1, ord_cmp(X1, ONE1, (), 1), 2, 3) == (9, 0)
        c_eq_5 = And((ord_cmp(X1, ONE1, (), 5), ord_cmp(ONE1, X1, (), -5)))
        assert count_semialg(A1, c_eq_5, 2, 3) == (0, 1)
        assert count_semialg(A1, ord_mod(X1, 2, 0), 3, 2) == (10, 1)

    def test_true_counts_every_image_point(self):
        # N_n = 2^(n+2) - 1 for the node over F_2: the jets over the smooth
        # points and the stabilized ones over the origin
        for n in range(4):
            assert count_semialg(NODE, True, n, 2) == (2 ** (n + 2) - 1, 0)

    def test_parse_semialg_roundtrip_behavior(self):
        c = parse_semialg("(and (ord>= {x} {1} 1) (ordmod {x} 2 0))", ("x",))
        p = JetPoint(q=2, n=3, coords=((0, 0, 1, 0),))
        assert eval_semialg(c, p) is True
        c2 = parse_semialg("(ord= {x} 2)", ("x",))
        assert eval_semialg(c2, p) is True
        c3 = parse_semialg("(ac= {a1 - 1} {x})", ("x",))
        assert eval_semialg(c3, p) is True

    def test_fibration_shadow(self):
        # excluding contact order <= e with the singular point, stabilized
        # counts scale by exactly q^d per level once n >= 2e (d = 1)
        q = 2
        x = parse_int_poly("x", ("x", "y"))
        y = parse_int_poly("y", ("x", "y"))
        one = parse_int_poly("1", ("x", "y"))
        for e in (0, 1):
            # ord x <= e or ord y <= e
            cond = Or((Not(ord_cmp(x, one, (), e + 1)),
                       Not(ord_cmp(y, one, (), e + 1))))
            counts = {}
            for n in range(max(1, 2 * e), 5):
                t, u = count_semialg(NODE, cond, n, q, j_max=n + 2)
                assert u == 0
                counts[n] = t
            for n in sorted(counts)[:-1]:
                assert counts[n + 1] == q ** NODE.d * counts[n]


PLANE_ATOMS = ["x", "y", "x - 1", "1", "x*y + x^3", "y^2 - x", "x + y + 1"]
SPACE_ATOMS = PLANE_ATOMS + ["z", "x*z - y^2", "z^2 + y"]


@st.composite
def plane_conditions(draw, depth=0, names=("x", "y"), params=()):
    """A condition tree over ord>=, ord=, ordmod and ac= atoms in x, y (and
    z, if named); with params, an ord offset may be its first parameter
    plus a constant."""
    if depth < 2 and draw(st.booleans()):
        kids = tuple(draw(plane_conditions(depth + 1, names, params)) for _ in range(2))
        return draw(st.sampled_from([And, Or]))(kids)
    kind = draw(st.sampled_from(["ord>=", "ord=", "ordmod", "ac="]))
    atoms = SPACE_ATOMS if "z" in names else PLANE_ATOMS
    f, g = (f"{{{draw(st.sampled_from(atoms))}}}" for _ in range(2))
    if kind == "ordmod":
        text = f"(ordmod {f} {draw(st.integers(1, 3))} {draw(st.integers(0, 2))})"
    elif kind == "ac=":
        text = f"(ac= {{a1*a2 - {draw(st.integers(0, 2))}}} {f} {g})"
    else:
        off = draw(st.integers(-1, 2))
        if params and draw(st.booleans()):
            off = f"{{{params[0]} + {off + 1}}}"
        text = f"({kind} {f} {g} {off})"
    return parse_semialg(text, names, params)


def scratch_tally(X, c, n, q, m):
    """(definitely_true, unknown) over the level-n jets that extend to level
    m, each jet built and asked on its own and the condition evaluated on it
    from scratch."""
    lifter = jets._Lifter(X, q, budget=10 ** 5)
    tally = {True: 0, UNKNOWN: 0, False: 0}
    for root in lifter.level0():
        for node in lifter.descendants(root, n):
            if lifter.can_extend(node, m):
                point = JetPoint(q=q, n=n, coords=node[0][:X.N])
                tally[eval_semialg(c, point)] += 1
    return tally[True], tally[UNKNOWN]


XYZ = ("x", "y", "z")


@st.composite
def space_varieties(draw):
    """One or two random equations in x, y, z."""
    polys = [draw(random_poly(3), label=f"f{i}")
             for i in range(draw(st.sampled_from([1, 2]), label="r"))]
    return JetVariety(3, polys, 3 - len(polys), XYZ)


class TestCarriedAtoms:
    @settings(max_examples=50, deadline=None)
    @given(poly=random_poly(2), c=plane_conditions(),
           q=st.sampled_from([2, 3]), data=st.data())
    def test_carried_equals_from_scratch(self, poly, c, q, data):
        X = JetVariety(2, [poly], 1, ("x", "y"))
        n = data.draw(st.integers(0, 3 if q == 2 else 2), label="n")
        j_max = data.draw(st.integers(0, 3), label="j_max")
        try:
            res = stabilized_count(X, n, q, j_max, budget=5000)
            assume(res.stable)
            got = count_semialg(X, c, n, q, j_max=j_max, budget=5000)
            assert got == scratch_tally(X, c, n, q, res.gamma)
        except BudgetExceeded:
            assume(False)

    # x*y in three variables, whose closed jets over the line x = y = 0
    # have e = 1 and lose extensions with the lifting depth, so each of
    # their level-n jets is asked for its own k*; and a space curve, where
    # only full-rank points are closed and the open survivors are counted
    @settings(max_examples=30, deadline=None)
    @example(X=variety(["x*y"], 2, XYZ), c=parse_semialg("(ord<= {x} {1} 2)", XYZ),
             q=2, n=2, j_max=2, split=True)
    @example(X=variety(["x*y", "z - x^2"], 1, XYZ),
             c=parse_semialg("(or (ord>= {y} {1} 1) (ac= {a1*a2 - 1} {x} {z}))", XYZ),
             q=3, n=2, j_max=2, split=False)
    @given(X=space_varieties(), c=plane_conditions(names=XYZ), q=st.sampled_from([2, 3]),
           n=st.integers(0, 2), j_max=st.integers(0, 3), split=st.just(False))
    def test_carried_equals_from_scratch_in_space(self, X, c, q, n, j_max, split):
        try:
            lifter = jets._Lifter(X, q, budget=5000)
            tree = jets._Tree(lifter, n, j_max)
            res = tree.row(n)
            assume(res.stable)
            # on a split example, some closed jet has level-n jets that do
            # not lift to level gamma(n)
            assert split <= any(
                lifter.closed_dim(info, n, res.gamma - n) not in
                (None, lifter.closed_dim(info, n, 0)) for _, info in tree.closed)
            got = count_semialg(X, c, n, q, j_max=j_max, budget=5000)
            assert got == scratch_tally(X, c, n, q, res.gamma)
        except BudgetExceeded:
            assume(False)

    def test_decided_subtrees_are_not_built(self, monkeypatch):
        # ord x mod 2 on A^1 is decided on every jet with x != 0: at q = 5,
        # n = 6 the walk expands only the zero jet at levels 0..5, six units
        # besides the five of the level-0 scan, not the 5^7 level-6 jets
        lifters = []
        original = jets._Lifter.__init__
        monkeypatch.setattr(jets._Lifter, "__init__",
                            lambda self, *args: lifters.append(self) or original(self, *args))
        assert count_semialg(A1, ord_mod(X1, 2, 0), 6, 5, budget=11) == (65104, 1)
        assert lifters[0].expansions == 11


class TestMonotone:
    @settings(max_examples=150, deadline=None)
    @given(c=plane_conditions(params=("l",)), q=st.sampled_from([2, 3]), data=st.data())
    def test_decided_truncation_agrees(self, c, q, data):
        # Kleene logic: an undetermined ord lies in [s+1, inf] and a longer
        # jet only narrows it, so a value decided on the level-s truncation
        # is the value on the level-n jet
        n = data.draw(st.integers(0, 4), label="n")
        coords = []
        for _ in range(2):
            # leading zeros first, so that ords often stay undetermined
            zeros = data.draw(st.integers(0, n + 1), label="zeros")
            rest = data.draw(st.lists(st.integers(0, q - 1), min_size=n + 1 - zeros,
                                      max_size=n + 1 - zeros), label="rest")
            coords.append((0,) * zeros + tuple(rest))
        params = (data.draw(st.integers(-1, 3), label="l"),)
        whole = eval_semialg(c, JetPoint(q, n, tuple(coords)), params)
        for s in range(n):
            part = eval_semialg(c, JetPoint(q, s, tuple(x[:s + 1] for x in coords)), params)
            assert part == UNKNOWN or part == whole
