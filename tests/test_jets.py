"""Finite-field jet enumeration and semi-algebraic counting."""
from fractions import Fraction

import pytest

from motivic.errors import BudgetExceeded, Unstable, ValidationError
from motivic.jets import (UNKNOWN, JetPoint, JetVariety, count_semialg,
                          enumerate_jet_points, enumerate_jets, eval_semialg,
                          greenberg_estimate, image_count, oesterle_sequence,
                          ord_cmp, ord_mod, parse_semialg, poincare_table,
                          stabilized_count, stabilized_table)
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
        assert (res.N_n, res.j_star, res.stable) == (2 ** 4, 0, True)

    def test_node_counts(self):
        for q in (2, 3):
            for n in range(5):
                res = stabilized_count(NODE, n, q, j_max=n + 2)
                assert res.stable
                assert res.N_n == 2 * q ** (n + 1) - 1

    def test_unstable_flag(self):
        res = stabilized_count(NODE, 3, 2, j_max=0)
        assert not res.stable

    def test_iterable(self):
        N_n, j_star, stable = stabilized_count(NODE, 1, 2, 4)
        assert (N_n, j_star, stable) == (7, 1, True)


class TestGreenberg:
    def test_smooth_equals_n(self):
        assert greenberg_estimate(LINE, 3, 2, 4) == 3

    def test_node(self):
        assert greenberg_estimate(NODE, 1, 2, 4) == 2
        assert greenberg_estimate(NODE, 2, 2, 6) == 4

    def test_unstable_raises(self):
        with pytest.raises(Unstable):
            greenberg_estimate(NODE, 3, 2, 0)


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
        assert (res.N_n, res.j_star, res.stable) == (15, 2, True)

    # CUSP is y^2 - x^3.  y^3 - x^4 runs at q = 2 only: at q = 3 its rows
    # n = 2, 3 do not stabilize within j_max = 5 and take about 50 s.
    @pytest.mark.parametrize("X, q", [
        (X, q) for X in (NODE, CUSP, LINE, CONIC,
                         variety(["y^2 - x^5"], 1, ("x", "y")))
        for q in (2, 3)] + [(variety(["y^3 - x^4"], 1, ("x", "y")), 2)])
    def test_table_matches_per_level_counts(self, X, q):
        table = stabilized_table(X, q, 3, 5)
        assert len(table) == 4
        for n, row in enumerate(table):
            res = stabilized_count(X, n, q, 5)
            assert (row.N_n, row.j_star, row.stable, row.counts) == \
                (res.N_n, res.j_star, res.stable, res.counts)

    def test_budget_caps_the_whole_table(self):
        rows = [least_budget(lambda b: stabilized_count(NODE, n, 2, 4, budget=b))
                for n in range(3)]
        whole = least_budget(lambda b: stabilized_table(NODE, 2, 2, 4, budget=b))
        assert whole > max(rows)


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
