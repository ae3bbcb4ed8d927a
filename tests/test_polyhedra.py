"""Newton polyhedra: support function, fan partition, zeta values."""
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motivic.errors import DimensionUnsupported
from motivic.grring import (CompletionExpansion, LaurentPoly, MotClass,
                            expand_completion, mot_eq)
from motivic.parsing import format_motclass
from motivic.polyhedra import (HalfOpenCone, NewtonPolyhedron, _cofactors, _det,
                               _dot, _primitive, _pulling, linearity_partition,
                               support_eval, z_of_delta, z_truncated)

STRESS = [json.loads(line.split("\t")[0]) for line in
          (Path(__file__).parent / "fixtures" / "zdelta_stress.txt").read_text().splitlines()]


def _leibniz(rows):
    """det of a square matrix as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for row, j in zip(rows, perm):
            term *= row[j]
        total += term
    return total


def _reference_fan(delta):
    """Multiset of (rays, linear_value) over the cones of the partition, by a
    direct ray test: Leibniz cofactors, then every dot product with the
    normals in one list, its min for the sign and all()."""
    k = delta.k
    gens = delta.minimal_generators()
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    cones = []
    for g in gens:
        normals = [tuple(a - b for a, b in zip(h, g)) for h in gens if h != g] + units
        rays = set()
        for rows in itertools.combinations(normals, k - 1):
            v = tuple(_leibniz((e,) + rows) for e in units)
            dots = [_dot(n, v) for n in normals]
            s = -1 if min(dots) < 0 else 1
            if any(v) and all(s * d >= 0 for d in dots):
                rays.add(_primitive(tuple(s * x for x in v)))
        if any(_leibniz(c) for c in itertools.combinations(rays, k)):
            faces = [frozenset(r for r in rays if _dot(n, r) == 0) for n in normals]
            cones += _pulling(frozenset(rays), faces)
    return Counter((c, tuple(support_eval(delta, r) for r in c)) for c in cones)


@st.composite
def _generator_sets(draw):
    k = draw(st.sampled_from((2, 3)))
    gens = draw(st.lists(st.tuples(*[st.integers(1, 6)] * k), min_size=1, max_size=5))
    if 2 <= len(gens) < 5 and draw(st.booleans()):
        # the midpoint of two generators rounded up lies in the polyhedron, so
        # it is dominated or not a vertex
        gens.append(tuple(-(-(a + b) // 2) for a, b in zip(gens[0], gens[1])))
    return gens


class TestNewtonPolyhedron:
    def test_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            NewtonPolyhedron(2, [(0, 1)])

    def test_non_integer_generators_raise(self):
        for gens in ([[2.9]], [[Fraction(5, 2)]], [[1, 1.0]]):
            with pytest.raises(TypeError):
                NewtonPolyhedron(len(gens[0]), gens)

    def test_boolean_generators_raise(self):
        # True is an int to operator.index, but not the exponent 1
        for gens in ([[True, 2]], [[2, False]]):
            with pytest.raises(TypeError):
                NewtonPolyhedron(2, gens)

    def test_dominated_generators_removed(self):
        delta = NewtonPolyhedron(2, [(1, 1), (2, 3)])
        assert delta.minimal_generators() == ((1, 1),)

    def test_support_eval(self):
        delta = NewtonPolyhedron(2, [(2, 1), (1, 3)])
        assert support_eval(delta, (1, 1)) == 3
        assert support_eval(delta, (3, 1)) == 6
        assert support_eval(delta, (1, 2)) == 4


class TestLinearityPartition:
    def _check_partition(self, delta, box):
        cones = linearity_partition(delta)
        for xi in itertools.product(range(1, box + 1), repeat=delta.k):
            hits = [c for c in cones if c.contains(xi)]
            assert len(hits) == 1, f"point {xi} hit {len(hits)} cones"
            assert hits[0].value_at(xi) == support_eval(delta, xi)

    def test_single_vertex_2d(self):
        self._check_partition(NewtonPolyhedron(2, [(2, 3)]), 12)

    def test_two_vertices_2d(self):
        self._check_partition(NewtonPolyhedron(2, [(2, 1), (1, 3)]), 12)

    def test_three_vertices_2d(self):
        self._check_partition(NewtonPolyhedron(2, [(4, 1), (2, 2), (1, 5)]), 10)

    def test_1d(self):
        self._check_partition(NewtonPolyhedron(1, [(3,)]), 20)

    def test_3d(self):
        self._check_partition(NewtonPolyhedron(3, [(2, 1, 1), (1, 1, 3)]), 6)

    def test_random_2d_and_3d(self):
        rng = random.Random(20240815)
        for k, box in ((3, 5), (2, 10)):
            for _ in range(3):
                gens = [tuple(rng.randint(1, 4) for _ in range(k))
                        for _ in range(rng.randint(1, 3))]
                self._check_partition(NewtonPolyhedron(k, gens), box)

    def test_generator_that_is_not_a_vertex(self):
        # (2,2) and (2,2,1) are midpoints of edges: their chambers are not
        # full-dimensional and give no cone
        for gens, box in (([(1, 3), (2, 2), (3, 1)], 10),
                          ([(3, 1, 1), (1, 3, 1), (1, 1, 3), (2, 2, 1)], 5)):
            delta = NewtonPolyhedron(len(gens[0]), gens)
            self._check_partition(delta, box)
            closed = expand_completion(z_of_delta(delta), 20)
            assert closed.matches(z_truncated(delta, 20))

    def test_coarsest_2d_fan(self):
        # one cone per vertex: (4,1) and (1,5) share no edge, so they add no wall
        delta = NewtonPolyhedron(2, [(4, 1), (2, 2), (1, 5)])
        assert len(linearity_partition(delta)) == 3

    def test_random_simplicial_cones(self):
        # closed form of one cone with |det| > 1 against a direct sum of
        # L^{-c.x} over the lattice points the cone contains
        rng = random.Random(31)
        for k, order in ((2, 16), (3, 12)):
            done = 0
            while done < 15:
                rays = tuple(tuple(rng.randint(0, 3) for _ in range(k))
                             for _ in range(k))
                if abs(_det(rays)) < 2:
                    continue
                c = [rng.randint(1, 2) for _ in range(k)]
                cone = HalfOpenCone(rays, tuple(_dot(c, r) for r in rays))
                if sum(cone.linear_value) > order:
                    continue  # the expansion may start past the order
                counts = {}
                # rays are nonnegative and c >= 1, so c.x <= order bounds x
                for x in itertools.product(range(order + 1), repeat=k):
                    if _dot(c, x) <= order and cone.contains(x):
                        counts[_dot(c, x)] = counts.get(_dot(c, x), 0) + 1
                want = CompletionExpansion(counts, order)
                assert expand_completion(cone.lattice_sum(), order) == want, rays
                done += 1

    def test_dimension_unsupported(self):
        with pytest.raises(DimensionUnsupported):
            linearity_partition(NewtonPolyhedron(4, [(1, 1, 1, 1)]))


class TestCofactors:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
        st.tuples(*[st.integers(-4, 4)] * k), min_size=k, max_size=k)))
    @example([(2, -1, 3), (1, 2, 3), (4, 5, 6)])
    def test_against_leibniz(self, rows):
        # v . x = det(x, *rows): the unit vectors pin each entry and its sign
        k = len(rows)
        v = _cofactors(rows[1:])
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        assert v == tuple(_leibniz([e] + rows[1:]) for e in units)
        assert _dot(v, rows[0]) == _det(rows) == _leibniz(rows)


class TestFan:
    @settings(max_examples=100, deadline=None)
    @given(_generator_sets())
    @example(STRESS[0])
    @example(STRESS[1])
    def test_against_reference_and_truncation(self, gens):
        delta = NewtonPolyhedron(len(gens[0]), gens)
        cones = linearity_partition(delta)
        assert Counter((c.rays, c.linear_value) for c in cones) == _reference_fan(delta)
        order = min(map(sum, gens)) + 6  # the expansion starts at sum - k
        closed = expand_completion(z_of_delta(delta), order)
        assert closed.matches(z_truncated(delta, order))


class TestZeta:
    def test_single_vertex_closed_form(self):
        # one generator (a, b): Z = (L-1)^2 / ((L^a-1)(L^b-1)) ... via cones
        delta = NewtonPolyhedron(2, [(2, 3)])
        want = (MotClass(LaurentPoly.binom(1), (2,))
                * MotClass(LaurentPoly.binom(1), (3,)))
        assert mot_eq(z_of_delta(delta), want)

    def test_documented_two_vertex_value(self):
        delta = NewtonPolyhedron(2, [(2, 1), (1, 3)])
        want = MotClass(LaurentPoly({4: 1, 3: -1, 2: 1, 0: -1}), (5,))
        assert mot_eq(z_of_delta(delta), want)

    def test_truncated_oracle_all_dimensions(self):
        rng = random.Random(7)
        for k in (1, 2, 3):
            for _ in range(3):
                gens = [tuple(rng.randint(1, 5) for _ in range(k))
                        for _ in range(rng.randint(1, 3))]
                delta = NewtonPolyhedron(k, gens)
                closed = expand_completion(z_of_delta(delta), 30)
                assert closed.matches(z_truncated(delta, 30))

    def test_five_generator_zeta(self):
        delta = NewtonPolyhedron(3, [(9, 1, 1), (1, 8, 1), (1, 1, 11),
                                     (3, 3, 2), (2, 3, 3)])
        closed = expand_completion(z_of_delta(delta), 12)
        assert closed.matches(z_truncated(delta, 12))

    def test_stress_outputs_are_pinned(self):
        # printed values of the 4- and 5-generator stress inputs; the
        # canonical form makes them independent of the order of summation
        path = Path(__file__).parent / "fixtures" / "zdelta_stress.txt"
        for line in path.read_text().splitlines():
            gens, want = line.split("\t")
            delta = NewtonPolyhedron(3, json.loads(gens))
            assert format_motclass(z_of_delta(delta)) == want

    def test_truncated_is_plain_enumeration(self):
        # k = 1, vertex (2,): sum over xi >= 1 of (L-1) L^{-2 xi},
        # i.e. the expansion of (L-1)/(L^2-1): u - u^2 + u^3 - u^4 + ...
        delta = NewtonPolyhedron(1, [(2,)])
        tr = z_truncated(delta, 12)
        for n in range(1, 13):
            assert tr.coeff(n) == (1 if n % 2 else -1)
