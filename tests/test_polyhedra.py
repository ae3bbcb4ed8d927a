"""Newton polyhedra: support function, fan partition, zeta values."""
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from motivic.errors import DimensionUnsupported
from motivic.grring import (CompletionExpansion, LaurentPoly, MotClass,
                            expand_completion, mot_eq)
from motivic.parsing import format_motclass
from motivic.polyhedra import (HalfOpenCone, NewtonPolyhedron, _det, _dot,
                               linearity_partition, support_eval, z_of_delta,
                               z_truncated)


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
