"""Newton-polyhedron zeta values.

Z(Delta) = (L-1)^k * sum over the lattice points xi >= 1 of L^{-l(xi)},
where l is the support function of Delta.  The closed form comes from a
partition of the positive orthant into half-open simplicial cones on which
l is linear; the truncated summation is the independent check.
"""
from motivic.grring import expand_completion
from motivic.parsing import format_motclass
from motivic.polyhedra import (NewtonPolyhedron, linearity_partition,
                               support_eval, z_of_delta, z_truncated)

delta = NewtonPolyhedron(2, [(2, 1), (1, 3)])
print("Delta = hull((2,1), (1,3)) + R_{>=0}^2")
print("support values: l(1,1) =", support_eval(delta, (1, 1)),
      " l(3,1) =", support_eval(delta, (3, 1)),
      " l(1,2) =", support_eval(delta, (1, 2)))
print()

print("half-open simplicial cones with linear support values:")
for cone in linearity_partition(delta):
    rays = ", ".join(str(r) for r in cone.rays)
    vals = ", ".join(str(cone.value_at(r)) for r in cone.rays)
    print(f"  rays [{rays}]  l(ray) = [{vals}]")
print()

closed = z_of_delta(delta)
print("Z(Delta) =", format_motclass(closed))
order = 40
assert expand_completion(closed, order).matches(z_truncated(delta, order))
print(f"closed form matches direct truncated summation to order {order}")
print()

delta3 = NewtonPolyhedron(3, [(2, 1, 1), (1, 3, 1), (1, 1, 4)])
closed3 = z_of_delta(delta3)
print("a three-dimensional example, hull((2,1,1), (1,3,1), (1,1,4)):")
print("Z =", format_motclass(closed3))
assert expand_completion(closed3, 30).matches(z_truncated(delta3, 30))
print("matches truncated summation to order 30")
