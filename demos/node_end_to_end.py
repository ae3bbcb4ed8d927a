"""End-to-end walkthrough on the plane node curve xy = 0.

Three independent computations are compared:

1. jet enumeration over small prime fields, with each count certified on
   the jet tree, giving the counts |pi_n(L(X))(F_q)|;
2. the declared rational series P(T) = 2L/(1 - LT) - 1/(1 - T), whose
   coefficients specialize (L -> q) to those counts;
3. the closed-form coefficient limit, whose Euler characteristic is the
   number of branches.
"""
from motivic.grring import LaurentPoly, MotClass, chi_realize, filtration_degree
from motivic.jets import JetVariety, stabilized_count, stabilized_table
from motivic.parsing import format_motclass, parse_int_poly
from motivic.series import (RationalMotSeries, compare_counts, expand,
                            limit_of_coefficients)

node = JetVariety(2, [parse_int_poly("x*y", ("x", "y"))], 1, ("x", "y"))
P = (RationalMotSeries.geometric(1, 1, MotClass(LaurentPoly({1: 2})))
     - RationalMotSeries.geometric(0, 1))

print("series P(T) = 2L/(1 - LT) - 1/(1 - T)")
print("coefficients a_n:",
      ", ".join(format_motclass(c) for c in expand(P, 3)), "...")
print()

for q in (2, 3):
    counts = []
    for n in range(5):
        res = stabilized_count(node, n, q, j_max=n + 2)
        counts.append(res.N_n)
    print(f"q = {q}: certified counts {counts} "
          f"(formula 2q^(n+1) - 1: {[2 * q ** (n + 1) - 1 for n in range(5)]})")
    report = compare_counts(P, q, counts)
    print(f"        series check: {report.lines()[-1]}")
print()

limit = limit_of_coefficients(P, 1)
print("limit of a_n L^(-(n+1)):", format_motclass(limit))
print("chi of the limit (number of branches):", chi_realize(limit))
print()

print("convergence is exact: filtration degree of a_n L^(-(n+1)) - limit")
for n, a_n in enumerate(expand(P, 8)):
    deg = filtration_degree(a_n.shift(-(n + 1)) - limit)
    print(f"  n = {n}: degree {deg}")
print()

print("Greenberg function gamma(n) over F_2, read off the certified table:")
for n, row in enumerate(stabilized_table(node, 2, 3, 2)):
    assert row.stable and row.gamma == 2 * n
    print(f"  gamma({n}) = {row.gamma}")
