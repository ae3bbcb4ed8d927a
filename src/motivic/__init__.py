"""Exact symbolic computation for motivic integration formulas.

Subpackages:

- ``grring``: localized Grothendieck-ring arithmetic and its realizations
- ``series``: rational power series over that ring, coefficient limits
- ``polyhedra``: Newton polyhedra, normal-fan partitions, zeta values
- ``presburger``: linear-arithmetic sets and rational generating functions
- ``motvol``: motivic volume formulas from resolution data
- ``jets``: finite-field jet enumeration, the independent counting oracle
- ``models`` / ``cli``: model files and the command-line interface
"""

from .errors import (BudgetExceeded, ChiUndefined, DimensionUnsupported,
                     InfiniteFibers, MissingN, MotivicError, NoLimit,
                     ParseError, RealizationOnlyStrata, StrataNotPartition,
                     Unstable, ValidationError)
from .grring import (CompletionExpansion, HodgeRational, LaurentPoly,
                     MotClass, chi_realize, expand_completion,
                     filtration_degree, hodge_realize, mot_eq)
from .series import RationalMotSeries, compare_counts, expand, \
    limit_of_coefficients, specialize_at_q
from .polyhedra import (HalfOpenCone, NewtonPolyhedron, linearity_partition,
                        support_eval, z_of_delta, z_truncated)
from .presburger import (Affine, And, Ge, Mod, Not, Or, PresburgerSet,
                         RatFunc, genfun, genfun_image, genfun_truncated,
                         member, parse_condition)
from .motvol import (Divisor, PolyhedralStratum, ResolutionData, Stratum,
                     kontsevich_invariant, realize_volume,
                     volume_from_polyhedra, volume_from_resolution,
                     volume_with_ideal)
from .jets import (JetPoint, JetVariety, count_semialg, enumerate_jets,
                   eval_semialg, image_count, oesterle_sequence, parse_semialg,
                   poincare_table, stabilized_count)

__version__ = "1.0.0"
