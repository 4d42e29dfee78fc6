"""Exact magnitude homology of finite quasimetric spaces and digraphs.

Two independent computations of the same invariants: the normalized chain
complex on point tuples, and derived functors (Tor/Ext) over the distance
algebra through an explicit bar resolution; plus the cohomology ring with
its cup product realized as a Yoneda product by chain-level lifts.
"""

from .space import (
    INF,
    Digraph,
    QuasimetricSpace,
    attainable_grades,
    between,
    digraph_to_space,
    opposite_space,
    validate_space,
)
from .chain import (
    BasedComplex,
    enumerate_tuples,
    magnitude_cochain_complex,
    magnitude_complex,
    magnitude_complex_with_coefficients,
    tuple_grade,
)
from .linalg import (
    QQ,
    HomologySummary,
    PrimeField,
    RationalField,
    SparseMatrix,
    homology_at,
    rank_over_field,
    snf,
)
from .distmod import (
    DistanceModule,
    coinvariants,
    direct_sum,
    hom_from_trivial,
    invariants,
    representable_module,
    shift_module,
    trivial_module,
    validate_module,
)
from .algebra import DistanceAlgebra, algebra_multiply, radical_power_is_zero
from .resolution import (
    BarResolution,
    bar_resolution,
    ext_bidegree,
    resolution_homology,
    tor_bidegree,
)
from .quiver import (
    QuiverRelations,
    check_bound_quiver_presentation,
    check_representation_relations,
    quiver_relations,
)
from .ring import (
    Cochain,
    CohomologyClassSet,
    cohomology_classes,
    cup,
    lift_square_commutes,
    ring_table,
    unit_cochain,
    yoneda_lift,
    yoneda_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
