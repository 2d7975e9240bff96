"""Exact nonnegative matrix factorization through positive bases.

Given a nonnegative matrix A, the pipeline builds a positive basis of a
minimal lattice-subspace containing A's rows and assembles nonnegative
factors with ``F @ V == A``. The inner dimension is the vertex count of
the polytope spanned by A's normalized columns and is known before the
factors are computed.
"""

from .basic import (
    BasicFunctionTable,
    BasicSet,
    DistinctRange,
    basic_function,
    distinct_values,
    select_basic_set,
)
from .errors import (
    ExpansionInfeasibleError,
    FactorizationError,
    IntermediateDimensionError,
    InvalidEntryError,
    SimplexCheckError,
    SimplexStalledError,
    SingularMatrixError,
    SpanDeficiencyError,
    ZeroColumnError,
    ZeroMatrixError,
)
from .factorize import (
    Classification,
    Factorization,
    ZeroColumnMask,
    build_f,
    classify,
    factorize,
    reinsert_zero_columns,
    residual_inf,
    strip_zero_columns,
)
from .lattice import (
    ConvexExpansion,
    basis_matrix,
    expand_in_vertices,
    positive_basis,
    positive_basis_by_blocks,
    synthesize_vectors,
)
from .linalg import Tolerances, greedy_independent_rows, rank_of, solve
from .polytope import VertexSet, hull_vertices, reorder_vertices, segment_vertices
from .simplex import (
    FeasibilityProblem,
    FeasibilityResult,
    is_extreme_point,
    phase_one_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "BasicFunctionTable",
    "BasicSet",
    "Classification",
    "ConvexExpansion",
    "DistinctRange",
    "ExpansionInfeasibleError",
    "Factorization",
    "FactorizationError",
    "FeasibilityProblem",
    "FeasibilityResult",
    "IntermediateDimensionError",
    "InvalidEntryError",
    "SimplexCheckError",
    "SimplexStalledError",
    "SingularMatrixError",
    "SpanDeficiencyError",
    "Tolerances",
    "VertexSet",
    "ZeroColumnError",
    "ZeroColumnMask",
    "ZeroMatrixError",
    "basic_function",
    "basis_matrix",
    "build_f",
    "classify",
    "distinct_values",
    "expand_in_vertices",
    "factorize",
    "greedy_independent_rows",
    "hull_vertices",
    "is_extreme_point",
    "phase_one_feasible",
    "positive_basis",
    "positive_basis_by_blocks",
    "rank_of",
    "reinsert_zero_columns",
    "reorder_vertices",
    "residual_inf",
    "segment_vertices",
    "select_basic_set",
    "solve",
    "strip_zero_columns",
    "synthesize_vectors",
]
