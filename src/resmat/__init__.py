"""Sparse-resultant matrices from combinatorial mixed subdivisions.

Box (n-zonotope) and multihomogeneous systems share one engine: closed-form
half-open interval arithmetic classifies every lattice point into a cell of
a fixed mixed subdivision, the greedy reduction selects the small row set,
and the quotient of two determinants is validated by randomized
specialization over a prime field.

The package root exports the surface documented in README.md and the
exception classes; everything else is imported from its module.
"""

from .errors import (
    BadShape,
    InvariantViolated,
    NonPositiveBound,
    NotClosed,
    NotPrime,
    OrderingViolated,
    PointOutOfRange,
    ResmatError,
    SingularGenerators,
    SpecInvalid,
    SpecParse,
    UnsupportedFormat,
)
from .greedy import greedy_closure, predicted_size_zonotope
from .matrix import SymbolicMatrix, build_matrix, export_matrix, principal_submatrix
from .multihomo import greedy_closure_multi, predicted_size_multihomo
from .oracles import (
    DEFAULT_PRIME,
    QuotientReport,
    draw_coefficients,
    ff_det,
    sparse_det,
    specialize,
    specialize_rows,
    verify_quotient,
)
from .systems import (
    CoeffRef,
    MultiHomoSystem,
    ZonotopeSystem,
    normalize_zonotope,
    validate_multihomo,
    validate_zonotope,
)

__version__ = "0.1.0"

__all__ = [
    "BadShape",
    "CoeffRef",
    "DEFAULT_PRIME",
    "InvariantViolated",
    "MultiHomoSystem",
    "NonPositiveBound",
    "NotClosed",
    "NotPrime",
    "OrderingViolated",
    "PointOutOfRange",
    "QuotientReport",
    "ResmatError",
    "SingularGenerators",
    "SpecInvalid",
    "SpecParse",
    "SymbolicMatrix",
    "UnsupportedFormat",
    "ZonotopeSystem",
    "build_matrix",
    "draw_coefficients",
    "export_matrix",
    "ff_det",
    "greedy_closure",
    "greedy_closure_multi",
    "normalize_zonotope",
    "predicted_size_multihomo",
    "predicted_size_zonotope",
    "principal_submatrix",
    "sparse_det",
    "specialize",
    "specialize_rows",
    "validate_multihomo",
    "validate_zonotope",
    "verify_quotient",
]
