"""Pole placement with arbitrary Jordan structure, optimized for robustness
and gain.

The library places any admissible closed-loop eigenstructure (repeated and
defective eigenvalues included) for reachable LTI pairs through an
m*n-parameter family of feedback matrices, and searches that family for
minimal condition number, departure from normality, or gain.
"""

from .bench import (
    BenchRow,
    builtin_systems,
    defective_zero_structure,
    load_corpus,
    run_bench,
)
from .errors import (
    ChainConsistencyError,
    NotReachableError,
    ParseError,
    PolePlaceError,
    SingularMatrixError,
    StructureError,
)
from .linalg import (
    ToleranceConfig,
    fro_norm,
    kernel_basis,
    pseudo_inverse,
    schur_triangular,
    two_norm,
)
from .metrics import (
    departure_from_normality,
    kappa_2,
    kappa_fro,
    sensitivity_bound_check,
)
from .optimize import (
    ObjectiveSpec,
    OptOptions,
    OptResult,
    gradient,
    minimize,
    objective_f1,
    objective_f2,
)
from .placement import (
    ChainSet,
    ParameterMatrix,
    PencilData,
    Placer,
    PlacementResult,
    build_chains,
    build_pencil,
    chains_from_feedback,
    place,
    recover_parameters,
    residual,
)
from .structure import (
    AdmissibilityReport,
    EigStructure,
    System,
    check_admissible,
    controllability_indices,
    jordan_matrix,
    normalize_ordering,
)
from .sysfile import (
    SystemFile,
    load_feedback,
    load_parameter,
    load_structure,
    load_system,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BenchRow",
    "ChainConsistencyError",
    "ChainSet",
    "EigStructure",
    "NotReachableError",
    "ObjectiveSpec",
    "OptOptions",
    "OptResult",
    "ParameterMatrix",
    "ParseError",
    "PencilData",
    "Placer",
    "PlacementResult",
    "PolePlaceError",
    "SingularMatrixError",
    "StructureError",
    "System",
    "SystemFile",
    "ToleranceConfig",
    "build_chains",
    "build_pencil",
    "builtin_systems",
    "chains_from_feedback",
    "check_admissible",
    "controllability_indices",
    "defective_zero_structure",
    "departure_from_normality",
    "fro_norm",
    "gradient",
    "jordan_matrix",
    "kappa_2",
    "kappa_fro",
    "kernel_basis",
    "load_corpus",
    "load_feedback",
    "load_parameter",
    "load_structure",
    "load_system",
    "minimize",
    "normalize_ordering",
    "objective_f1",
    "objective_f2",
    "place",
    "pseudo_inverse",
    "recover_parameters",
    "residual",
    "run_bench",
    "schur_triangular",
    "sensitivity_bound_check",
    "two_norm",
]
