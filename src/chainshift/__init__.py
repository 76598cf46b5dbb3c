"""Substitution subshifts over a chain of primitive components: languages,
block Perron-Frobenius data, invariant-set classification and exact cylinder
measures."""

from .errors import (
    BudgetExceeded,
    ChainshiftError,
    DomainError,
    InternalInvariantError,
    LambdaNotDominant,
    MeasureTypeCounting,
    NoPrimitiveChainError,
    ParseError,
    ThetaNotAboveOne,
    WordNotInLevelLanguage,
)
from .words import (
    Alphabet,
    InputSpec,
    Occurrences,
    Substitution,
    apply,
    count_occurrences,
    language,
    parse_input,
)
from .structure import (
    ComponentChain,
    IncidenceMatrix,
    component_chain,
    incidence_matrix,
)
from .auxiliary import AuxiliarySubstitution, auxiliary_matrix, build_auxiliary
from .spectral import (
    EigenPair,
    LimitData,
    SpectralProfile,
    block_eigenvalues,
    limit_data,
    pf_vectors,
)
from .classify import (
    DecompositionReport,
    LevelReport,
    MinimalSets,
    PointSeed,
    SeedPair,
    decomposition_report,
)
from .measures import (
    CylinderValue,
    MeasureDescriptor,
    cylinder_measure,
    empirical_frequency,
    level_measure_table,
    measure_type,
    uniformity_check,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AuxiliarySubstitution",
    "BudgetExceeded",
    "ChainshiftError",
    "ComponentChain",
    "CylinderValue",
    "DecompositionReport",
    "DomainError",
    "EigenPair",
    "IncidenceMatrix",
    "InputSpec",
    "InternalInvariantError",
    "LambdaNotDominant",
    "LevelReport",
    "LimitData",
    "MeasureDescriptor",
    "MeasureTypeCounting",
    "MinimalSets",
    "NoPrimitiveChainError",
    "Occurrences",
    "ParseError",
    "PointSeed",
    "SeedPair",
    "SpectralProfile",
    "Substitution",
    "ThetaNotAboveOne",
    "WordNotInLevelLanguage",
    "apply",
    "auxiliary_matrix",
    "block_eigenvalues",
    "build_auxiliary",
    "component_chain",
    "count_occurrences",
    "cylinder_measure",
    "decomposition_report",
    "empirical_frequency",
    "incidence_matrix",
    "language",
    "level_measure_table",
    "limit_data",
    "measure_type",
    "parse_input",
    "pf_vectors",
    "uniformity_check",
]
