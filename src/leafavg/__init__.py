"""Leaf averaging on round-sphere foliations, generator discovery for the
ring of leaf-constant polynomials, and machine-checkable separation
certificates."""

from .errors import (
    BasisDeficient,
    CoefficientTooLong,
    ConfigError,
    DegreeCapWarning,
    DimensionMismatch,
    EffectiveSampleTooSmall,
    GenerationGap,
    GroupTooLarge,
    IdentityViolation,
    InsufficientDistinctPairs,
    LeafavgError,
    NearSingularLeaf,
    NonFiniteCoefficient,
    NonOrthogonalGenerator,
    NotCartanMunzner,
    OffSphere,
    PolynomialParseError,
    RankUnstable,
    ScalarModeMismatch,
)
from .polynomials import (
    EXACT,
    FLOAT,
    Polynomial,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    radius_squared,
    rationalize,
    sphere_inner,
    sphere_mean,
    sphere_norm,
)
from .models import (
    FiniteGroupModel,
    IsoparametricModel,
    LevelSetSampler,
    TorusModel,
    group_closure,
    sample_sphere_many,
    validate_munzner,
)
from .averaging import (
    AveragingCertificate,
    IdentityReport,
    StructuredAverageResult,
    average,
    average_structured,
    verify_operator_identities,
)
from .basic_ring import (
    GenerationReport,
    GeneratorSet,
    SubspaceBasis,
    basic_subspace,
    discover_generators,
    molien_dimensions,
    verify_generation,
)
from .separation import (
    SeparationCertificate,
    quotient_image_export,
    rho_eval,
    separation_test,
)

__version__ = "0.1.0"
