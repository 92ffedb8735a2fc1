"""Exception types shared across the package.

Everything raised on purpose derives from :class:`LeafavgError`, so callers
(and the CLI) can distinguish "the input or model is bad" from genuine bugs.
"""


class LeafavgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LeafavgError, ValueError):
    """Ambient dimensions of two objects disagree."""


class ScalarModeMismatch(LeafavgError, ValueError):
    """Exact-rational and floating objects were mixed without conversion."""


class PolynomialParseError(LeafavgError, ValueError):
    """The polynomial text format could not be parsed."""

    def __init__(self, message: str, text: str = "", pos: int = -1):
        if pos >= 0:
            message = f"{message} (column {pos + 1} of {text!r})"
        super().__init__(message)
        self.pos = pos


class NonFiniteCoefficient(LeafavgError, ValueError):
    """A float-mode coefficient or value is NaN or infinite, or an exact one
    is too large to convert to a float."""


class CoefficientTooLong(LeafavgError, ValueError):
    """An exact coefficient has more digits than Python converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default)."""


class NonOrthogonalGenerator(LeafavgError, ValueError):
    """A matrix offered as a group generator is not orthogonal."""


class GroupTooLarge(LeafavgError):
    """Group closure exceeded the configured size cap (likely infinite)."""


class NotCartanMunzner(LeafavgError, ValueError):
    """A candidate level-set polynomial fails the Cartan-Munzner identities.

    ``gradient_residual`` and ``laplacian_residual`` carry the offending
    residual polynomials (text form) so the rejection is auditable.
    """

    def __init__(self, message, gradient_residual=None, laplacian_residual=None):
        super().__init__(message)
        self.gradient_residual = gradient_residual
        self.laplacian_residual = laplacian_residual


class OffSphere(LeafavgError, ValueError):
    """A point expected on the unit sphere is not on it."""


class NearSingularLeaf(LeafavgError):
    """Level-set estimate requested too close to a focal (extreme) level."""


class EffectiveSampleTooSmall(LeafavgError):
    """Kernel weights concentrate on too few samples for a usable estimate."""


class BasisDeficient(LeafavgError):
    """Generator-algebra slice cannot express a leaf average."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IdentityViolation(LeafavgError):
    """An averaging-operator identity failed beyond tolerance."""

    def __init__(self, identity: str, residual, message: str = ""):
        super().__init__(message or f"identity {identity!r} violated, residual {residual}")
        self.identity = identity
        self.residual = residual


class RankUnstable(LeafavgError):
    """Singular values cluster at the rank tolerance; rank call refused."""

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = list(singular_values or [])


class GenerationGap(LeafavgError):
    """Basic slices escape the generator algebra at some degrees: a slice
    basis vector leaves a remainder above tolerance outside the span of the
    generator products of its degree."""

    def __init__(self, degrees, report=None):
        super().__init__(f"generator algebra incomplete at degrees {sorted(degrees)}")
        self.degrees = sorted(degrees)
        self.report = report


class InsufficientDistinctPairs(LeafavgError):
    """Could not sample enough distinct-leaf pairs (degenerate model)."""


class ConfigError(LeafavgError, ValueError):
    """Run configuration, or a model's constructor input, is malformed."""


class DegreeCapWarning(UserWarning):
    """New generators appeared at the degree cap; the ring may need more."""
