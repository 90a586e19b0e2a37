"""Error taxonomy shared across the library.

Every failure mode a caller can trigger gets its own class so that the
command line layer can map them to exit codes without string matching.
"""


class AtlasError(Exception):
    """Base class for all library errors caused by invalid input."""


class InvalidInput(AtlasError):
    """Malformed value passed to a constructor or parser."""


class RankDeficient(AtlasError):
    """Weight system not determined up to scale by the monomial rows."""


class NoPositiveSolution(AtlasError):
    """The linear system forces a nonpositive or zero weight vector."""


class DimensionUnsupported(AtlasError):
    """Operation defined only for specific variable counts."""


class NonIntegerResult(AtlasError):
    """An expression that must be an integer failed to reduce to one."""


class NotPairwiseCoprime(AtlasError):
    """Exponents required to be pairwise coprime are not."""


class NonDivisible(AtlasError):
    """A signature that must be divisible by 8 is not."""


class NotQuasiSmooth(AtlasError):
    """Weight system of no quasi-smooth polynomial, so of no link."""


class NotASphere(AtlasError):
    """Link is not a rational homology sphere where one is required."""


class NonPositiveScale(AtlasError):
    """Homothety scale must be a positive rational."""


class NotPositiveClass(AtlasError):
    """Constants do not admit the requested Einstein normalization."""


class NotNegativeClass(AtlasError):
    """Constants do not admit the requested Lorentzian normalization."""


class NoEWPair(AtlasError):
    """No Einstein-Weyl pair exists for nonnegative nu."""


class PoleProximity(AtlasError):
    """Sample point too close to a pole of the tangent profile."""


class DegenerateMetric(AtlasError):
    """Frame metric is singular."""


class BoundsTooLarge(AtlasError):
    """Estimated search cost exceeds the configured budget."""


class InconsistentInvariants(AtlasError):
    """Two computations that must agree on a link do not."""
