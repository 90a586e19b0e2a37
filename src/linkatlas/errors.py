"""Error taxonomy shared across the library: one class per way a caller
must react, each message stating its reason on its own.

The command line maps BoundsTooLarge to exit code 3 and every other
AtlasError to exit code 2.  catalog catches AtlasError to refuse a key
that does not parse, and NotQuasiSmooth to report a stored key with no
link.
"""


class AtlasError(Exception):
    """Base class for all library errors."""


class InvalidInput(AtlasError):
    """A value the caller passed in is refused."""


class NotQuasiSmooth(AtlasError):
    """Weight system of no quasi-smooth polynomial, so of no link."""


class InconsistentInvariants(AtlasError):
    """An exact identity between invariants failed: a fault of the
    program, not of its input."""


class BoundsTooLarge(AtlasError):
    """Estimated search cost exceeds the configured budget."""
