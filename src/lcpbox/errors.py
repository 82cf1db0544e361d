"""Exception types shared across modules."""


class DimensionCapError(ValueError):
    """An exponential enumeration was refused because the dimension exceeds
    the configured cap. Pass a larger cap to force the computation."""


class FastPathUnavailableError(RuntimeError):
    """Fast-path-only policy was requested but no fast-path precondition
    holds for the given box."""


class CertificateVerificationError(RuntimeError):
    """A negative verdict's certificate failed re-verification: an engine
    fault, not evidence that the property fails."""
