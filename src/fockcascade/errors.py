"""Exception types shared across the package."""


class FockCascadeError(Exception):
    """Base class for all errors raised by this package."""


class RegistryMismatchError(FockCascadeError):
    """Two values that must share a mode registry do not."""


class PhotonCapError(FockCascadeError):
    """A per-mode occupation exceeds the registry's photon cap."""


class UnitarityViolation(FockCascadeError):
    """A candidate network matrix is not unitary within tolerance.

    Carries the measured deviation max|U^dag U - I| in ``deviation``.
    """

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not unitary: max|U^dag U - I| = {deviation:.3e} > {tol:.1e}"
        )


class ZeroStateError(FockCascadeError):
    """An operation that needs a nonzero state received the zero polynomial."""


class StrategyError(FockCascadeError):
    """A measurement cascade strategy is malformed or references consumed modes."""


class SchemaError(FockCascadeError, ValueError):
    """An input file does not match the expected JSON schema.

    It is also a ValueError, so a caller that catches ValueError for a
    malformed value (a network object without a shape, say) catches it too.
    """
