"""Exception types shared across the package."""


class EnergyNetError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveConductance(EnergyNetError):
    pass


class AsymmetricInput(EnergyNetError):
    """Duplicate edge supplied with two different weights."""


class SelfLoop(EnergyNetError):
    pass


class Disconnected(EnergyNetError):
    pass


class OriginMissing(EnergyNetError):
    pass


class UnknownVertex(EnergyNetError, KeyError):
    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class InvalidSize(EnergyNetError):
    pass


class InvalidInput(EnergyNetError, ValueError):
    """A user-supplied argument is out of its domain."""


class InvariantViolation(EnergyNetError, ArithmeticError):
    """An internal consistency check failed: a bug or numerical breakdown,
    not bad input."""


class ParseError(EnergyNetError):
    """Malformed network file or vertex id; message carries field context."""


class NetworkMismatch(EnergyNetError):
    """Operands live on different networks."""


class OriginInF(EnergyNetError):
    """The origin vertex is not allowed in this vertex subset."""


class NotPositiveDefinite(EnergyNetError):
    pass


class NotPsd(EnergyNetError):
    pass


class ConvergenceFailure(EnergyNetError):
    pass


class InsufficientEnclosure(EnergyNetError):
    """Outer truncation set too small to enclose the support's neighbors."""


class CapHit(EnergyNetError):
    """Excursion step cap reached; carries the partial estimate."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate
