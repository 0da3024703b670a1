"""Exception types shared across the package."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input. Carries the byte offset of the first bad byte."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class OrderCapError(ValueError):
    """Graph order outside a supported range: 0..512, or a solver's cap (SizeCapError)."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold for the input."""


class RegimeError(ValueError):
    """The requested k is outside the regime an operation supports."""


class ParameterError(ValueError):
    """Family parameters violate a construction constraint."""


class CertificateError(ValueError):
    """A supplied certificate fails validation."""


class SizeCapError(OrderCapError):
    """Graph order above a solver's cap, which the library's force=True lifts."""


class MachineryError(RuntimeError):
    """A structural guarantee failed.

    Raised when a property every input is proven to satisfy does not hold,
    which means either the construction machinery has a bug or the input
    falsifies the guarantee. Never silently ignored.
    """


class DichotomyError(MachineryError):
    """A clique cluster is neither a single clique nor a twin."""
