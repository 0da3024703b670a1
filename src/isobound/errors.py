"""Exception types shared across the package."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input. Carries the byte offset of the first bad byte."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class OrderCapError(ValueError):
    """Graph order outside the supported range (0 <= n <= 512)."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold for the input."""


class RegimeError(ValueError):
    """The requested k is outside the regime an operation supports."""


class ParameterError(ValueError):
    """Family parameters violate a construction constraint."""


class CertificateError(ValueError):
    """A supplied certificate fails validation."""


class SizeCapError(RuntimeError):
    """Input exceeds a solver size cap.

    Made from (reason, hint): reason names the order and the cap, hint how
    the caller lifts the cap (the library's force=True), and the message is
    both. Callers that cannot lift the cap report reason alone.
    """

    def __init__(self, reason, hint):
        super().__init__(reason, hint)
        self.reason = reason

    def __str__(self):
        return "; ".join(self.args)


class MachineryError(RuntimeError):
    """A structural guarantee failed.

    Raised when a property every input is proven to satisfy does not hold,
    which means either the construction machinery has a bug or the input
    falsifies the guarantee. Never silently ignored.
    """


class DichotomyError(MachineryError):
    """A clique cluster is neither a single clique nor a twin."""
