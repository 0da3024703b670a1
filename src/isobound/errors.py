"""Exception types shared across the package, and the rule that sorts faults.

An InputError is bad input, which the caller can mend: the CLI prints it as
"error: ..." and exits 2, and solve reports it for its line and goes on. A
MachineryError is a failed structural guarantee: the CLI exits 3. Any other
exception is a bug in the program and propagates with its traceback.
"""


class InputError(ValueError):
    """Bad input: the base of every input-fault type below."""


class Graph6ParseError(InputError):
    """Malformed graph6 input. Carries the byte offset of the first bad byte."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class OrderCapError(InputError):
    """Graph order outside a supported range: 0..512, or a solver's cap (SizeCapError)."""


class PreconditionError(InputError):
    """An operation's documented precondition does not hold for the input."""


class RegimeError(InputError):
    """The requested k is outside the regime an operation supports."""


class ParameterError(InputError):
    """A parameter, vertex or edge outside what an operation accepts."""


class CertificateError(InputError):
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
