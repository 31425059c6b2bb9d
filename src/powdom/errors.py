"""Exception taxonomy shared by all powdom modules."""


class PowdomError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateLabel(PowdomError):
    pass


class UnknownLabel(PowdomError):
    pass


class CycleDetected(PowdomError):
    """The reflexive-transitive closure of the cover relation is not antisymmetric."""


class InvalidOrder(PowdomError):
    """A relation matrix is not reflexive, transitive and antisymmetric."""


class SizeGuardExceeded(PowdomError):
    """An enumeration would exceed the configured size guard."""

    def __init__(self, needed, guard):
        super().__init__(f"enumeration of {needed} items exceeds size guard {guard}")
        self.needed = needed
        self.guard = guard


class NotMonotone(PowdomError):
    """A table violates monotonicity."""


class TypeMismatch(PowdomError):
    """Source/target posets or carriers of the operands do not match."""


class SignatureMismatch(PowdomError):
    pass


class UnknownOp(PowdomError):
    pass


class UnknownElement(PowdomError):
    pass


class ArityMismatch(PowdomError):
    pass


class RejectInteger(PowdomError):
    """The scalar is an integer (or infinite), so no non-membership witness arises."""


class UnknownName(PowdomError):
    """A command referenced a name that is neither built in nor defined in any file."""


class ParseError(PowdomError):
    """Definition-file syntax error, carrying a source location."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message


class UnknownNameAt(ParseError, UnknownName):
    """A definition file names an undefined poset or algebra; located at that name."""
