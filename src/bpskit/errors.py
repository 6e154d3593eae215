"""Exception types shared across the package.

ValidationError subclasses mean the input data fails a mathematical
identity (CLI exit 1); InputError means malformed input (exit 2);
PreconditionError subclasses mean the input does not carry enough (or
the right shape of) information for the operation to run (exit 3).
Each of the three carries its CLI exit code as exit_code.  InputError is
also a ValueError.  Any other exception is a bug (exit 70), except a
failed read or write (exit 74).
"""


class BpskitError(Exception):
    """Base class for all package errors."""


class ValidationError(BpskitError):
    """An exact identity the input was claimed to satisfy does not hold."""

    exit_code = 1


class PreconditionError(BpskitError):
    """The input violates an operation's precondition."""

    exit_code = 3


class InputError(BpskitError, ValueError):
    """Malformed input (bad JSON, a wrong schema, an unparsable flag, an
    argument out of range); a ValueError too, for callers that catch that."""

    exit_code = 2


class EmptyWindow(PreconditionError):
    """An arithmetic result determines no coefficient at all."""


class NonUnitLeading(PreconditionError):
    """Series inversion needs a lowest nonzero coefficient of +1 or -1."""


class InsufficientWindow(PreconditionError):
    """The exact window is too short for the requested computation."""


class MilnorMismatch(PreconditionError):
    """Local and global Euler-characteristic bookkeeping disagree."""


class AsymmetricInput(PreconditionError):
    """A coefficient violates the expected z <-> 1/z symmetry or support."""


class NotBpsForm(ValidationError):
    """The series is not an integer combination of the BPS basis elements."""

    def __init__(self, message, exponent=None, coefficient=None):
        super().__init__(message)
        self.exponent = exponent
        self.coefficient = coefficient


class NotKkvForm(ValidationError):
    """A coefficient is not an integer combination of the genus kernels.

    Kept for the public API: every row that passes kkv_decompose's
    AsymmetricInput checks peels exactly, so kkv_decompose never raises it.
    """

    def __init__(self, message, h=None):
        super().__init__(message)
        self.h = h
