"""Exception types shared across the package."""

from __future__ import annotations


class FibrephiError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(FibrephiError):
    """Operands belong to different polynomial rings."""


class ZeroPolynomialError(FibrephiError):
    """An operation that needs a nonzero polynomial received zero."""


class ParseError(FibrephiError):
    """Syntax or semantic error while parsing text input.

    ``args[0]`` is the message without its position.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line}, column {self.column})"


class SetupError(FibrephiError):
    """Invalid or inconsistent projection setup data."""


class EmptySpaceError(SetupError):
    """The defining ideal of the source space is the unit ideal."""


class OffTargetError(FibrephiError):
    """A point handed to a fibre computation does not lie on the target."""


class PreconditionError(FibrephiError):
    """A documented precondition of an operation does not hold."""


class ResourceLimitError(FibrephiError):
    """A resource cap was exceeded; the result was NOT computed."""


class InternalInconsistencyError(FibrephiError):
    """Two internally computed facts contradict each other (a bug, not bad input)."""

