"""Exception hierarchy shared across the package.

Each class carries the process exit code the CLI maps it to.
"""

from __future__ import annotations

__all__ = [
    "MultmonError",
    "ParseError",
    "HypothesisError",
    "UnsupportedError",
    "ResourceCapError",
    "InternalConsistencyError",
    "UsageError",
]


class MultmonError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UsageError(MultmonError):
    """Bad command-line invocation."""

    exit_code = 1


class ParseError(MultmonError):
    """Ideal text violates the input grammar.

    `code` is a stable machine-readable discriminator: one of "syntax",
    "zero-exponent", "exponent-too-large", "empty-ideal", "unknown-variable".
    A fault outside the text (in an explicit name list) has `line` and `column` None.
    """

    exit_code = 1

    def __init__(self, code: str, message: str, line: int | None = 1, column: int | None = 1):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.code = code
        self.line = line
        self.column = column


class HypothesisError(MultmonError):
    """A formula was applied to an ideal outside its hypotheses."""

    exit_code = 2


class UnsupportedError(MultmonError):
    """The requested quantity has no in-scope algorithm for this input."""

    exit_code = 3


class ResourceCapError(MultmonError):
    """A hard size cap was exceeded: the Taylor complex, the ps engine's q and lcm degree, the
    structural formula's subset lcms, the colength grid, or the polarization labels."""

    exit_code = 4


class InternalConsistencyError(MultmonError):
    """Two independent computations disagreed; always an engine bug."""

    exit_code = 5
