"""Exception types shared across the package."""


class QfjError(Exception):
    """Base class for package-specific errors."""


class DomainError(QfjError, ValueError):
    """Input outside an operation's mathematical domain."""


class ValidationError(QfjError, ValueError):
    """A structured value violates its invariants."""


class DivergenceError(QfjError, ArithmeticError):
    """A series evaluation was detected to diverge."""


class EvaluationError(QfjError, ArithmeticError):
    """A function value could not be used; carries the offending node index."""

    def __init__(self, message: str, node_index: int | None = None):
        super().__init__(message)
        self.node_index = node_index


class TruncationError(QfjError, ArithmeticError):
    """Term budget exhausted before the tail estimate fell below the guard."""


class ResourceLimitError(QfjError, ValueError):
    """An enumeration or exact computation would exceed its configured size limit."""
