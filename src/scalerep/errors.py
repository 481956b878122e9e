"""Exception types shared across the package.

Four failure families are kept apart on purpose: caller mistakes
(``UsageError``), results short of the requested accuracy
(``AccuracyError``), iterations that never met their stopping rule
(``ConvergenceError``) and singular solves (``SingularOperatorError``).
A ``UsageError`` ends a run with exit 2; the others fail only their case.
"""

from __future__ import annotations


class UsageError(ValueError):
    """Bad arguments, sizes, or configuration supplied by the caller."""


class AccuracyError(RuntimeError):
    """A result was produced but its measured residual exceeds the threshold.

    The offending residual is kept on the exception so reports can record it.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class ConvergenceError(RuntimeError):
    """An iteration hit its hard cap before meeting its tolerance."""

    def __init__(self, message: str, last_term: float):
        super().__init__(message)
        self.last_term = float(last_term)


class SingularOperatorError(RuntimeError):
    """A linear solve was requested at (numerically) singular data."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = float(condition_estimate)
