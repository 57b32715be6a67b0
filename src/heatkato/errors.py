"""Shared exception types."""


class HeatKatoError(Exception):
    """Base class for all package errors."""


class InvalidPointError(HeatKatoError):
    """Coordinates violate the chart constraint of the model."""


class DomainError(HeatKatoError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedModelError(HeatKatoError):
    """The operation is not defined for this model geometry."""


class SingularityError(HeatKatoError):
    """Evaluation exactly at a singular point."""


class ConvergenceError(HeatKatoError):
    """An iterative solve reached its step cap without converging."""


class ManifestError(HeatKatoError):
    """Experiment manifest failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column or 1}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
