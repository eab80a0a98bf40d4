"""Exception hierarchy shared across the package.

Each family maps to one CLI exit code (see cli.exit_code_for and the
cli.EXIT_* constants).
"""


class TridiffError(Exception):
    """Base class for all errors raised by this package."""


# -- ingestion / validation -------------------------------------------------

class IngestionError(TridiffError):
    """Base class for CSV ingestion and dataset validation failures."""


class SchemaError(IngestionError):
    """A declared column is absent or not binary-codable."""


class ParseError(IngestionError):
    """A mapped field could not be converted to a number."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class PanelValidationError(IngestionError):
    """The assembled dataset violates a structural invariant."""


# -- nuisance fitting -------------------------------------------------------

class FittingError(TridiffError):
    """Base class for nuisance-model fitting failures."""


class InsufficientDataError(FittingError):
    """Fewer observations than parameters."""


class SingularDesignError(FittingError):
    """Rank-deficient design matrix."""

    def __init__(self, message, dependent_columns=()):
        super().__init__(message)
        self.dependent_columns = tuple(dependent_columns)


class ConvergenceError(FittingError):
    """Iterative fit did not converge; carries the log-likelihood trace."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class SeparationError(FittingError):
    """Perfect separation detected while fitting a propensity model."""


# -- overlap / trimming -----------------------------------------------------

class TrimmingError(TridiffError):
    """Propensity prediction below the trimming threshold."""

    def __init__(self, message, unit_ids=()):
        super().__init__(message)
        self.unit_ids = tuple(unit_ids)


# -- estimation -------------------------------------------------------------

class EstimationError(TridiffError):
    """Base class for estimator-level failures."""


class MissingNuisanceError(EstimationError):
    """A score or estimator was handed a nuisance set without a model it needs."""


class UnsupportedMechanismError(EstimationError):
    """Operation not defined under the dataset's assignment mechanism."""


class ResamplingError(EstimationError):
    """Bootstrap could not draw enough valid resamples."""
