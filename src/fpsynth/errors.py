"""Exception types shared across the package."""


class FpsynthError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(FpsynthError):
    """Invalid configuration value or unusable parameter combination."""


class ParseError(FpsynthError):
    """Malformed input file (wrong arity, non-numeric field, bad header)."""


class RangeError(FpsynthError):
    """A numeric value outside its documented domain."""


class SizeError(FpsynthError):
    """A collection too small (or a request too large) for the operation."""


class ShapeError(FpsynthError):
    """Array dimensions incompatible with a model or schedule."""


class ConsistencyError(FpsynthError):
    """Two inputs that must agree (e.g. a split and a dataset) do not."""


class CoverageError(FpsynthError):
    """Every seen sample's kernel mass over the unseen locations is 0."""


class StageError(FpsynthError):
    """A pipeline stage failed; carries the stage name for CLI reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
