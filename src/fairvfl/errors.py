"""Exception taxonomy shared across the package."""


class FairVflError(Exception):
    """Base class for all package errors."""


class DimensionError(FairVflError):
    """Tensor shapes incompatible with an operation's contract."""


class LabelError(FairVflError):
    """Class index outside the declared label range."""


class ConfigError(FairVflError):
    """Invalid configuration value."""


class DataError(FairVflError):
    """Malformed or out-of-range data value."""


class ParseError(FairVflError):
    """Unparseable input file; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ProtocolError(FairVflError):
    """Federation message violating the protocol contract."""


class NumericError(FairVflError):
    """Non-finite value produced where the contract requires finiteness."""


class CheckpointError(FairVflError):
    """Unreadable or incompatible checkpoint file."""


class SampleLookupError(FairVflError):
    """Requested sample id unknown to a platform."""


class EvaluationError(FairVflError):
    """Attack or metric computation on unusable inputs."""
