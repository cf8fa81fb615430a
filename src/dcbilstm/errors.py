"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class ConfigError(ValueError):
    """Invalid model or run configuration."""


class EmptySequenceError(ValueError):
    """An operation received a zero-length sequence."""


class ParseError(ValueError):
    """A data file could not be parsed; the message names the line, and the
    file when it was read through ``data.open_text``."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class CheckpointError(ValueError):
    """A checkpoint file is missing, truncated or inconsistent."""


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss; message names the epoch, batch and seed."""
