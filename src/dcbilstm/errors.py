"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid model or run configuration, or an array that does not fit it."""


class ParseError(ValueError):
    """A data file could not be parsed; the message names the line, and the
    file when it was read through ``data.open_text``."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class CheckpointError(ValueError):
    """A checkpoint file is missing, truncated or inconsistent."""


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss; message names the epoch, batch and seed."""
