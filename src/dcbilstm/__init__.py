"""Densely connected bidirectional LSTM sentence classifiers, from scratch.

Pure numpy: explicit forward passes, backpropagation through time and
Adam, with every recurrence run by the packed time-major kernels in
``kernels``.
"""

from .errors import CheckpointError, ConfigError, ParseError, TrainingDiverged
from .model import (
    Model,
    ModelConfig,
    count_params,
    load_checkpoint,
    model_backward,
    model_forward,
    save_checkpoint,
)
from .train import TrainConfig, TrainReport, evaluate
from .gradcheck import check_model, finite_diff

__version__ = "0.1.0"

__all__ = [
    "Model", "ModelConfig", "TrainConfig", "TrainReport",
    "check_model", "count_params", "evaluate", "finite_diff",
    "load_checkpoint", "model_backward", "model_forward", "save_checkpoint",
    "CheckpointError", "ConfigError", "ParseError", "TrainingDiverged",
    "__version__",
]
