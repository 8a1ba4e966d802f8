"""Adaptive-computation-time recurrent networks at desk scale.

A small float64 autodiff core, tanh-RNN and LSTM cells, the adaptive
pondering mechanism with its analytic gradients, seeded generators for the
benchmark tasks, and a deterministic training/evaluation CLI.
"""

from .act import ActConfig
from .autodiff import ContractError, DimensionError, NumericError, Tape, Var
from .cells import CellParams, init_params

__version__ = "0.1.0"

__all__ = [
    "ActConfig", "CellParams", "ContractError", "DimensionError",
    "NumericError", "Tape", "Var", "init_params",
    "__version__",
]
