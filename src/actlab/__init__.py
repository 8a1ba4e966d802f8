"""Adaptive-computation-time recurrent networks at desk scale.

A small float64 autodiff core, tanh-RNN and LSTM cells, the adaptive
pondering mechanism with its analytic gradients, seeded generators for the
benchmark tasks, and a deterministic training/evaluation CLI.
"""

from .act import ActConfig, act_step, augment_input, halting_distribution, run_sequence
from .autodiff import ContractError, DimensionError, NumericError, Tape, Var
from .cells import CellParams, CellState, init_params

__version__ = "0.1.0"

__all__ = [
    "ActConfig", "CellParams", "CellState", "ContractError", "DimensionError",
    "NumericError", "Tape", "Var", "act_step", "augment_input",
    "halting_distribution", "init_params", "run_sequence", "__version__",
]
