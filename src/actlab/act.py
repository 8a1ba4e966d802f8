"""Adaptive computation time: the pondering knobs and the step flag.

`ActConfig` holds the halting slack epsilon, the hard step cap and the
time penalty; `augment_input` appends the flag that marks an input's
first update. The halting law runs in `engine.run_batch`, the package's
only pondering loop; the per-sequence reference the test suite pins it
to lives in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError


@dataclass
class ActConfig:
    """Pondering knobs: halting slack, hard step cap, and time penalty."""

    epsilon: float = 0.01
    max_steps: int = 100
    time_penalty: float = 0.0

    def validate(self) -> "ActConfig":
        if not 0.0 < self.epsilon < 0.5:
            raise ContractError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if self.max_steps < 1:
            raise ContractError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.time_penalty < 0.0:
            raise ContractError(f"time_penalty must be >= 0, got {self.time_penalty}")
        return self


def augment_input(x, n: int) -> np.ndarray:
    """Append the step flag: 1 on the first update for an input, else 0."""
    if n < 1:
        raise ContractError(f"intermediate step index must be >= 1, got {n}")
    arr = np.asarray(x, dtype=np.float64)
    flag = np.full(arr.shape[:-1] + (1,), 1.0 if n == 1 else 0.0)
    return np.concatenate([arr, flag], axis=-1)
