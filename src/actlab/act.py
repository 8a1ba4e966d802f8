"""Adaptive computation time: the pondering knobs.

`ActConfig` holds the halting slack epsilon, the hard step cap and the
time penalty. The halting law runs in `engine.run_batch`, the package's
only pondering loop; the per-sequence reference the test suite pins it
to lives in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not 0.0 <= self.time_penalty < math.inf:
            raise ContractError(
                f"time_penalty must be finite and >= 0, got {self.time_penalty}")
        return self

