"""Adam with bias-corrected moment estimates.

Updates are applied in the fixed parameter order of CellParams so a run is
a deterministic function of its gradient stream. Arrays are updated in
place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericError
from .cells import CellParams


@dataclass
class OptimizerState:
    """First/second moment arrays shaped like the parameters, plus a step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: CellParams) -> "OptimizerState":
        return cls(m={name: np.zeros_like(arr) for name, arr in params.items()},
                   v={name: np.zeros_like(arr) for name, arr in params.items()})


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most max_norm.

    Returns the norm before clipping. A max_norm of 0 disables clipping.
    """
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if max_norm > 0.0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def adam_update(params: CellParams, grads: dict[str, np.ndarray],
                state: OptimizerState, lr: float, beta1: float = 0.9,
                beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam step, in place: m and v track the gradient moments, the
    bias-corrected estimates drive the parameter delta."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for name, arr in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        arr -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)
