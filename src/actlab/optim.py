"""Adam with bias-corrected moment estimates.

Updates are applied in the fixed parameter order of CellParams so a run is
a deterministic function of its gradient stream. Every gradient is checked
(shape, finiteness) before anything changes, so a step that raises leaves
the parameters, the moments and the step count as they were.

Each parameter, m and v is updated in place, in flat blocks of
ADAM_BLOCK elements through two scratch blocks, so no full-size
temporary is formed. Every element sees the same operations in the same
order as the textbook form (m*b1 + (1-b1)*g, v*b2 + (1-b2)*(g*g), then
lr*(m/c1) / (sqrt(v/c2) + eps)), so the result is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, DimensionError, NumericError
from .cells import CellParams

# Elements per block: 256 KB of float64, so a block of g, m, v, the
# parameter and the two scratch blocks (1.5 MB) fit in a 2 MB L2 cache.
# At lstm-512's 1.08 M parameters one update took a median 9.5-11.2 ms,
# against 15.9-16.9 ms for the same arithmetic over whole arrays (two
# timings of 50 updates each, 2-core host).
ADAM_BLOCK = 32768


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

    def copy(self) -> "OptimizerState":
        return OptimizerState({name: arr.copy() for name, arr in self.m.items()},
                              {name: arr.copy() for name, arr in self.v.items()},
                              self.step)


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
    for name, arr in params.items():
        if grads[name].shape != arr.shape:
            raise DimensionError(f"gradient for {name!r} is {grads[name].shape}, "
                                 f"the parameter {arr.shape}")
        if not np.all(np.isfinite(grads[name])):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if not all(a.flags.c_contiguous for a in (arr, state.m[name], state.v[name])):
            raise ContractError(f"{name!r}, its m and its v must be C-contiguous "
                                "to be updated in place")
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    scratch_a, scratch_b = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, arr in params.items():
        g = grads[name].reshape(-1)
        p, m, v = (a.reshape(-1) for a in (arr, state.m[name], state.v[name]))
        for lo in range(0, g.size, ADAM_BLOCK):
            blk = slice(lo, lo + ADAM_BLOCK)
            gb, pb, mb, vb = g[blk], p[blk], m[blk], v[blk]
            a, b = scratch_a[:gb.size], scratch_b[:gb.size]
            mb *= beta1
            np.multiply(gb, 1.0 - beta1, out=a)
            mb += a
            vb *= beta2
            np.multiply(gb, gb, out=a)
            a *= 1.0 - beta2
            vb += a
            np.divide(mb, correct1, out=a)
            a *= lr
            np.divide(vb, correct2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            pb -= a
