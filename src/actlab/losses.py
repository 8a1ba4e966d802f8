"""The task loss and evaluation metrics.

The task loss is -log p[target] per output position and group, with p from
`TaskSpec.probs`, the one map from readouts to class distributions. It is
clamped at p = PROB_CLAMP, where it stops passing gradient, and masked
positions add exactly zero loss and gradient. `per_position_nats` computes
it for `evaluate` and `trace`; training sums the same numbers in one tape
node over the engine's (batch, T, ...) readout block, whose backward is
the closed form p - onehot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Var
from .tasks import TaskSpec

PROB_CLAMP = 1e-12
LN2 = math.log(2.0)


@dataclass
class LossBreakdown:
    """Task loss, ponder cost, and the penalized total, kept exactly linked."""

    task_loss: float
    ponder_cost: float
    total: float


def total_loss(task_loss: float, ponder_cost: float,
               time_penalty: float) -> LossBreakdown:
    """total = task + penalty * ponder, in this exact floating order."""
    if time_penalty < 0:
        raise ContractError(f"time penalty must be >= 0, got {time_penalty}")
    return LossBreakdown(task_loss, ponder_cost, task_loss + time_penalty * ponder_cost)


def per_position_nats(spec: TaskSpec, outputs: np.ndarray, targets,
                      mask) -> np.ndarray:
    """-log p[target] per (example, step), summed over groups, times `mask`.

    Shapes: outputs (batch, T, output_size), targets (batch, T, groups),
    mask (batch, T), 0/1 or weights.
    """
    return _nats(spec, spec.probs(outputs), targets, mask)[0]


def _nats(spec: TaskSpec, probs: np.ndarray, targets, mask):
    """Per-position nats, the class ids as an index into `probs`, p there."""
    ids = np.asarray(targets, dtype=np.int64).reshape(probs.shape[:-1] + (1,))
    if np.any((ids < 0) | (ids >= spec.classes)):
        raise ContractError(f"target class out of range [0, {spec.classes})")
    picked = np.take_along_axis(probs, ids, axis=-1)
    nats = -np.log(np.maximum(picked[..., 0], PROB_CLAMP)).sum(axis=-1)
    return nats * mask, ids, picked


def _task_loss(spec: TaskSpec, head: str, outputs: Var, targets, mask) -> Var:
    """`per_position_nats` summed, as one node over a readout block.

    `outputs` is (batch, T, >= output_size): the readouts, then any further
    columns, such as the engine's R, which get a zero adjoint. Readout
    (e, t) gets g * mask * (p - onehot) on groups whose p[target] >=
    PROB_CLAMP and exactly 0 elsewhere: for bce the class-1 column, p - b;
    for softmax one flat block per group.
    """
    if spec.head != head:
        raise ContractError(f"task {spec.name!r} has a {spec.head} head, not {head}")
    y = outputs.data[..., :spec.output_size]
    w = np.asarray(mask, dtype=np.float64).reshape(y.shape[:2] + (1, 1))
    probs = spec.probs(y)
    nats, ids, picked = _nats(spec, probs, targets, w[..., 0, 0])
    np.put_along_axis(probs, ids, picked - 1.0, axis=-1)
    d = np.where((picked >= PROB_CLAMP) & (w != 0.0), probs, 0.0) * w
    adj = np.zeros(outputs.shape)
    adj[..., :spec.output_size] = d[..., 1] if head == "bce" else d.reshape(y.shape)

    def back(g):    # holds no Var: a closure over one would keep the tape alive
        return (g * adj,)

    return ad.record(np.array(nats.sum()), (outputs,), back)


def binary_cross_entropy(spec: TaskSpec, outputs: Var, targets, mask) -> Var:
    """The task-loss node of a one-logit bce head; see `_task_loss`."""
    return _task_loss(spec, "bce", outputs, targets, mask)


def joint_softmax_cross_entropy(spec: TaskSpec, outputs: Var, targets,
                                mask) -> Var:
    """The task-loss node of simultaneous softmax groups; see `_task_loss`."""
    return _task_loss(spec, "softmax", outputs, targets, mask)


def example_errors(predictions, targets, mask) -> np.ndarray:
    """Per-example all-or-nothing scoring over masked positions."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    wrong = np.any(predictions != targets, axis=-1) & mask     # (batch, T)
    return wrong.any(axis=-1)


def bits_per_character(nats) -> float:
    """Mean log-loss, converted from nats to bits."""
    nats = np.asarray(nats, dtype=np.float64)
    return float(nats.mean() / LN2) if nats.size else 0.0


@dataclass
class DifficultyRow:
    difficulty: int
    count: int
    mean_ponder: float
    mean_steps: float
    mean_error: float


def ponder_by_difficulty(ponders, difficulties, steps, errors) -> list[DifficultyRow]:
    """Group mean ponder, update count and error by integer difficulty.

    All arguments are flat, aligned arrays; buckets that never occur are
    omitted. The rows carry what the difficulty figures plot: one point
    per difficulty value.
    """
    ponders = np.asarray(ponders, dtype=np.float64).ravel()
    difficulties = np.asarray(difficulties).ravel()
    steps = np.asarray(steps, dtype=np.float64).ravel()
    errors = np.asarray(errors, dtype=np.float64).ravel()
    rows = []
    for d in np.unique(difficulties):
        sel = difficulties == d
        rows.append(DifficultyRow(
            difficulty=int(d),
            count=int(sel.sum()),
            mean_ponder=float(ponders[sel].mean()),
            mean_steps=float(steps[sel].mean()),
            mean_error=float(errors[sel].mean()),
        ))
    return rows


@dataclass
class RunMetrics:
    """One evaluation record; serializes to a documented JSON object."""

    sequence_error_rate: float
    bits_per_character: Optional[float]
    mean_ponder: float
    std_ponder: float
    mean_steps: float
    capped_fraction: float   # share of active steps halted by the step cap
    difficulty_rows: list[DifficultyRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        keys = ("sequence_error_rate", "bits_per_character", "mean_ponder",
                "std_ponder", "mean_steps")
        return {key: getattr(self, key) for key in keys}
