"""Loss functions and evaluation metrics.

Training losses are built from tape ops so gradients flow; evaluation
metrics are plain numpy. Probabilities are clamped at 1e-12 before any
log, and masked positions are multiplied out before the reduction, so
they contribute exactly zero loss and zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Var

PROB_CLAMP = 1e-12
LN2 = math.log(2.0)


@dataclass
class LossBreakdown:
    """Task loss, ponder cost, and the penalized total, kept exactly linked."""

    task_loss: float
    ponder_cost: float
    time_penalty: float
    total: float


def total_loss(task_loss: float, ponder_cost: float,
               time_penalty: float) -> LossBreakdown:
    """total = task + penalty * ponder, in this exact floating order."""
    if time_penalty < 0:
        raise ContractError(f"time penalty must be >= 0, got {time_penalty}")
    return LossBreakdown(task_loss, ponder_cost, time_penalty,
                         task_loss + time_penalty * ponder_cost)


def binary_cross_entropy(p: Var, targets, mask=None) -> Var:
    """-sum over rows of [b log p + (1-b) log(1-p)], clamped at 1e-12.

    `p` holds probabilities in (0,1), one column per row; `targets` is a
    matching 0/1 array; `mask`, when given, zeroes rows out of the sum.
    """
    t = np.asarray(targets, dtype=np.float64).reshape(p.data.shape)
    log_p = ad.log(ad.clamp_min(p, PROB_CLAMP))
    log_q = ad.log(ad.clamp_min(ad.add_scalar(ad.scale(p, -1.0), 1.0), PROB_CLAMP))
    term = ad.add(ad.const_mul(log_p, t), ad.const_mul(log_q, 1.0 - t))
    if mask is not None:
        term = ad.const_mul(term, np.asarray(mask, dtype=np.float64).reshape(t.shape))
    return ad.scale(ad.reduce_sum(term), -1.0)


def joint_softmax_cross_entropy(dists: Sequence[Var], targets, mask=None) -> Var:
    """Joint cross-entropy of simultaneous classifications.

    `dists[g]` is a (rows, classes) probability distribution for group g,
    `targets` is (rows, groups) integer class ids, and `mask` zeroes whole
    rows. Returns the summed -log p[target] over all unmasked rows and
    groups.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim == 1:
        targets = targets[:, None]
    rows = targets.shape[0]
    if targets.shape[1] != len(dists):
        raise ContractError(
            f"targets have {targets.shape[1]} groups, got {len(dists)} distributions")
    mask_col = None
    if mask is not None:
        mask_col = np.asarray(mask, dtype=np.float64).reshape(rows, 1)
    loss = None
    for g, dist in enumerate(dists):
        n_classes = dist.data.shape[1]
        tg = targets[:, g]
        if np.any((tg < 0) | (tg >= n_classes)):
            raise ContractError(
                f"target class out of range [0, {n_classes}) in group {g}")
        onehot = np.zeros((rows, n_classes))
        onehot[np.arange(rows), tg] = 1.0
        if mask_col is not None:
            onehot *= mask_col
        term = ad.const_mul(ad.log(ad.clamp_min(dist, PROB_CLAMP)), onehot)
        loss = term if loss is None else ad.add(loss, term)
    return ad.scale(ad.reduce_sum(loss), -1.0)


def example_errors(predictions, targets, mask) -> np.ndarray:
    """Per-example all-or-nothing scoring over masked positions."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    wrong = np.any(predictions != targets, axis=-1) & mask     # (batch, T)
    return wrong.any(axis=-1)


def sequence_error_rate(predictions, targets, mask) -> float:
    """Fraction of examples with any mistake anywhere in the masked output."""
    errs = example_errors(predictions, targets, mask)
    return float(errs.mean()) if errs.size else 0.0


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


def ponder_by_difficulty(ponders, difficulties, steps=None,
                         errors=None) -> list[DifficultyRow]:
    """Group mean ponder (and error) by integer difficulty.

    All arguments are flat, aligned arrays; buckets that never occur are
    omitted. The rows carry what the difficulty figures plot: one point
    per difficulty value.
    """
    ponders = np.asarray(ponders, dtype=np.float64).ravel()
    difficulties = np.asarray(difficulties).ravel()
    steps = None if steps is None else np.asarray(steps, dtype=np.float64).ravel()
    errors = None if errors is None else np.asarray(errors, dtype=np.float64).ravel()
    rows = []
    for d in np.unique(difficulties):
        sel = difficulties == d
        rows.append(DifficultyRow(
            difficulty=int(d),
            count=int(sel.sum()),
            mean_ponder=float(ponders[sel].mean()),
            mean_steps=float(steps[sel].mean()) if steps is not None else float("nan"),
            mean_error=float(errors[sel].mean()) if errors is not None else float("nan"),
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
        return {
            "sequence_error_rate": self.sequence_error_rate,
            "bits_per_character": self.bits_per_character,
            "mean_ponder": self.mean_ponder,
            "std_ponder": self.std_ponder,
            "mean_steps": self.mean_steps,
        }
