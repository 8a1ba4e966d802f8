"""Whole-model gradient verification.

The penalized objective is discontinuous wherever a perturbation changes
some step's update count, so central differences are only meaningful when
the count pattern is identical at both evaluation points. Each coordinate
therefore re-runs the full forward pass, compares the count signature, and
shrinks its step until the signature is stable; coordinates that flip even
at the smallest step are reported as skipped rather than failed.

The check also pins the two closed forms the pondering gradient must
satisfy: each step's ponder has derivative exactly -1 in its pre-halt
activations and exactly 0 in the halting one, and the total objective has
derivative exactly 0 in every halting activation (the remainder carries
that step's probability mass instead). Both compare whole slices, with
`==`, of the dense (batch, T, max N) halting adjoints the engine's batch
node writes (`BatchRunResult.halt_grads`, h^n's adjoint at [e, t, n - 1]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .act import ActConfig
from .autodiff import ContractError
from .cells import CellParams
from .tasks import TaskBatch, TaskSpec
from .trainer import batch_objective

FD_STEP = 1e-6      # the central-difference step before any shrinking
# Finite differences over every parameter of a bigger network would
# dominate the suite for no extra assurance.
MAX_HIDDEN = 32


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict[str, float]
    coords_checked: int
    coords_skipped: list[tuple[str, int]]
    ponder_closed_form_ok: bool
    halt_gradient_zero_ok: bool

    @property
    def passed(self) -> bool:
        return (self.ponder_closed_form_ok and self.halt_gradient_zero_ok
                and np.isfinite(self.max_rel_err))


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1.0, abs(a), abs(n))


def _check_closed_forms(spec: TaskSpec, params: CellParams, cfg: ActConfig,
                        batch: TaskBatch) -> tuple[bool, bool]:
    # One forward; each backward replaces the tape's gradients, so every
    # check below reads the adjoints of its own loss alone.
    loss_var, res, _, _ = batch_objective(spec, params, cfg, batch)
    tape = res.tape
    r_col = res.node.shape[2] - 1
    n = np.arange(1, res.halts.shape[2] + 1)
    ponder_ok = True
    for t in range(batch.inputs.shape[1]):
        # Each row's ponder is N + R, so d/dh^n is -1 before its halt, else 0.
        r_t = ad.narrow(ad.narrow(res.node, 1, t, 1), 2, r_col, 1)
        tape.backward(ad.reduce_sum(r_t))
        want = np.where(n < res.steps[:, t, None], -1.0, 0.0)
        ponder_ok &= bool(np.all(res.halt_grads[:, t] == want))
    # Full objective: each row's halting activation gets zero gradient.
    tape.backward(loss_var)
    e, t = np.nonzero(res.active)
    halt_zero_ok = bool(np.all(res.halt_grads[e, t, res.steps[e, t] - 1] == 0.0))
    return ponder_ok, halt_zero_ok


def halting_gradient_check(params: CellParams, cfg: ActConfig, batch: TaskBatch,
                           spec: TaskSpec, max_coords_per_param: int | None = None,
                           seed=0) -> GradCheckReport:
    """Compare tape gradients of the full objective with central differences.

    Restricted to networks of at most `MAX_HIDDEN` hidden units.
    """
    if params.hidden_size > MAX_HIDDEN:
        raise ContractError(
            f"gradient check is specified for <= {MAX_HIDDEN} hidden units, "
            f"got {params.hidden_size}")
    cfg.validate()

    loss_var, res, breakdown, _ = batch_objective(spec, params, cfg, batch)
    res.tape.backward(loss_var)
    analytic = {name: res.tape.grad(var).copy()
                for name, var in res.param_vars.items()}
    base_signature = res.steps.copy()

    def objective(candidate: CellParams) -> tuple[float, np.ndarray]:
        _, r, b, _ = batch_objective(spec, candidate, cfg, batch)
        return b.total, r.steps

    rng = np.random.default_rng(seed)
    per_param: dict[str, float] = {}
    skipped: list[tuple[str, int]] = []
    checked = 0
    worst = 0.0
    work = params.copy()
    for name, arr in work.items():
        flat = arr.ravel()
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = np.sort(rng.choice(flat.size, size=max_coords_per_param,
                                        replace=False))
        param_worst = 0.0
        for i in coords:
            delta = FD_STEP
            resolved = False
            for _ in range(4):
                keep = flat[i]
                flat[i] = keep + delta
                f_plus, sig_plus = objective(work)
                flat[i] = keep - delta
                f_minus, sig_minus = objective(work)
                flat[i] = keep
                if (np.array_equal(sig_plus, base_signature)
                        and np.array_equal(sig_minus, base_signature)):
                    fd = (f_plus - f_minus) / (2.0 * delta)
                    err = _rel_err(float(analytic[name].ravel()[i]), fd)
                    param_worst = max(param_worst, err)
                    checked += 1
                    resolved = True
                    break
                delta *= 0.1      # the count pattern flipped: shrink and retry
            if not resolved:
                skipped.append((name, int(i)))
        per_param[name] = param_worst
        worst = max(worst, param_worst)

    ponder_ok, halt_zero_ok = _check_closed_forms(spec, params, cfg, batch)
    return GradCheckReport(worst, per_param, checked, skipped,
                           ponder_ok, halt_zero_ok)
