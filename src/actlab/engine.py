"""Whole-minibatch pondering on one tape: the package's pondering loop.

Training, evaluation, `trace` and `gradcheck` all run this loop. It
mirrors the per-sequence reference in `act` but steps every batch member
at once, which is what makes CPU training affordable: each intermediate
update is one set of matrix ops instead of a Python loop per example.

Per-example halting decisions are taken on plain floats, exactly as in the
reference path; rows that have already halted (or whose sequence has
ended) are frozen with select ops rather than zero-multiplied masks, so a
diverging frozen row cannot poison live rows through 0 * inf. The
mean-field weights are assembled on the tape from the recorded halting
activations plus the per-row remainder, so gradients are identical to the
per-sequence path (the test suite pins this at 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .act import ActConfig
from .autodiff import ContractError, NumericError, Tape, Var
from .cells import CELLS, CellParams, CellState, ParamVars, halting_activation, readout


@dataclass
class BatchRunResult:
    """Forward pass of a whole minibatch, ready for loss assembly."""

    tape: Tape
    param_vars: ParamVars
    outputs: list[Var]            # per input step: (batch, output_size)
    steps: np.ndarray             # (batch, T) int, N(t); 0 on inactive steps
    remainders: np.ndarray        # (batch, T) float, R(t); 0 on inactive steps
    active: np.ndarray            # (batch, T) bool, t < sequence length
    halted_by_cap: np.ndarray     # (batch, T) bool
    ponder_var: Optional[Var]     # on-tape part of sum_e P_e (scalar)
    ponder_const: float           # constant part (the integer update counts)
    halt_vars: list[list[Var]]    # per input step: h^1 .. h^n, each (batch, 1)
    remainder_vars: list[Optional[Var]]  # per input step: R (batch, 1), or None
                                         # when every row halts at its first update

    @property
    def ponders(self) -> np.ndarray:
        """rho per (example, step): N + R, zero where inactive."""
        return np.where(self.active, self.steps + self.remainders, 0.0)

    @property
    def per_example_ponder(self) -> np.ndarray:
        return self.ponders.sum(axis=1)

    @property
    def batch_ponder_sum(self) -> float:
        base = float(self.ponder_var.data) if self.ponder_var is not None else 0.0
        return base + self.ponder_const


def _freeze(run_mask: np.ndarray, new: CellState, old: CellState) -> CellState:
    """Keep `old` rows where run_mask is false."""
    if run_mask.all():
        return new
    width = new.hidden.data.shape[1]
    mask = np.broadcast_to(run_mask[:, None], (run_mask.size, width))
    parts = tuple(ad.where_mask(mask, n, o)
                  for n, o in zip(new.parts(), old.parts()))
    return type(new)(*parts)


def run_batch(cell, params: CellParams, cfg: ActConfig, inputs: np.ndarray,
              lengths: Optional[np.ndarray] = None,
              tape: Optional[Tape] = None) -> BatchRunResult:
    """Run the pondering loop over a (batch, T, input_size) input block.

    `lengths` gives each example's true sequence length; steps at or past
    it leave the state untouched and contribute nothing to outputs or
    ponder.
    """
    if isinstance(cell, str):
        cell = CELLS[cell]
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ContractError(f"inputs must be (batch, T, input_size), got {inputs.shape}")
    n_batch, n_steps_total, _ = inputs.shape
    if lengths is None:
        lengths = np.full(n_batch, n_steps_total, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)

    tape = tape if tape is not None else Tape()
    pv = ParamVars.record(tape, params)
    state = cell.zero_state(tape, params.hidden_size, batch=n_batch)

    outputs: list[Var] = []
    steps = np.zeros((n_batch, n_steps_total), dtype=np.int64)
    remainders = np.zeros((n_batch, n_steps_total))
    active_all = np.zeros((n_batch, n_steps_total), dtype=bool)
    capped = np.zeros((n_batch, n_steps_total), dtype=bool)
    ponder_var: Optional[Var] = None
    ponder_const = 0.0
    step_halt_vars: list[list[Var]] = []
    remainder_vars: list[Optional[Var]] = []
    ones_col = np.ones((n_batch, 1))
    zeros_col = np.zeros((n_batch, 1))

    for t in range(n_steps_total):
        active = lengths > t
        active_all[:, t] = active
        x_flag = tape.leaf(np.concatenate([inputs[:, t, :], ones_col], axis=1))
        x_rest: Optional[Var] = None

        running = active.copy()
        cum = np.zeros(n_batch)
        halt_vars: list[Var] = []
        before_masks: list[np.ndarray] = []
        at_masks: list[np.ndarray] = []
        step_states: list[CellState] = []
        step_outputs: list[Var] = []
        work = state
        n = 0
        while running.any():
            n += 1
            if n == 1:
                x = x_flag
            else:
                if x_rest is None:
                    x_rest = tape.leaf(
                        np.concatenate([inputs[:, t, :], zeros_col], axis=1))
                x = x_rest
            work = _freeze(running, cell.step(pv, work, x), work)
            h_var = halting_activation(pv, work)
            h_vals = h_var.data[:, 0]
            if not np.all(np.isfinite(h_vals[running])):
                raise NumericError(
                    f"halting activation is not finite at input step {t}, update {n}")
            cum[running] += h_vals[running]
            halt_now = running & ((cum >= 1.0 - cfg.epsilon) | (n == cfg.max_steps))
            before = running & ~halt_now

            steps[halt_now, t] = n
            capped[:, t] |= halt_now & (cum < 1.0 - cfg.epsilon)
            halt_vars.append(h_var)
            before_masks.append(before[:, None].astype(np.float64))
            at_masks.append(halt_now[:, None].astype(np.float64))
            step_states.append(work)
            step_outputs.append(readout(pv, work))
            running &= ~halt_now

        # Remainder per row: R = 1 - sum of pre-halt activations, on tape.
        hsum: Optional[Var] = None
        for h_var, mask in zip(halt_vars, before_masks):
            if mask.any():
                term = ad.const_mul(h_var, mask)
                hsum = term if hsum is None else ad.add(hsum, term)
        r_var = (ad.add_scalar(ad.scale(hsum, -1.0), 1.0)
                 if hsum is not None else None)
        r_vals = r_var.data[:, 0] if r_var is not None else np.ones(n_batch)
        remainders[active, t] = r_vals[active]
        step_halt_vars.append(halt_vars)
        remainder_vars.append(r_var)

        # Mean-field weights: the activation before the halt, the remainder at it.
        weights: list[Var] = []
        for h_var, before, at in zip(halt_vars, before_masks, at_masks):
            parts = []
            if before.any():
                parts.append(ad.const_mul(h_var, before))
            if at.any():
                parts.append(ad.const_mul(r_var, at) if r_var is not None
                             else tape.leaf(at))
            w = parts[0]
            for extra in parts[1:]:
                w = ad.add(w, extra)
            weights.append(w)

        def mean(items: list[Var]) -> Var:
            acc = ad.rowscale(items[0], weights[0])
            for item, w in zip(items[1:], weights[1:]):
                acc = ad.add(acc, ad.rowscale(item, w))
            return acc

        mean_parts = tuple(
            mean([s.parts()[j] for s in step_states])
            for j in range(len(step_states[0].parts())))
        mean_state = cell.from_parts(mean_parts)
        if not active.all():
            mean_state = _freeze(active, mean_state, state)
        state = mean_state
        outputs.append(mean(step_outputs))

        ponder_const += float(steps[active, t].sum())
        if r_var is not None:
            masked_r = ad.const_mul(r_var, active[:, None].astype(np.float64))
            term = ad.reduce_sum(masked_r)
            ponder_var = term if ponder_var is None else ad.add(ponder_var, term)
        else:
            ponder_const += float(active.sum())

    return BatchRunResult(tape, pv, outputs, steps, remainders, active_all,
                          capped, ponder_var, ponder_const, step_halt_vars,
                          remainder_vars)
