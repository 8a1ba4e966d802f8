"""Whole-minibatch pondering on one tape: the package's pondering loop.

Training, evaluation, `trace` and `gradcheck` all run this loop, and it
holds the package's only halting law: `trace` prints the update counts,
remainders and halting activations it records. It mirrors the
per-sequence reference in `tests/oracles.py` but steps every batch member
at once, which is what makes CPU training affordable: each intermediate
update is one set of matrix ops instead of a Python loop per example.

Per-example halting decisions are taken on plain floats, exactly as in the
reference path; rows that have already halted (or whose sequence has
ended) are frozen with select ops rather than zero-multiplied masks, so a
diverging frozen row cannot poison live rows through 0 * inf.

Each input step is one pass over its updates. Update n adds w * s^n into
running mean-field sums, where w is h^n on rows that go on past n and the
remainder R on rows that halt at n. R lives on the tape: it starts at 1
and loses h^n on every update a row goes on past, the same sequential
1 - h^1 - h^2 - ... that the reference's `halting_distribution` computes,
so the two agree bit for bit. The output is read out once per input step,
from the mean state. The readout is affine and the weights sum to one, so
this equals the reference's sum of w * readout(s^n) up to rounding; the
test suite pins values and gradients to the reference at 1e-12. Positions
at or past a row's length hold the readout of its frozen state; every
loss and metric masks them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .act import ActConfig, augment_input
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
    ponder_var: Var               # on-tape part of sum_e P_e (scalar)
    ponder_const: float           # constant part (the integer update counts)
    halt_vars: list[list[Var]]    # per input step: h^1 .. h^n, each (batch, 1)
    remainder_vars: list[Var]     # per input step: R (batch, 1); 1 on inactive rows

    @property
    def ponders(self) -> np.ndarray:
        """rho per (example, step): N + R, zero where inactive."""
        return np.where(self.active, self.steps + self.remainders, 0.0)

    @property
    def per_example_ponder(self) -> np.ndarray:
        return self.ponders.sum(axis=1)

    @property
    def batch_ponder_sum(self) -> float:
        return float(self.ponder_var.data) + self.ponder_const


def _freeze(run_mask: np.ndarray, new: CellState, old: CellState) -> CellState:
    """Keep `old` rows where run_mask is false."""
    if run_mask.all():
        return new
    width = new.hidden.data.shape[1]
    mask = np.broadcast_to(run_mask[:, None], (run_mask.size, width))
    parts = tuple(ad.where_mask(mask, n, o)
                  for n, o in zip(new.parts(), old.parts()))
    return type(new)(*parts)


def _masked(var: Var, rows: np.ndarray) -> Optional[Var]:
    """`var` on the selected rows and 0 elsewhere; None if no row is selected."""
    return ad.const_mul(var, rows[:, None]) if rows.any() else None


def run_batch(cell, params: CellParams, cfg: ActConfig, inputs: np.ndarray,
              lengths: Optional[np.ndarray] = None) -> BatchRunResult:
    """Run the pondering loop over a (batch, T, input_size) input block.

    `lengths` gives each example's true sequence length; steps at or past
    it leave the state untouched and contribute nothing to ponder.
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

    tape = Tape()
    pv = ParamVars.record(tape, params)
    state = cell.zero_state(tape, params.hidden_size, batch=n_batch)

    outputs: list[Var] = []
    steps = np.zeros((n_batch, n_steps_total), dtype=np.int64)
    remainders = np.zeros((n_batch, n_steps_total))
    active_all = np.arange(n_steps_total)[None, :] < lengths[:, None]
    capped = np.zeros((n_batch, n_steps_total), dtype=bool)
    ponder_var = tape.leaf(np.zeros(()))
    ponder_const = 0.0
    step_halt_vars: list[list[Var]] = []
    remainder_vars: list[Var] = []

    for t in range(n_steps_total):
        active = active_all[:, t]
        x_first, x_rest = (augment_input(inputs[:, t], n) for n in (1, 2))
        r_var = tape.leaf(np.ones((n_batch, 1)))
        running = active.copy()
        cum = np.zeros(n_batch)
        halt_vars: list[Var] = []
        sums: list[Var] = []
        work = state
        n = 0
        while running.any():
            n += 1
            work = _freeze(running, cell.step(pv, work, x_first if n == 1 else x_rest),
                           work)
            h_var = halting_activation(pv, work)
            h_vals = h_var.data[:, 0]
            if not np.all(np.isfinite(h_vals[running])):
                raise NumericError(
                    f"halting activation is not finite at input step {t}, update {n}")
            cum[running] += h_vals[running]
            halt_now = running & ((cum >= 1.0 - cfg.epsilon) | (n == cfg.max_steps))
            steps[halt_now, t] = n
            capped[:, t] |= halt_now & (cum < 1.0 - cfg.epsilon)
            halt_vars.append(h_var)
            running &= ~halt_now

            # Mean-field weight: h^n on rows that go on, R on rows halting now.
            h_on, r_at = _masked(h_var, running), _masked(r_var, halt_now)
            if h_on is None:
                w = r_at
            else:
                w = h_on if r_at is None else ad.add(h_on, r_at)
                r_var = ad.sub(r_var, h_on)
            parts = [ad.rowscale(part, w) for part in work.parts()]
            sums = [ad.add(s, p) for s, p in zip(sums, parts)] if sums else parts

        # With no active row nothing ran: the state stays and R stays at 1.
        if sums:
            state = _freeze(active, cell.from_parts(tuple(sums)), state)
            ponder_var = ad.add(ponder_var, ad.reduce_sum(_masked(r_var, active)))
        outputs.append(readout(pv, state))
        remainders[active, t] = r_var.data[active, 0]
        step_halt_vars.append(halt_vars)
        remainder_vars.append(r_var)
        ponder_const += float(steps[active, t].sum())

    return BatchRunResult(tape, pv, outputs, steps, remainders, active_all,
                          capped, ponder_var, ponder_const, step_halt_vars,
                          remainder_vars)
