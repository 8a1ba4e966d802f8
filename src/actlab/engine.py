"""Whole-minibatch pondering on one tape: the package's pondering loop.

Training, evaluation, `trace` and `gradcheck` all run this loop, and it
holds the package's only halting law: `trace` prints the update counts,
remainders and halting activations it records. It mirrors the
per-sequence reference in `tests/oracles.py` but steps every batch member
at once, which is what makes CPU training affordable: each intermediate
update is one set of matrix ops instead of a Python loop per example.

Per-example halting decisions are taken on plain floats, exactly as in the
reference path. Each update steps only the rows still running: an input
step gathers its active rows into a compact block, and rows that halt
leave the block, so the cell, the halting unit and the mean-field
weighting never see a halted row or a position past a row's length.
Within an input step the running set only shrinks, and lengths are
prefixes, so every block is a row subset of the one before. Padded inputs
are never read: whatever they hold, even NaN or inf, the outputs at
active positions and every gradient equal those of a zero-padded batch
bit for bit.

Each input step is one pass over its updates. Update n weights s^n by w,
where w is h^n on rows that go on past n and the remainder R on rows that
halt at n. R lives on the tape: it starts at 1 and loses h^n on every
update a row goes on past, the same sequential 1 - h^1 - h^2 - ... that
the reference's `halting_distribution` computes, so the two agree bit for
bit. A halted row's weighted sum is final when it leaves the block; at
the end of the input step one `put_rows` node per state part adds each
row's terms in update order and writes them back into the full batch, and
one more does the same for R. The output is read out once per input
step, from the mean state. The readout is affine and the weights sum to
one, so this equals the reference's sum of w * readout(s^n) up to
rounding; the test suite pins values and gradients to the reference at
1e-12. Positions at or past a row's length hold the readout of its last
state; every loss and metric masks them out.
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
    halt_vars: list[list[Var]]    # per input step: h^1 .. h^n on the rows stepped
    halt_rows: list[list[np.ndarray]]  # their batch indices, increasing
    remainder_vars: list[Var]     # per input step: R (batch, 1); 1 on inactive rows

    @property
    def ponders(self) -> np.ndarray:
        """rho per (example, step): N + R, zero where inactive."""
        return np.where(self.active, self.steps + self.remainders, 0.0)

    @property
    def per_example_ponder(self) -> np.ndarray:
        return self.ponders.sum(axis=1)

    def halt_row(self, e: int, t: int, n: int) -> int:
        """Row of batch member e in h^n of input step t; n <= steps[e, t]."""
        return int(np.searchsorted(self.halt_rows[t][n - 1], e))

    @property
    def batch_ponder_sum(self) -> float:
        return float(self.ponder_var.data) + self.ponder_const


def _masked(var: Var, rows: np.ndarray) -> Optional[Var]:
    """`var` on the selected rows and 0 elsewhere; None if no row is selected."""
    if rows.all():
        return var
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
    ones = tape.leaf(np.ones((n_batch, 1)))

    outputs: list[Var] = []
    steps = np.zeros((n_batch, n_steps_total), dtype=np.int64)
    remainders = np.zeros((n_batch, n_steps_total))
    active_all = np.arange(n_steps_total)[None, :] < lengths[:, None]
    capped = np.zeros((n_batch, n_steps_total), dtype=bool)
    ponder_var = tape.leaf(np.zeros(()))
    ponder_const = 0.0
    step_halt_vars: list[list[Var]] = []
    step_halt_rows: list[list[np.ndarray]] = []
    remainder_vars: list[Var] = []

    for t in range(n_steps_total):
        active = active_all[:, t]
        halt_vars: list[Var] = []
        halt_rows: list[np.ndarray] = []
        r_full = ones
        # With no active row nothing runs: the state stays and R stays at 1.
        if active.any():
            # The block holds the rows still running, in batch order: `rows`
            # as a batch mask, `idx` as batch indices.
            rows, idx = active, np.flatnonzero(active)
            work = state if active.all() else cell.from_parts(
                tuple(ad.take_rows(part, active) for part in state.parts()))
            x_first, x_rest = (augment_input(inputs[idx, t], n) for n in (1, 2))
            r_var = tape.leaf(np.ones((idx.size, 1)))
            cum = np.zeros(idx.size)
            sums: list[tuple[np.ndarray, tuple[Var, ...]]] = []
            r_pieces: list[tuple[np.ndarray, Var]] = []
            n = 0
            while True:
                n += 1
                work = cell.step(pv, work, x_first if n == 1 else x_rest)
                h_var = halting_activation(pv, work)
                h_vals = h_var.data[:, 0]
                if not np.all(np.isfinite(h_vals)):
                    raise NumericError(
                        f"halting activation is not finite at input step {t}, update {n}")
                cum += h_vals
                halt_now = (cum >= 1.0 - cfg.epsilon) | (n == cfg.max_steps)
                steps[idx[halt_now], t] = n
                capped[idx[halt_now & (cum < 1.0 - cfg.epsilon)], t] = True
                halt_vars.append(h_var)
                halt_rows.append(idx)
                going_on = ~halt_now

                # Mean-field weight: h^n on rows that go on, R on rows halting now.
                h_on, r_at = _masked(h_var, going_on), _masked(r_var, halt_now)
                if h_on is None:
                    w = r_at
                else:
                    w = h_on if r_at is None else ad.add(h_on, r_at)
                    r_var = ad.sub(r_var, h_on)
                sums.append((rows, tuple(ad.rowscale(part, w) for part in work.parts())))
                if r_at is not None:
                    r_pieces.append((rows, r_at))
                if h_on is None:
                    break
                if r_at is not None:
                    # Rows halting now leave the block; their sums are final.
                    work = cell.from_parts(
                        tuple(ad.take_rows(part, going_on) for part in work.parts()))
                    r_var = ad.take_rows(r_var, going_on)
                    x_rest, cum, idx = x_rest[going_on], cum[going_on], idx[going_on]
                    rows = np.zeros(n_batch, dtype=bool)
                    rows[idx] = True

            state = cell.from_parts(tuple(
                ad.put_rows(old, [(m, parts[j]) for m, parts in sums])
                for j, old in enumerate(state.parts())))
            r_full = ad.put_rows(ones, r_pieces)
            ponder_var = ad.add(ponder_var, ad.reduce_sum(_masked(r_full, active)))
        outputs.append(readout(pv, state))
        remainders[active, t] = r_full.data[active, 0]
        step_halt_vars.append(halt_vars)
        step_halt_rows.append(halt_rows)
        remainder_vars.append(r_full)
        ponder_const += float(steps[active, t].sum())

    return BatchRunResult(tape, pv, outputs, steps, remainders, active_all,
                          capped, ponder_var, ponder_const, step_halt_vars,
                          step_halt_rows, remainder_vars)
