"""Whole-minibatch pondering on one tape: the package's pondering loop.

Training, evaluation, `trace` and `gradcheck` all run this loop, and it
holds the package's only halting law: `trace` prints the update counts,
remainders and halting activations it records. It mirrors the
per-sequence reference in `tests/oracles.py` but steps every batch member
at once, which is what makes CPU training affordable: each intermediate
update is one set of matrix ops instead of a Python loop per example.

Each input step is one tape node. Its parents are the batch state before
the step and the parameters; its value is [mean state | R] for every
batch row. Its forward runs the step's updates in plain numpy on a
compact block of the rows still running: the cell (`cell.step`), the
halting unit (`halting_activation`), then the mean-field weight. Rows
that halt leave the block, so no update ever sees a halted row or a
position past a row's length. Within an input step the running set only
shrinks, and lengths are prefixes, so every block is a row subset of the
one before. Padded inputs are never read: whatever they hold, even NaN or
inf, the outputs at active positions and every gradient equal those of a
zero-padded batch bit for bit. Rows with no input at the step keep their
state and read R = 0.

Per-example halting decisions are taken on plain floats, exactly as in the
reference path. Update n weights s^n by w, where w is h^n on rows that go
on past n and the remainder R on rows that halt at n. R starts at 1 and
loses h^n on every update a row goes on past, the same sequential
1 - h^1 - h^2 - ... that the reference's `halting_distribution` computes,
so the two agree bit for bit. Each row's weighted sum accumulates in
place in update order and is final when the row leaves the block. Every
update of a step sees the same input, so its projection x W_in is formed
once per step, with the bias, and the flag row of W_in is added on the
first update.

The node's backward replays the updates in reverse. With g_S and g_R the
adjoints of a row's mean state and R, and N its update count: d s^n gets
w_n g_S, d R = g_R + <g_S, s^N>, d h^n = <g_S, s^n> - d R for n < N, and
h^N gets exactly 0, as it enters only the halting decision. The halting
and cell backward follow. The weights get `autodiff.Outer` packets over
the step's rows, so `Tape.backward` forms each weight adjoint as a few
stacked GEMMs: W_rec, b_rec, w_halt and b_halt stack each update's rows,
and W_in stacks each active row once, with its dz summed over its updates,
plus one row for the flag. The node keeps each update's halting-adjoint
array for `BatchRunResult.halt_grads`.

The output is read out once per input step, from the mean state. The
readout is affine and the weights sum to one, so this equals the
reference's sum of w * readout(s^n) up to rounding; the test suite pins
values and gradients to the reference at 1e-12. Positions at or past a
row's length hold the readout of its last state; every loss and metric
masks them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .act import ActConfig
from .autodiff import ContractError, DimensionError, NumericError, Tape, Var
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
    halts: list[list[np.ndarray]]      # per input step: h^1 .. h^n on the rows stepped
    halt_rows: list[list[np.ndarray]]  # their batch indices, increasing
    remainder_vars: list[Var]     # per input step: R (batch, 1); 0 on inactive rows
    step_vars: list[Optional[Var]]     # per input step: its node, None if no row ran
    step_halt_grads: list[list[np.ndarray]]  # written by each node's backward

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

    def halt_grads(self, t: int) -> list[np.ndarray]:
        """Adjoints of h^1 .. h^n of input step t from the last
        `tape.backward`, shaped like `halts[t]`; zeros if it did not reach
        the step."""
        node, grads = self.step_vars[t], self.tape.gradients
        if node is None or node.idx >= len(grads) or grads[node.idx] is None:
            return [np.zeros(rows.size) for rows in self.halt_rows[t]]
        return self.step_halt_grads[t]

    @property
    def batch_ponder_sum(self) -> float:
        return float(self.ponder_var.data) + self.ponder_const


def _record_step(cell, pv: ParamVars, cfg: ActConfig, state: Var, x: np.ndarray,
                 idx0: np.ndarray, t: int):
    """Record input step t as one node; see the module docstring.

    `state` is the batch's [s | R] before the step and `x` the inputs of
    its active rows `idx0`. Returns the node, each active row's N and
    whether the step cap stopped it, and per update the halting values,
    their batch rows, and the list the backward fills with their adjoints.
    """
    w_in, w_rec, b_rec, w_halt, b_halt = (
        v.data for v in (pv.w_in, pv.w_rec, pv.b_rec, pv.w_halt, pv.b_halt))
    n_hidden = w_rec.shape[0]
    prev = state.data
    width = prev.shape[1] - 1
    n_active = idx0.size
    value = prev.copy()
    value[:, width] = 0.0
    steps = np.zeros(n_active, dtype=np.int64)
    capped = np.zeros(n_active, dtype=bool)

    # The block: its rows as positions among the active rows, their state,
    # x W_in + b, running halting sum, R and mean-state sum.
    pos = np.arange(n_active)
    s = prev[idx0, :width]
    xb = x @ w_in[:-1]
    xb += b_rec
    cum = np.zeros(n_active)
    r = np.ones(n_active)
    acc = None
    # Per update: (pos, s_in, s_new, cell backward, h, w, halting rows or None).
    updates = []
    n = 0
    while True:
        n += 1
        s_new, back = cell.step(xb + w_in[-1] if n == 1 else xb, s, w_rec)
        h = halting_activation(s_new[:, :n_hidden], w_halt, b_halt)
        if not np.all(np.isfinite(h)):
            raise NumericError(
                f"halting activation is not finite at input step {t}, update {n}")
        cum += h
        halt = (cum >= 1.0 - cfg.epsilon) | (n == cfg.max_steps)
        if not halt.any():
            halt = None
        # Mean-field weight: h^n on rows that go on, R on rows halting now.
        w = h if halt is None else np.where(halt, r, h)
        updates.append((pos, s, s_new, back, h, w, halt))
        if acc is None:
            acc = s_new * w[:, None]
        else:
            acc += s_new * w[:, None]
        if halt is None:
            s, r = s_new, r - h
            continue
        done = pos[halt]
        steps[done] = n
        capped[done] = cum[halt] < 1.0 - cfg.epsilon
        rows = idx0[done]
        value[rows, :width] = acc[halt]
        value[rows, width] = r[halt]
        if halt.all():
            break
        go = ~halt
        pos, s, xb, cum, acc = pos[go], s_new[go], xb[go], cum[go], acc[go]
        r = r[go] - h[go]

    offsets = np.cumsum([0] + [u[0].size for u in updates]).tolist()
    halt_grads: list[np.ndarray] = []

    def backward(g):
        g_s, g_r = g[:, :width], g[:, width]
        g_act, d_r = g_s[idx0], g_r[idx0]
        dz_all = np.empty((offsets[-1], w_rec.shape[1]))
        dpre_all = np.empty((offsets[-1], 1))
        dh_all: list[np.ndarray] = [None] * len(updates)
        # Adjoint of the block's state, and each block row's dz summed over
        # the updates after the one being replayed.
        carry = dz_sum = g_pos = None
        for k in range(len(updates) - 1, -1, -1):
            pos, _, s_new, back, h, w, halt = updates[k]
            if pos is not g_pos:
                g_pos, g_blk = pos, g_act[pos]
            dw = np.einsum("ij,ij->i", g_blk, s_new)
            if halt is not None:
                d_r[pos[halt]] += dw[halt]
            dh = dw - d_r[pos]
            if halt is not None:
                dh[halt] = 0.0
            dh_all[k] = dh
            dpre = dh * h * (1.0 - h)
            ds = g_blk * w[:, None]
            if carry is not None:
                ds += carry
            ds[:, :n_hidden] += np.multiply.outer(dpre, w_halt[:, 0])
            dz = dz_all[offsets[k]:offsets[k + 1]]
            carry = back(ds, dz)
            dpre_all[offsets[k]:offsets[k + 1], 0] = dpre
            if dz_sum is None:
                dz_sum = dz.copy()
            else:
                dz_sum += dz
            before = updates[k - 1][6] if k else None
            if before is not None:
                # Rows that halted at the update before stop here: exact zeros.
                go = ~before
                carry, dz_sum = (_expand(a, go) for a in (carry, dz_sum))
        halt_grads[:] = dh_all

        d_prev = np.zeros_like(prev)
        d_prev[:, :width] = g_s
        d_prev[idx0, :width] = carry
        x_rows = np.zeros((n_active + 1, w_in.shape[0]))
        x_rows[:-1, :-1] = x
        x_rows[-1, -1] = 1.0
        dz_rows = np.empty((n_active + 1, w_rec.shape[1]))
        dz_rows[:-1] = dz_sum
        dz_rows[-1] = dz_all[:offsets[1]].sum(axis=0)
        h_in = np.concatenate([u[1][:, :n_hidden] for u in updates])
        h_out = np.concatenate([u[2][:, :n_hidden] for u in updates])
        ones = np.ones((offsets[-1], 1))
        return (d_prev, ad.Outer(x_rows, dz_rows), ad.Outer(h_in, dz_all),
                ad.Outer(ones, dz_all), ad.Outer(h_out, dpre_all),
                ad.Outer(ones, dpre_all))

    node = ad.record(value, (state, pv.w_in, pv.w_rec, pv.b_rec, pv.w_halt,
                             pv.b_halt), backward)
    halt_rows = [idx0[u[0]] for u in updates]
    return node, steps, capped, [u[4] for u in updates], halt_rows, halt_grads


def _expand(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows of `a` placed at the true rows of `keep`; exact zeros elsewhere."""
    full = np.zeros((keep.size,) + a.shape[1:])
    full[keep] = a
    return full


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
    if inputs.shape[2] != params.input_size:
        raise DimensionError(f"inputs have {inputs.shape[2]} features, the "
                             f"cell takes {params.input_size}")
    n_batch, n_steps_total, _ = inputs.shape
    if lengths is None:
        lengths = np.full(n_batch, n_steps_total, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)

    tape = Tape()
    pv = ParamVars.record(tape, params)
    width = cell.state_multiple * params.hidden_size
    state = tape.leaf(np.zeros((n_batch, width + 1)))      # [s | R]
    hidden = None

    outputs: list[Var] = []
    steps = np.zeros((n_batch, n_steps_total), dtype=np.int64)
    remainders = np.zeros((n_batch, n_steps_total))
    active_all = np.arange(n_steps_total)[None, :] < lengths[:, None]
    capped = np.zeros((n_batch, n_steps_total), dtype=bool)
    ponder_var = tape.leaf(np.zeros(()))
    ponder_const = 0.0
    halts, halt_rows, halt_grads = [], [], []
    remainder_vars: list[Var] = []
    step_vars: list[Optional[Var]] = []

    for t in range(n_steps_total):
        idx = np.flatnonzero(active_all[:, t])
        node = None
        step_halts, step_rows, step_grads = [], [], []
        # With no active row nothing runs: the state stays and R reads 0.
        if idx.size:
            node, n_steps, n_capped, step_halts, step_rows, step_grads = \
                _record_step(cell, pv, cfg, state, inputs[idx, t], idx, t)
            steps[idx, t], capped[idx, t] = n_steps, n_capped
            state, hidden = node, None
            r_var = ad.narrow(node, 1, width, 1)
            ponder_var = ad.add(ponder_var, ad.reduce_sum(r_var))
        else:
            r_var = tape.leaf(np.zeros((n_batch, 1)))
        if hidden is None:
            hidden = ad.narrow(state, 1, 0, params.hidden_size)
        outputs.append(readout(pv, CellState(hidden)))
        remainders[:, t] = r_var.data[:, 0]
        halts.append(step_halts)
        halt_rows.append(step_rows)
        halt_grads.append(step_grads)
        remainder_vars.append(r_var)
        step_vars.append(node)
        ponder_const += float(steps[idx, t].sum())

    return BatchRunResult(tape, pv, outputs, steps, remainders, active_all,
                          capped, ponder_var, ponder_const, halts, halt_rows,
                          remainder_vars, step_vars, halt_grads)
