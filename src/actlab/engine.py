"""Whole-minibatch pondering on one tape: the package's pondering loop.

Training, evaluation, `trace` and `gradcheck` all run this loop, and it
holds the package's only halting law: `trace` prints the update counts,
remainders and halting activations it records. It mirrors the
per-sequence reference in `tests/oracles.py` but steps every batch member
at once, which is what makes CPU training affordable: each intermediate
update is one set of matrix ops instead of a Python loop per example.

The whole batch is one tape node. Its parents are the parameters; its
value is (batch, T, output + 1): each position's readout, then its R. A
second node sums N + R over the active positions, the batch's ponder
cost. The forward runs each input step's updates in plain numpy on a
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
first update. Every batch starts from the zero state, so the first update
of input step 0 passes the cell s=None: it forms no s W_rec there, and
the backward no adjoint of the initial state.

The output is read out from the mean state, as one (batch T, H) @ (H, O)
product over all positions. The readout is affine and the weights sum to
one, so this equals the reference's sum of w * readout(s^n) up to
rounding; the test suite pins values and gradients to the reference at
1e-12. Positions at or past a row's length hold the readout of its last
state; every loss and metric masks them out.

The node's backward forms the readout's input and W_out adjoints as one
product each, then replays the input steps in reverse, and each step's
updates in reverse. With g_S and g_R the adjoints of a row's mean state
and R, and N its update count: d s^n gets w_n g_S, d R = g_R + <g_S, s^N>,
d h^n = <g_S, s^n> - d R for n < N, and h^N gets exactly 0, as it enters
only the halting decision. The halting and cell backward follow. Each
other weight's adjoint is a stack of rows multiplied out as one GEMM:
W_rec, b_rec, w_halt and b_halt stack each update's rows, and W_in stacks
each active row once per input step, with its dz summed over its updates,
plus one row for the flag. W_rec and b_rec share one stack of dz rows,
and w_halt and b_halt one of halting adjoint rows. The replay writes each
step's rows in place into buffers its stacks own, sized from the records
to the largest chunk before the replay starts, and a stack is multiplied
out whenever it reaches OUTER_FLUSH_ROWS rows, which bounds the rows it
keeps alive.

The halting record is dense, like every other per-position result: h^n of
position (e, t) sits at `BatchRunResult.halts[e, t, n - 1]` and its
adjoint at `halt_grads[e, t, n - 1]`, for n <= N(e, t); every other entry
is exactly 0. The N axis is as long as the batch's largest N.

`run_batch(..., grad=False)` is the same forward without the tape: it
records no node, drops each update's cell backward as soon as the cell
returns it, and keeps per update only its block rows and h, for the
halting record. An update's gate arrays go with it, and its new state
with the next update, which takes it as input, so the pass holds the
per-position results and about one update's arrays. Evaluation and
`trace` run this way; the values are those of the recording pass, bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .act import ActConfig
from .autodiff import ContractError, DimensionError, NumericError, Tape, Var
from .cells import CELLS, CellParams, halting_activation, readout

# Rows a weight's stack may hold before it is multiplied out into the
# weight's adjoint. The replay writes each update's rows into buffers the
# stack owns, sized to its largest chunk, and a flush multiplies views of
# them, with no stacked copy: at lstm-1500 a dz row is 48 KB, so a full
# W_rec stack is about 48 MB. Measured on one text forward and backward
# (lstm-1500, batch 8, 500-byte window, 8,000 rows, one BLAS thread):
# peak RSS 1,694 MB at 1024 rows; with a stacked copy per flush, 1,748 MB
# at 1024, 1,894 MB at 2048 and 2,708 MB unflushed.
OUTER_FLUSH_ROWS = 1024


@dataclass
class BatchRunResult:
    """Forward pass of a whole minibatch, ready for loss assembly."""

    # The tape fields; None after a forward-only pass.
    tape: Optional[Tape]
    param_vars: Optional[dict[str, Var]]   # leaves in CellParams.items() order
    node: Optional[Var]           # (batch, T, output + 1): readout, then R
    ponder_var: Optional[Var]     # sum of N + R over active positions (scalar)
    outputs: np.ndarray           # (batch, T, output): the node's readouts
    remainders: np.ndarray        # (batch, T): its R; 0 on inactive steps
    steps: np.ndarray             # (batch, T) int, N(t); 0 on inactive steps
    active: np.ndarray            # (batch, T) bool, t < sequence length
    halted_by_cap: np.ndarray     # (batch, T) bool
    halts: np.ndarray             # (batch, T, max N): h^n at [e, t, n - 1]
    # Shaped like `halts`: the adjoints of h from the last `tape.backward`
    # that reached the batch node; 0 before any backward. A tape field.
    halt_grads: Optional[np.ndarray]

    @property
    def ponders(self) -> np.ndarray:
        """rho per (example, step): N + R, zero where inactive."""
        return np.where(self.active, self.steps + self.remainders, 0.0)


class _RowStack:
    """The adjoints of weights whose row blocks share a right factor b: per
    left factor a, the sum of a.T @ b over the rows written, formed as one
    GEMM per weight per chunk of at least OUTER_FLUSH_ROWS rows.

    A backward writes each input step's rows in place into buffers the
    stack owns, one for b and one per written left factor, sized to the
    largest chunk; a constant ones column (a bias) is allocated once. A
    flush multiplies views of the rows written since the last one.
    """

    def __init__(self, step_rows: list[int], widths: tuple[int, ...],
                 ones: bool = False):
        """`step_rows`: the rows each step will write, in the order they
        come; `widths`: the columns of b, then of each written a."""
        largest = rows = 0
        for n in step_rows:
            rows += n
            largest = max(largest, rows)
            if rows >= OUTER_FLUSH_ROWS:
                rows = 0
        self.buffers = [np.empty((largest, w)) for w in widths]
        self.written = len(widths)
        if ones:
            self.buffers.append(np.ones((largest, 1)))
        self.rows, self.totals = 0, (None,) * (len(self.buffers) - 1)

    def take(self, n: int) -> tuple[np.ndarray, ...]:
        """The next n rows of b and of each written a, to be filled in."""
        if self.rows >= OUTER_FLUSH_ROWS:
            self.flush()
        start = self.rows
        self.rows += n
        return tuple(buf[start:self.rows] for buf in self.buffers[:self.written])

    def flush(self) -> tuple[Optional[np.ndarray], ...]:
        """Multiply out the rows written; returns the adjoints so far."""
        if self.rows:
            b, *lefts = (buf[:self.rows] for buf in self.buffers)
            products = tuple(a.T @ b for a in lefts)
            for product, total in zip(products, self.totals):
                if total is not None:
                    product += total
            self.rows, self.totals = 0, products
        return self.totals


def _forward_step(cell, weights, cfg: ActConfig, x: np.ndarray,
                  idx0: np.ndarray, t: int, state, steps, capped, remainders,
                  grad: bool):
    """Run input step t on its active rows `idx0`, whose inputs are `x`.

    Writes each row's mean state, N, whether the step cap stopped it and R
    at its batch row of `state`, `steps`, `capped` and `remainders`.
    Returns per update (block rows as positions among the active rows, h,
    then with `grad` s_in, s_new, cell backward, w, halting rows or None).
    Without `grad` the cell's backward is dropped as soon as it is
    returned, so no update's arrays outlive the next update.
    """
    w_in, w_rec, b_rec, w_halt, b_halt = weights
    n_hidden = w_rec.shape[0]
    n_active = idx0.size

    # The block: its rows as positions among the active rows, their state,
    # x W_in + b, running halting sum, R and mean-state sum.
    pos = np.arange(n_active)
    s = state[idx0]
    xb = x @ w_in[:-1]
    xb += b_rec
    cum = np.zeros(n_active)
    r = np.ones(n_active)
    acc = None
    updates = []
    n = 0
    while True:
        n += 1
        # The state before the first update of input step 0 is zero.
        s_new, back = cell.step(xb + w_in[-1] if n == 1 else xb,
                                None if n == 1 and t == 0 else s, w_rec)
        if not grad:
            back = None
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
        updates.append((pos, h, s, s_new, back, w, halt) if grad else (pos, h))
        if acc is None:
            acc = s_new * w[:, None]
        else:
            acc += s_new * w[:, None]
        if halt is None:
            s, r = s_new, r - h
            continue
        done = idx0[pos[halt]]
        state[done], steps[done], remainders[done] = acc[halt], n, r[halt]
        capped[done] = cum[halt] < 1.0 - cfg.epsilon
        if halt.all():
            break
        go = ~halt
        pos, s, xb, cum, acc = pos[go], s_new[go], xb[go], cum[go], acc[go]
        r = r[go] - h[go]
    return updates


def _backward_step(updates, x: np.ndarray, g_act: np.ndarray, d_r: np.ndarray,
                   weights, stacks: tuple[_RowStack, ...]):
    """Replay one input step's updates in reverse; see the module docstring.

    `g_act` and `d_r` are the adjoints of the mean state and R of the
    step's active rows, whose inputs are `x`; `d_r` is updated in place.
    Writes the step's weight rows into `stacks`, the stacks of W_in, of
    W_rec and b_rec, and of w_halt and b_halt. Returns the adjoint of the
    state the step started from on those rows (None at input step 0,
    which starts from the zero state), and their halting adjoints,
    (rows, updates), 0 past each row's halt.
    """
    _, w_rec, _, w_halt, _ = weights
    n_hidden = w_rec.shape[0]
    n_active = x.shape[0]
    offsets = np.cumsum([0] + [u[0].size for u in updates]).tolist()
    in_stack, rec_stack, halt_stack = stacks
    dz_all, h_in = rec_stack.take(offsets[-1])
    dpre_all, h_out = halt_stack.take(offsets[-1])
    # W_in's rows: each active row's x with its dz summed over its
    # updates, then the flag row with the first update's dz summed.
    dz_rows, x_rows = in_stack.take(n_active + 1)
    dz_sum = dz_rows[:-1]
    dz_sum[...] = 0.0
    dh_all = np.zeros((n_active, len(updates)))
    # Adjoint of the block's state.
    carry = g_pos = None
    for k in range(len(updates) - 1, -1, -1):
        pos, h, s, s_new, back, w, halt = updates[k]
        rows = slice(offsets[k], offsets[k + 1])
        if pos is not g_pos:
            g_pos, g_blk = pos, g_act[pos]
        dw = np.einsum("ij,ij->i", g_blk, s_new)
        if halt is not None:
            d_r[pos[halt]] += dw[halt]
        dh = dw - d_r[pos]
        if halt is not None:
            dh[halt] = 0.0
        dh_all[pos, k] = dh
        dpre = dh * h * (1.0 - h)
        ds = g_blk * w[:, None]
        if carry is not None:
            ds += carry
        ds[:, :n_hidden] += np.multiply.outer(dpre, w_halt[:, 0])
        dz = dz_all[rows]
        carry = back(ds, dz)
        dpre_all[rows, 0] = dpre
        h_in[rows] = s[:, :n_hidden]
        h_out[rows] = s_new[:, :n_hidden]
        # Each row sums its dz from its last update back; the first term
        # is copied rather than added to 0, so a -0.0 stays -0.0.
        if k == len(updates) - 1:
            dz_sum[pos] = dz
        elif pos.size == n_active:
            dz_sum += dz
        else:
            dz_sum[pos] += dz
        before = updates[k - 1][6] if k else None
        if before is not None:
            # Rows that halted at the update before stop here: exact zeros.
            carry = _expand(carry, ~before)

    x_rows[:-1, :-1] = x
    x_rows[:-1, -1] = 0.0
    x_rows[-1] = 0.0
    x_rows[-1, -1] = 1.0
    dz_rows[-1] = dz_all[:offsets[1]].sum(axis=0)
    return carry, dh_all


def _expand(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows of `a` placed at the true rows of `keep`; exact zeros elsewhere."""
    full = np.zeros((keep.size,) + a.shape[1:])
    full[keep] = a
    return full


def run_batch(params: CellParams, cfg: ActConfig, inputs: np.ndarray,
              lengths: Optional[np.ndarray] = None, *,
              grad: bool = True) -> BatchRunResult:
    """Run the pondering loop of the `params.kind` cell over a
    (batch, T, input_size) input block.

    `lengths` gives each example's true sequence length; steps at or past
    it leave the state untouched and contribute nothing to ponder. With
    `grad=False` the pass is forward-only: it records no tape, keeps
    nothing for a backward, and leaves the result's tape fields None.
    """
    cell = CELLS[params.kind]
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

    if grad:
        tape = Tape()
        pv = {name: tape.leaf(arr) for name, arr in params.items()}
        arrays = {name: v.data for name, v in pv.items()}
    else:
        tape = pv = None
        arrays = {name: np.ascontiguousarray(a, dtype=np.float64)
                  for name, a in params.items()}
    weights = tuple(arrays[name] for name in ("w_in", "w_rec", "b_rec",
                                              "w_halt", "b_halt"))
    w_out, b_out = arrays["w_out"], arrays["b_out"]
    n_hidden = params.hidden_size
    width = cell.state_multiple * n_hidden
    state = np.zeros((n_batch, width))
    hidden = np.empty((n_batch, n_steps_total, n_hidden))   # per position
    value = np.zeros((n_batch, n_steps_total, params.output_size + 1))
    steps = np.zeros((n_batch, n_steps_total), dtype=np.int64)
    capped = np.zeros((n_batch, n_steps_total), dtype=bool)
    active = np.arange(n_steps_total)[None, :] < lengths[:, None]
    # Per input step: its active rows, their inputs (kept only with
    # `grad`) and its updates.
    records: list[tuple] = []

    for t in range(n_steps_total):
        idx = np.flatnonzero(active[:, t])
        x = inputs[idx, t]
        # With no active row nothing runs: the state stays and R reads 0.
        updates = _forward_step(cell, weights, cfg, x, idx, t, state,
                                steps[:, t], capped[:, t], value[:, t, -1],
                                grad) if idx.size else []
        records.append((idx, x if grad else None, updates))
        hidden[:, t] = state[:, :n_hidden]
    value[..., :-1] = readout(hidden.reshape(-1, n_hidden), w_out,
                              b_out).reshape(n_batch, n_steps_total, -1)
    halts = np.zeros((n_batch, n_steps_total, steps.max(initial=0)))
    for t, (idx, _, updates) in enumerate(records):
        for n, u in enumerate(updates):
            halts[idx[u[0]], t, n] = u[1]
    if not grad:
        return BatchRunResult(None, None, None, None, value[..., :-1],
                              value[..., -1], steps, active, capped, halts, None)
    halt_grads = np.zeros_like(halts)

    def backward(g):
        g_y = g[..., :-1].reshape(-1, w_out.shape[1])
        g_r = g[..., -1]
        g_hidden = (g_y @ w_out.T).reshape(hidden.shape)
        d_w_out = hidden.reshape(-1, n_hidden).T @ g_y
        d_b_out = g_y.sum(axis=0, keepdims=True)
        # The rows each input step writes, in replay order.
        replayed = [(idx, u) for idx, _, u in reversed(records) if u]
        update_rows = [sum(v[0].size for v in u) for _, u in replayed]
        w_in, w_rec = weights[:2]
        stacks = (_RowStack([idx.size + 1 for idx, _ in replayed],
                            (w_rec.shape[1], w_in.shape[0])),
                  _RowStack(update_rows, (w_rec.shape[1], n_hidden), ones=True),
                  _RowStack(update_rows, (1, n_hidden), ones=True))
        g_state = np.zeros_like(state)
        for t in range(n_steps_total - 1, -1, -1):
            g_state[:, :n_hidden] += g_hidden[:, t]
            idx, x, updates = records[t]
            if updates:
                carry, halt_grads[idx, t, :len(updates)] = _backward_step(
                    updates, x, g_state[idx], g_r[idx, t], weights, stacks)
                if t:    # the zero initial state has no adjoint
                    g_state[idx] = carry
        (d_in,), (d_rec, d_b), (d_halt, d_b_halt) = (s.flush() for s in stacks)
        return d_in, d_rec, d_b, d_w_out, d_b_out, d_halt, d_b_halt

    node = ad.record(value, tuple(pv.values()), backward)

    def ponder_backward(g):
        d = np.zeros(value.shape)
        d[..., -1] = g
        return (d,)

    ponder_var = ad.record(np.array(float(steps.sum()) + value[..., -1].sum()),
                           (node,), ponder_backward)
    return BatchRunResult(tape, pv, node, ponder_var, value[..., :-1],
                          value[..., -1], steps, active, capped, halts,
                          halt_grads)
