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
update of a step sees the same input, so xb = x W_in + b is formed once
per step. The loop forms each update's z = s W_rec + xb, plus the flag
row of W_in on a first update, and in the backward dz W_recᵀ: the cell is
its nonlinearity alone. Every batch starts from the zero state, so the
first update of input step 0 forms no s W_rec, and the backward no
adjoint of the initial state.

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
only the halting decision. The halting and cell backward follow. Every
other weight's adjoint comes from one of three affine maps, as in the
forward, each a stack of rows multiplied out as one GEMM. The input stack
holds [x | 1] once per active row per input step, times the row's dz
summed over its updates: W_in but its flag row, then b_rec. The recurrent
stack holds [h_in | flag] per update, times its dz, with flag 1 on an
input step's first update: W_rec, then W_in's flag row. The halting stack
holds [h_out | 1] per update, times its halting adjoint: w_halt, then
b_halt. The replay writes each step's rows in place into each stack's
two buffers, sized to bound its largest chunk (all three stacks' buffers
are one allocation), and a stack is multiplied out whenever it holds
twice as many rows as its adjoint has (its a width), at most
OUTER_FLUSH_ROWS, which bounds the rows it keeps alive. Adding a chunk's
product into the running total then costs at most 1/(4 a width) of the
chunk's GEMM, so longer chunks would buy memory and no speed.

A recording pass keeps every update until the backward: its block rows,
h, w and halting mask, its input and new state, and the cell's backward,
so a batch's memory grows with the sum of N. The LSTM's backward holds
only tanh(scale z) and the new state (6H values per row, beside a view of
the input state) and rebuilds its gates and tanh(c) from them; the RNN's
holds its new state alone.

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

# The most rows a stack holds before it is multiplied out into its affine
# map's adjoint: the cap for wide cells, whose stacks otherwise flush at
# twice their a width (see _RowStack). The replay writes each update's
# rows into the stack's buffers, sized to bound its largest chunk, and a
# flush multiplies views of them, with no stacked copy: at lstm-1500 a dz
# row is 48 KB, so a full W_rec stack is about 48 MB. Measured on one
# text forward and backward (lstm-1500, batch 8, 500-byte window, 8,000
# rows, one BLAS thread): peak RSS 1,694 MB at 1024 rows; with a stacked
# copy per flush, 1,748 MB at 1024, 1,894 MB at 2048 and 2,708 MB
# unflushed.
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
    """The adjoint of one affine map: the sum of a.T @ b over the rows
    written, formed as one GEMM per chunk of `limit` rows or more (the
    last chunk may be shorter), limit being min(OUTER_FLUSH_ROWS, 2 a
    width).

    The a width is the row count of the adjoint. Once a chunk has twice
    that many rows, adding its product into the running total costs at
    most 1/(4 a width) of the chunk's GEMM, so a longer chunk buys memory
    and no speed. A limit of one a width held less still, but on
    logic-ponder it left glibc's dynamic trim threshold (twice the largest
    mmapped block freed) below what the benchmark's checkpoint cycle
    needs: the heap was handed back after training and faulted in again
    by the loads (median load 1.75 to 2.48 ms in 10 alternating 55 s
    pairs).

    A backward writes each input step's rows in place into the stack's
    two buffers (see `_row_stacks`). The last column of a is set to ones,
    the constant input of a bias; a stack whose last column is a flag
    writes it with each row. A flush multiplies views of the rows written
    since the last one.
    """

    def __init__(self, b: np.ndarray, a: np.ndarray, limit: int):
        self.b, self.a, self.limit = b, a, limit
        a[:, -1] = 1.0
        self.rows, self.total = 0, None

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next n rows of b and of a, to be filled in."""
        if self.rows >= self.limit:
            self.flush()
        start = self.rows
        self.rows += n
        return self.b[start:self.rows], self.a[start:self.rows]

    def flush(self) -> np.ndarray:
        """Multiply out the rows written; returns the adjoint so far."""
        if self.rows or self.total is None:
            product = self.a[:self.rows].T @ self.b[:self.rows]
            if self.total is not None:
                product += self.total
            self.rows, self.total = 0, product
        return self.total


def _row_stacks(*specs) -> tuple[_RowStack, ...]:
    """One stack per (step_rows, b_width, a_width), `step_rows` being the
    rows each step will write.

    A take flushes a chunk of `limit` rows or more first, so no chunk
    holds more than `limit` - 1 rows and then one step's, and each
    stack's two buffers are that long. A backward's stacks live exactly
    as long as each other, so their buffers are views of one allocation.
    Six separate, smaller buffers kept glibc's dynamic trim threshold so
    low that the heap was handed back to the system and faulted in again
    on every iteration: on logic-ponder (seed 1, in `train`'s order) a
    mean of 671 minor faults per iteration against 78 with one block.
    """
    shapes = []
    for step_rows, b_width, a_width in specs:
        limit = min(OUTER_FLUSH_ROWS, 2 * a_width)
        rows = min(sum(step_rows), limit - 1 + max(step_rows, default=0))
        shapes.append((rows, b_width, a_width, limit))
    block = np.empty(sum(rows * (b + a) for rows, b, a, _ in shapes))
    stacks, end = [], 0
    for rows, b_width, a_width, limit in shapes:
        start, mid = end, end + rows * b_width
        end = mid + rows * a_width
        stacks.append(_RowStack(block[start:mid].reshape(rows, b_width),
                                block[mid:end].reshape(rows, a_width), limit))
    return tuple(stacks)


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
    acc = np.zeros_like(s)
    updates = []
    n = 0
    while True:
        n += 1
        # z = s W_rec + xb (+ the flag row); no product from the zero state.
        if n == 1 and t == 0:
            z = xb + w_in[-1]
        else:
            z = s[:, :n_hidden] @ w_rec
            z += xb + w_in[-1] if n == 1 else xb
        s_new, back = cell.step(z, s)
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


def _backward_step(updates, t: int, x: np.ndarray, g_act: np.ndarray,
                   d_r: np.ndarray, weights, stacks: tuple[_RowStack, ...]):
    """Replay input step t's updates in reverse; see the module docstring.

    `g_act` and `d_r` are the adjoints of the mean state and R of the
    step's active rows, whose inputs are `x`; `d_r` is updated in place.
    Writes the step's rows into `stacks`, the input, recurrent and
    halting stacks. Returns the adjoint of the state the step started
    from on those rows (None at input step 0, which starts from the zero
    state), and their halting adjoints, (rows, updates), 0 past each
    row's halt.
    """
    _, w_rec, _, w_halt, _ = weights
    n_hidden = w_rec.shape[0]
    n_active = x.shape[0]
    offsets = np.cumsum([0] + [u[0].size for u in updates]).tolist()
    in_stack, rec_stack, halt_stack = stacks
    dz_all, h_in = rec_stack.take(offsets[-1])
    dpre_all, h_out = halt_stack.take(offsets[-1])
    # The input stack's rows: each active row's [x | 1], with its dz
    # summed over its updates.
    dz_sum, x_rows = in_stack.take(n_active)
    dz_sum[...] = 0.0
    x_rows[:, :-1] = x
    dh_all = np.zeros((n_active, len(updates)))
    # Adjoint of the block's state.
    carry = np.zeros((updates[-1][0].size, g_act.shape[1]))
    for k in range(len(updates) - 1, -1, -1):
        pos, h, s, s_new, back, w, halt = updates[k]
        rows = slice(offsets[k], offsets[k + 1])
        g_blk = g_act[pos]
        dw = np.einsum("ij,ij->i", g_blk, s_new)
        if halt is not None:
            d_r[pos[halt]] += dw[halt]
        dh = dw - d_r[pos]
        if halt is not None:
            dh[halt] = 0.0
        dh_all[pos, k] = dh
        dpre = dh * h * (1.0 - h)
        ds = g_blk * w[:, None]
        ds += carry
        ds[:, :n_hidden] += np.multiply.outer(dpre, w_halt[:, 0])
        dz = dz_all[rows]
        carry = np.empty_like(ds)
        back(ds, dz, carry)
        if k or t:              # the zero initial state has no adjoint
            np.matmul(dz, w_rec.T, out=carry[:, :n_hidden])
        dpre_all[rows, 0] = dpre
        h_in[rows, :-1] = s[:, :n_hidden]
        h_in[rows, -1] = k == 0             # the first-update flag
        h_out[rows, :-1] = s_new[:, :n_hidden]
        # Sum dz over each row's updates; a full block skips the indexed add.
        if pos.size == n_active:
            dz_sum += dz
        else:
            dz_sum[pos] += dz
        before = updates[k - 1][6] if k else None
        if before is not None:
            # Rows that halted at the update before stop here: exact zeros.
            full = np.zeros((before.size, carry.shape[1]))
            full[~before] = carry
            carry = full
    return (carry if t else None), dh_all


def run_batch(params: CellParams, cfg: ActConfig, inputs: np.ndarray,
              lengths: np.ndarray, *, grad: bool = True) -> BatchRunResult:
    """Run the pondering loop of the `params.kind` cell over a
    (batch, T, input_size) input block.

    `lengths` (required) holds each example's length, in [0, T]; steps
    at or past it leave the state as is and add nothing to ponder. With
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
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (n_batch,):
        raise ContractError(f"lengths must be ({n_batch},), got {lengths.shape}")
    if np.any((lengths < 0) | (lengths > n_steps_total)):
        raise ContractError(f"lengths must be in [0, {n_steps_total}], got {lengths}")

    arrays = {name: np.ascontiguousarray(a, dtype=np.float64)
              for name, a in params.items()}
    tape = Tape() if grad else None
    pv = {name: tape.leaf(a) for name, a in arrays.items()} if grad else None
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
                              b_out).reshape(n_batch, n_steps_total, params.output_size)
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
        update_rows = [sum(v[0].size for v in u) for _, _, u in records]
        w_in, w_rec = weights[:2]
        stacks = _row_stacks(
            ([idx.size for idx, _, _ in records], w_rec.shape[1], w_in.shape[0]),
            (update_rows, w_rec.shape[1], n_hidden + 1),
            (update_rows, 1, n_hidden + 1))
        g_state = np.zeros_like(state)
        for t in range(n_steps_total - 1, -1, -1):
            g_state[:, :n_hidden] += g_hidden[:, t]
            idx, x, updates = records[t]
            if updates:
                carry, halt_grads[idx, t, :len(updates)] = _backward_step(
                    updates, t, x, g_state[idx], g_r[idx, t], weights, stacks)
                if t:
                    g_state[idx] = carry
        # [x | 1] gives W_in but its flag row, then b_rec; [h_in | flag]
        # gives W_rec, then the flag row; [h_out | 1] w_halt, then b_halt.
        p_in, p_rec, p_halt = (s.flush() for s in stacks)
        return (np.vstack([p_in[:-1], p_rec[-1:]]), p_rec[:-1], p_in[-1:],
                d_w_out, d_b_out, p_halt[:-1], p_halt[-1:])

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
