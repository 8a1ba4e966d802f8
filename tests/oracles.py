"""Independent oracles shared by the test suite.

Three kinds of reference live here; the tests compare the package against
them, never the other way round.

- Written without the package's tape or op implementations: finite
  differences, straight-line numpy reimplementations of the cells and the
  pondering loop, and brute-force task evaluators.
- Composed-op cell steps and losses, built from the tape's generic ops,
  whose backward rules are pinned one by one against finite differences;
  they are the reference for the fused nodes' hand-written backward.
- The per-sequence pondering reference: `halting_distribution`,
  `act_step` and `run_sequence` ponder one sequence at a time on the
  package's tape, each update one node around the package's cell
  (`cell_step`), the step flag (`augment_input`), the halting unit,
  readout, weights, remainder and ponder built from tape ops on
  `CellState` nodes. The batched loop in `actlab.engine` is pinned to
  them at 1e-12 (values and gradients).

`sequence_error_rate` scores a whole batch with the package's
`example_errors`; the tests of that scoring use it.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from actlab import autodiff as ad
from actlab.act import ActConfig
from actlab.autodiff import ContractError, NumericError, Tape, Var
from actlab.cells import CELLS, CellParams
from actlab.losses import PROB_CLAMP, example_errors
from actlab.tasks import TRUTH_TABLES


def rel_err(analytic, numeric) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def fd_grad(f, x, step=1e-6):
    """Central finite differences of scalar f at x, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        fp = f(x)
        flat[i] = keep - step
        fm = f(x)
        flat[i] = keep
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


# ---------------------------------------------------------------------------
# Straight-line cell and pondering reimplementations (duplicate-code oracles)
# ---------------------------------------------------------------------------

def sigmoid_plain(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def rnn_step_plain(p, h, x):
    """h: (hidden,), x: augmented input (input_size+1,)."""
    return np.tanh(x @ p.w_in + h @ p.w_rec + p.b_rec[0])


def lstm_step_plain(p, state, x):
    h, c = state
    n = p.hidden_size
    z = x @ p.w_in + h @ p.w_rec + p.b_rec[0]
    i = sigmoid_plain(z[:n])
    f = sigmoid_plain(z[n:2 * n])
    g = np.tanh(z[2 * n:3 * n])
    o = sigmoid_plain(z[3 * n:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


@dataclass
class CellState:
    """The state as tape nodes: hidden activations, plus memory cells for
    LSTM. Rows index batch members; the readout reads `hidden`."""

    hidden: Var
    cell: Optional[Var] = None

    def parts(self) -> tuple[Var, ...]:
        return (self.hidden,) if self.cell is None else (self.hidden, self.cell)


def _preactivation_composed(pv, state, x):
    """z = x W_in + h W_rec + b on the tape, with x recorded as a data leaf."""
    x_var = state.hidden.tape.leaf(x)
    return ad.add(ad.add(ad.matmul(x_var, pv["w_in"]),
                         ad.matmul(state.hidden, pv["w_rec"])), pv["b_rec"])


def rnn_step_composed(pv, state, x):
    """The RNN update as a chain of tape ops: matmul, add, tanh."""
    z = _preactivation_composed(pv, state, x)
    return CellState(ad.tanh(z))


def lstm_step_composed(pv, state, x):
    """The LSTM update as a chain of tape ops, with exp-form sigmoid gates."""
    n = state.hidden.data.shape[1]
    z = _preactivation_composed(pv, state, x)
    i = ad.sigmoid(ad.narrow(z, 1, 0, n))
    f = ad.sigmoid(ad.narrow(z, 1, n, n))
    g = ad.tanh(ad.narrow(z, 1, 2 * n, n))
    o = ad.sigmoid(ad.narrow(z, 1, 3 * n, n))
    c = ad.add(ad.mul(f, state.cell), ad.mul(i, g))
    return CellState(ad.mul(o, ad.tanh(c)), c)


COMPOSED_STEPS = {"rnn": rnn_step_composed, "lstm": lstm_step_composed}


def binary_cross_entropy(p, targets, mask):
    """-sum over rows of mask * [b log p + (1-b) log(1-p)], from tape ops."""
    t = np.asarray(targets, dtype=np.float64).reshape(p.data.shape)
    log_p = ad.log(ad.clamp_min(p, PROB_CLAMP))
    log_q = ad.log(ad.clamp_min(ad.add_scalar(ad.scale(p, -1.0), 1.0), PROB_CLAMP))
    term = ad.add(ad.const_mul(log_p, t), ad.const_mul(log_q, 1.0 - t))
    term = ad.const_mul(term, np.asarray(mask, dtype=np.float64).reshape(t.shape))
    return ad.scale(ad.reduce_sum(term), -1.0)


def joint_softmax_cross_entropy(dists, targets, mask):
    """-sum over rows and groups g of mask * log dists[g][target], from tape ops."""
    targets = np.asarray(targets, dtype=np.int64).reshape(len(dists[0].data), -1)
    rows = np.arange(targets.shape[0])
    loss = None
    for g, dist in enumerate(dists):
        onehot = np.zeros(dist.data.shape)
        onehot[rows, targets[:, g]] = mask
        term = ad.const_mul(ad.log(ad.clamp_min(dist, PROB_CLAMP)), onehot)
        loss = term if loss is None else ad.add(loss, term)
    return ad.scale(ad.reduce_sum(loss), -1.0)


def composed_task_loss(spec, outputs, targets, mask):
    """The summed task loss of per-step readouts as a chain of tape ops."""
    loss = None
    for t, y in enumerate(outputs):
        if spec.head == "bce":
            term = binary_cross_entropy(ad.sigmoid(y), targets[:, t], mask[:, t])
        else:
            dists = [ad.softmax(ad.narrow(y, 1, g * spec.classes, spec.classes), 1)
                     for g in range(spec.groups)]
            term = joint_softmax_cross_entropy(dists, targets[:, t], mask[:, t])
        loss = term if loss is None else ad.add(loss, term)
    return loss


def sequence_error_rate(predictions, targets, mask) -> float:
    """Fraction of examples with any mistake anywhere in the masked output."""
    errs = example_errors(predictions, targets, mask)
    return float(errs.mean()) if errs.size else 0.0


def apply_gate(gate_id: int, p: int, q: int) -> int:
    """Evaluate gate `gate_id` (1-based) of `TRUTH_TABLES` on (P, Q)."""
    if not 1 <= gate_id <= len(TRUTH_TABLES):
        raise ContractError(
            f"gate id must be in 1..{len(TRUTH_TABLES)}, got {gate_id}")
    return list(TRUTH_TABLES.values())[gate_id - 1][3 - 2 * int(p) - int(q)]


def readout_plain(p, hidden):
    return hidden @ p.w_out + p.b_out[0]


def halting_plain(p, hidden):
    return float(sigmoid_plain(hidden @ p.w_halt + p.b_halt[0])[0])


def _step_state(p, state, x):
    if p.kind == "rnn":
        return (rnn_step_plain(p, state[0], x),)
    return lstm_step_plain(p, state, x)


def act_step_plain(p, state, x, epsilon, max_steps):
    """One pondered input step, no tape. Returns (state, y, n, remainder)."""
    x1 = np.concatenate([x, [1.0]])
    x0 = np.concatenate([x, [0.0]])
    states, ys, hs = [], [], []
    total = 0.0
    n = 0
    while True:
        state = _step_state(p, state, x1 if n == 0 else x0)
        n += 1
        states.append(state)
        ys.append(readout_plain(p, state[0]))
        hs.append(halting_plain(p, state[0]))
        total += hs[-1]
        if total >= 1.0 - epsilon or n == max_steps:
            break
    remainder = 1.0
    for hv in hs[:-1]:
        remainder -= hv
    probs = hs[:-1] + [remainder]
    mean_state = tuple(
        sum(pr * st[j] for pr, st in zip(probs, states))
        for j in range(len(states[0])))
    mean_y = sum(pr * y for pr, y in zip(probs, ys))
    return mean_state, mean_y, n, remainder


def run_sequence_plain(p, xs, epsilon, max_steps):
    """Whole-sequence oracle: returns (outputs (T, out), ponder cost)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    n_state = 2 if p.kind == "lstm" else 1
    state = tuple(np.zeros(p.hidden_size) for _ in range(n_state))
    outputs = []
    ponder = 0.0
    for t in range(xs.shape[0]):
        state, y, n, rem = act_step_plain(p, state, xs[t], epsilon, max_steps)
        outputs.append(y)
        ponder += n + rem
    return np.array(outputs), ponder


def plain_rnn_outputs(p, xs):
    """Non-pondering baseline: one update per input, flag set on every step."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    n_state = 2 if p.kind == "lstm" else 1
    state = tuple(np.zeros(p.hidden_size) for _ in range(n_state))
    outputs = []
    for t in range(xs.shape[0]):
        state = _step_state(p, state, np.concatenate([xs[t], [1.0]]))
        outputs.append(readout_plain(p, state[0]))
    return np.array(outputs)


# ---------------------------------------------------------------------------
# The package's cells as tape nodes
# ---------------------------------------------------------------------------

def augment_input(x, n: int) -> np.ndarray:
    """Append the step flag: 1 on the first update for an input, else 0."""
    if n < 1:
        raise ContractError(f"intermediate step index must be >= 1, got {n}")
    arr = np.asarray(x, dtype=np.float64)
    flag = np.full(arr.shape[:-1] + (1,), 1.0 if n == 1 else 0.0)
    return np.concatenate([arr, flag], axis=-1)


def record_params(tape: Tape, params: CellParams) -> dict[str, Var]:
    """The parameters as leaves on `tape`, in `CellParams.items()` order."""
    return {name: tape.leaf(arr) for name, arr in params.items()}


def zero_state(cell, tape: Tape, hidden_size: int, batch: int = 1) -> CellState:
    """All-zero state leaves: h, plus c for the LSTM."""
    return CellState(*(tape.leaf(np.zeros((batch, hidden_size)))
                       for _ in range(cell.state_multiple)))


def cell_step(cell, pv: dict[str, Var], state: CellState, xd) -> CellState:
    """One update of the package's cell as one tape node.

    Its parents are the state parts, W_in, W_rec and b; x is a constant
    array. The node's value is the cell's [h' | c']; for the LSTM two
    `narrow` nodes hand h' and c' to the state. Its backward is the cell's
    own plus dz W_recᵀ, with dense weight adjoints.
    """
    xd = np.asarray(xd, dtype=np.float64)
    s = np.concatenate([p.data for p in state.parts()], axis=1)
    n = s.shape[1] // cell.state_multiple
    hd = s[:, :n]
    w_rec = pv["w_rec"].data
    z = hd @ w_rec
    z += xd @ pv["w_in"].data + pv["b_rec"].data
    out, back = cell.step(z, s)

    def node_back(g):
        dz, ds = np.empty((g.shape[0], w_rec.shape[1])), np.empty_like(g)
        back(g, dz, ds)
        ds[:, :n] = dz @ w_rec.T
        return (*np.split(ds, cell.state_multiple, axis=1), xd.T @ dz, hd.T @ dz,
                dz.sum(axis=0, keepdims=True))

    node = ad.record(out, (*state.parts(), pv["w_in"], pv["w_rec"], pv["b_rec"]),
                     node_back)
    if cell.state_multiple == 1:
        return CellState(node)
    return CellState(ad.narrow(node, 1, 0, n), ad.narrow(node, 1, n, n))


def readout(pv: dict[str, Var], state: CellState) -> Var:
    """y = s_visible W_out + b_out from tape ops."""
    return ad.add(ad.matmul(state.hidden, pv["w_out"]), pv["b_out"])


def halting_node(pv: dict[str, Var], state: CellState) -> Var:
    """h = sigmoid(s_visible W_halt + b_halt) from tape ops, one unit per row."""
    return ad.sigmoid(ad.add(ad.matmul(state.hidden, pv["w_halt"]), pv["b_halt"]))


# ---------------------------------------------------------------------------
# Per-sequence pondering reference on the package's tape
# ---------------------------------------------------------------------------
#
# The halting comparisons run on plain floats off the tape, so the update
# count N contributes no gradient. The probabilities, the remainder, and
# ponder = N + remainder are assembled on the tape from the recorded
# halting activations, which yields d(ponder)/d(h_n) = -1 for n < N and 0
# at n = N.


def halting_distribution(h: Iterable[float], epsilon: float,
                         max_steps: int) -> tuple[int, list[float], float]:
    """Consume halting activations in order and build the halting law.

    Stops at the first n whose running sum reaches 1 - epsilon, or at the
    cap. Returns (N, probabilities, remainder) where the first N-1
    probabilities are the activations themselves and the last is the
    remainder 1 - sum of those.
    """
    consumed: list[float] = []
    total = 0.0
    for hv in h:
        hv = float(hv)
        if not 0.0 <= hv <= 1.0:
            raise ContractError(
                f"halting activation {hv!r} outside [0, 1] at update {len(consumed) + 1}")
        consumed.append(hv)
        total += hv
        if total >= 1.0 - epsilon or len(consumed) == max_steps:
            break
    else:
        raise ContractError(
            f"activations exhausted after {len(consumed)} update(s) without halting")
    remainder = 1.0
    for hv in consumed[:-1]:
        remainder -= hv
    probs = consumed[:-1] + [remainder]
    return len(consumed), probs, remainder


@dataclass
class ActStepTrace:
    """Everything one input step produced while pondering."""

    state_vars: list[CellState]        # s^1 .. s^N as tape nodes
    output_vars: list[Var]             # y^1 .. y^N
    halt_vars: list[Var]               # h^1 .. h^N, each shaped (1, 1)
    halting_probs: list[float]         # p^1 .. p^N
    steps_taken: int                   # N
    remainder: float                   # R
    halted_by_cap: bool
    mean_state: CellState              # s_t
    mean_output: Var                   # y_t
    ponder_var: Optional[Var]          # N + R as a node; None when N == 1

    @property
    def ponder(self) -> float:
        return self.steps_taken + self.remainder


@dataclass
class ActSequenceResult:
    """One sequence run end to end, with the tape it was recorded on."""

    tape: Tape
    param_vars: dict[str, Var]
    final_states: list[CellState]      # s_1 .. s_T (mean-field states)
    outputs: list[Var]                 # y_1 .. y_T
    traces: list[ActStepTrace]
    ponder_var: Optional[Var]          # on-tape part of P(x); None if constant
    ponder_const: float                # constant part contributed by 1-update steps

    @property
    def ponder_cost(self) -> float:
        base = float(self.ponder_var.data) if self.ponder_var is not None else 0.0
        return base + self.ponder_const


def act_step(cell, prev_state: CellState, x_t, pv: dict[str, Var], cfg: ActConfig,
             tape: Tape, input_step: int = 0) -> tuple[ActStepTrace, CellState, Var]:
    """Ponder one input: run intermediate updates until the halting law stops.

    Returns the trace plus the mean-field state and output. All quantities
    that carry gradients are tape nodes; the halting decision itself reads
    plain floats.
    """
    states: list[CellState] = []
    outputs: list[Var] = []
    halt_vars: list[Var] = []
    x_first, x_rest = (np.atleast_2d(augment_input(x_t, n)) for n in (1, 2))

    def activations() -> Iterator[float]:
        state = prev_state
        n = 1
        while True:
            state = cell_step(cell, pv, state, x_first if n == 1 else x_rest)
            hv = halting_node(pv, state)
            h_val = float(hv.data[0, 0])
            if not math.isfinite(h_val):
                raise NumericError(
                    f"halting activation is not finite at input step {input_step}, "
                    f"update {n}")
            states.append(state)
            outputs.append(readout(pv, state))
            halt_vars.append(hv)
            yield h_val
            n += 1

    n_steps, probs, remainder = halting_distribution(
        activations(), cfg.epsilon, cfg.max_steps)
    halted_by_cap = sum(probs[:-1]) + float(halt_vars[-1].data[0, 0]) < 1.0 - cfg.epsilon

    if n_steps == 1:
        # Degenerate halt: p = (1.0), the update passes through untouched.
        trace = ActStepTrace(states, outputs, halt_vars, probs, 1, remainder,
                             halted_by_cap, states[0], outputs[0], None)
        return trace, states[0], outputs[0]

    hsum = halt_vars[0]
    for hv in halt_vars[1:-1]:
        hsum = ad.add(hsum, hv)
    r_var = ad.add_scalar(ad.scale(hsum, -1.0), 1.0)          # R = 1 - sum_{n<N} h^n
    weights = halt_vars[:-1] + [r_var]

    def mean(parts: Sequence[Var]) -> Var:
        acc = ad.rowscale(parts[0], weights[0])
        for part, w in zip(parts[1:], weights[1:]):
            acc = ad.add(acc, ad.rowscale(part, w))
        return acc

    mean_state = CellState(*(
        mean([s.parts()[j] for s in states]) for j in range(len(states[0].parts()))))
    mean_output = mean(outputs)
    ponder_var = ad.add_scalar(r_var, float(n_steps))         # rho = N + R

    trace = ActStepTrace(states, outputs, halt_vars, probs, n_steps, remainder,
                         halted_by_cap, mean_state, mean_output, ponder_var)
    return trace, mean_state, mean_output


def run_sequence(cell, params: CellParams, cfg: ActConfig, inputs,
                 tape: Optional[Tape] = None) -> ActSequenceResult:
    """Chain act_step over a whole input sequence from a zero initial state.

    `inputs` is (T, input_size); the internal state resets to zero at the
    start of every sequence. The ponder cost P = sum of per-step ponders is
    accumulated in input-step order, split into its on-tape part and the
    exact constant contributed by single-update steps.
    """
    xs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if xs.shape[0] < 1:
        raise ContractError("run_sequence requires at least one input step")
    if isinstance(cell, str):
        cell = CELLS[cell]
    tape = tape if tape is not None else Tape()
    pv = record_params(tape, params)
    state = zero_state(cell, tape, params.hidden_size)

    final_states, outputs, traces = [], [], []
    ponder_var: Optional[Var] = None
    ponder_const = 0.0
    for t in range(xs.shape[0]):
        trace, state, y = act_step(cell, state, xs[t], pv, cfg, tape, input_step=t)
        final_states.append(state)
        outputs.append(y)
        traces.append(trace)
        if trace.ponder_var is None:
            ponder_const += trace.ponder
        else:
            term = ad.reduce_sum(trace.ponder_var)
            ponder_var = term if ponder_var is None else ad.add(ponder_var, term)
    return ActSequenceResult(tape, pv, final_states, outputs, traces,
                             ponder_var, ponder_const)
