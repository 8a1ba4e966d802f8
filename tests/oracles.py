"""Independent oracles shared by the test suite.

Everything here except the composed-op cell steps and losses is
deliberately written without the package's tape or op implementations:
finite differences, straight-line numpy reimplementations of the cells and
the pondering loop, and brute-force task evaluators. The composed-op steps
and losses build the cell updates and the task loss from the tape's generic
ops, whose backward rules are pinned one by one against finite differences;
they are the reference for the fused nodes' hand-written backward. The
tests compare the package against these, never the other way round.
"""

import numpy as np

from actlab import autodiff as ad
from actlab.cells import CellState
from actlab.losses import PROB_CLAMP


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


def _preactivation_composed(pv, state, x):
    """z = x W_in + h W_rec + b on the tape, with x recorded as a data leaf."""
    x_var = state.hidden.tape.leaf(x)
    return ad.add(ad.add(ad.matmul(x_var, pv.w_in),
                         ad.matmul(state.hidden, pv.w_rec)), pv.b_rec)


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
