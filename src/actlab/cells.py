"""Recurrent state-transition cells: a simple tanh RNN and a standard LSTM.

Both cells step a fixed-size state with shared weights: the input is first
projected by the input weight matrix (whose extra last row carries the
step flag set on an input's first update), combined with the recurrent
projection, and passed through the cell nonlinearity. The readout is an
affine map of the output-visible part of the state; for the LSTM that is
the hidden vector, so the memory-cell portion has no output weights at
all (equivalently, its readout columns are fixed to zero and never
updated).

A cell update is array code with a hand-written backward, not a tape
node: the pondering loop records the whole batch as one node (`engine`),
and the per-sequence test reference wraps single updates in nodes of its
own. A cell is its nonlinearity alone: `step(z, s)` takes the full
pre-activation z = x W_in + s W_rec + b, a fresh array it may overwrite,
and the old state s, which only the LSTM reads. It returns the new state
and `back(ds, dz, ds_prev)`, which writes the adjoint of z into dz and
the part of the old state's adjoint that bypasses W_rec into
ds_prev[:, H:]. The caller forms s W_rec, dz W_recᵀ and every weight
adjoint, and owns the zero initial state. `back` holds what it needs
until the caller's backward runs, so it keeps as little as it can: the
RNN its new state, the LSTM tanh(scale z) and its new state, from which
it rebuilds the gates and tanh(c). `readout` and
`halting_activation` are array code too. `param_shapes` is the one table
of parameter shapes: `init_params` builds from it, and a checkpoint load
checks every stored record against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError


@dataclass
class CellParams:
    """Weights and biases for one cell plus its readout and halting head."""

    kind: str                # "rnn" | "lstm"
    input_size: int          # task input width, before the step-flag element
    hidden_size: int
    output_size: int
    w_in: np.ndarray         # (input_size + 1, proj); last row is the flag row
    w_rec: np.ndarray        # (hidden, proj)
    b_rec: np.ndarray        # (1, proj)
    w_out: np.ndarray        # (hidden, output)
    b_out: np.ndarray        # (1, output)
    w_halt: np.ndarray       # (hidden, 1)
    b_halt: np.ndarray       # (1, 1)

    _FIELDS = ("w_in", "w_rec", "b_rec", "w_out", "b_out", "w_halt", "b_halt")

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        """(name, array) pairs in a fixed order; the update order everywhere."""
        for name in self._FIELDS:
            yield name, getattr(self, name)

    def copy(self) -> "CellParams":
        return CellParams(self.kind, self.input_size, self.hidden_size,
                          self.output_size,
                          *(arr.copy() for _, arr in self.items()))


class RnnCell:
    """s' = tanh(z); the state is h alone."""

    proj_multiple = 1
    state_multiple = 1

    @staticmethod
    def step(z: np.ndarray, s: np.ndarray):
        out = np.tanh(z, out=z)

        def back(ds, dz, ds_prev):
            np.multiply(ds, 1.0 - out * out, out=dz)

        return out, back


@lru_cache(maxsize=None)
def _gate_scales(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column scale, shift and squared scale of the LSTM gate map."""
    scale = np.full(4 * n, 0.5)
    scale[2 * n:3 * n] = 1.0
    return scale, 1.0 - scale, scale * scale


class LstmCell:
    """Forget-gate LSTM without peepholes; gate order i, f, g, o.

    The state is [h | c]. The i, f and o gates are taken as
    sigmoid(z) = (1 + tanh(z/2)) / 2, which cannot overflow and saturates
    to exactly 0 or 1, so no masks are needed. The backward assembles dz
    for all four gates in one array, using sigmoid' = (1 - tanh(z/2)^2)/4
    and tanh' = 1 - tanh(z)^2. The old c bypasses W_rec: its adjoint is dc f.

    `back` keeps only t = tanh(scale z) (in z's buffer), the new state and
    a view of the old c: 6H values per row. It rebuilds the gates from t
    and tanh(c) from the new state with the forward's own ops in the same
    order, so every adjoint is the one the forward's arrays would give.
    """

    proj_multiple = 4
    state_multiple = 2

    @staticmethod
    def _gates(t: np.ndarray, n: int):
        """i, f, g, o from t: t/2 + 1/2 on the sigmoid columns, t on g."""
        scale, shift, _ = _gate_scales(n)
        gates = t * scale
        gates += shift
        return (gates[:, k * n:(k + 1) * n] for k in range(4))

    @staticmethod
    def step(z: np.ndarray, s: np.ndarray):
        n = s.shape[1] // 2
        # One tanh over all of z: tanh(z/2) on the i, f, o columns, tanh(z)
        # on g; the gates then come from t alone.
        z *= _gate_scales(n)[0]
        t = np.tanh(z, out=z)
        i, f, g, o = LstmCell._gates(t, n)
        out = np.empty((z.shape[0], 2 * n))
        cd = s[:, n:]
        np.add(f * cd, i * g, out=out[:, n:])
        np.multiply(o, np.tanh(out[:, n:]), out=out[:, :n])

        def back(ds, dz, ds_prev):
            i, f, g, o = LstmCell._gates(t, n)
            tc = np.tanh(out[:, n:])
            dh = ds[:, :n]
            dc = 1.0 - tc * tc
            dc *= o
            dc *= dh
            dc += ds[:, n:]
            np.multiply(dc, g, out=dz[:, :n])
            np.multiply(dc, cd, out=dz[:, n:2 * n])
            np.multiply(dc, i, out=dz[:, 2 * n:3 * n])
            np.multiply(dh, tc, out=dz[:, 3 * n:])
            deriv = 1.0 - t * t
            deriv *= _gate_scales(n)[2]
            dz *= deriv
            np.multiply(dc, f, out=ds_prev[:, n:])

        return out, back


CELLS = {"rnn": RnnCell, "lstm": LstmCell}


def param_shapes(kind: str, input_size: int, hidden_size: int,
                 output_size: int) -> dict[str, tuple[int, int]]:
    """Every parameter's shape, in `CellParams.items()` order."""
    if kind not in CELLS:
        raise ContractError(f"unknown cell kind {kind!r}; expected one of {sorted(CELLS)}")
    proj = hidden_size * CELLS[kind].proj_multiple
    return {"w_in": (input_size + 1, proj), "w_rec": (hidden_size, proj),
            "b_rec": (1, proj), "w_out": (hidden_size, output_size),
            "b_out": (1, output_size), "w_halt": (hidden_size, 1),
            "b_halt": (1, 1)}


def readout(hidden: np.ndarray, w_out: np.ndarray, b_out: np.ndarray) -> np.ndarray:
    """y = s_visible W_out + b_out, one row per row of `hidden`."""
    return hidden @ w_out + b_out


def halting_activation(hidden: np.ndarray, w_halt: np.ndarray,
                       b_halt: np.ndarray) -> np.ndarray:
    """h = sigmoid(s_visible W_halt + b_halt), one value per row, as (rows,)."""
    return ad.logistic(hidden @ w_halt[:, 0] + b_halt[0, 0])


def init_params(kind: str, input_size: int, hidden_size: int, output_size: int,
                seed, halt_bias: float = 1.0) -> CellParams:
    """Seeded initialization.

    Weights are uniform(-r, r) with r = 1/sqrt(fan_in), drawn in
    `param_shapes` order so the same seed always yields bit-identical
    parameters. Biases start at zero except the halting bias (positive, to
    keep early pondering short) and the LSTM forget-gate bias (+1).
    """
    shapes = param_shapes(kind, input_size, hidden_size, output_size)
    rng = np.random.default_rng(seed)

    def draw(shape: tuple[int, int]) -> np.ndarray:
        r = 1.0 / np.sqrt(shape[0])
        return rng.uniform(-r, r, size=shape)

    arrays = {name: draw(shape) if name.startswith("w_") else np.zeros(shape)
              for name, shape in shapes.items()}
    if kind == "lstm":
        arrays["b_rec"][0, hidden_size:2 * hidden_size] = 1.0
    arrays["b_halt"][0, 0] = float(halt_bias)
    return CellParams(kind, input_size, hidden_size, output_size, **arrays)
