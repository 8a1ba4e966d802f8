"""Recurrent state-transition cells: a simple tanh RNN and a standard LSTM.

Both cells step a fixed-size state with shared weights: the input is first
projected by the input weight matrix (whose extra last row carries the
step flag added by the pondering loop), combined with the recurrent
projection, and passed through the cell nonlinearity. The readout is an
affine map of the output-visible part of the state; for the LSTM that is
the hidden vector, so the memory-cell portion has no output weights at
all (equivalently, its readout columns are fixed to zero and never
updated).

Each cell update is one fused tape node with a hand-written backward,
not a chain of elementwise tape ops: the pondering loop runs it N times
per input, so per-node overhead is the hot path. The input x is a plain
array, not a tape node: it is data, so nothing needs its adjoint. The
forward computes the pre-activation z = x W_in + h W_rec + b once. The
backward turns the upstream adjoint into one dz of z's shape. The adjoint
of h is the GEMM dz W_recᵀ. W_in, W_rec and b get deferred `Outer`
packets (x, dz), (h, dz) and (1, dz): the tape stacks them over every
update and forms each weight adjoint as one GEMM, Xᵀ DZ or Hᵀ DZ, and
the bias adjoint as one reduction over the stacked DZ, splitting the
stack only when it reaches `autodiff.OUTER_FLUSH_ROWS` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, DimensionError, Tape, Var


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

    def validate(self) -> None:
        proj = self.hidden_size * CELLS[self.kind].proj_multiple
        expect = {
            "w_in": (self.input_size + 1, proj),
            "w_rec": (self.hidden_size, proj),
            "b_rec": (1, proj),
            "w_out": (self.hidden_size, self.output_size),
            "b_out": (1, self.output_size),
            "w_halt": (self.hidden_size, 1),
            "b_halt": (1, 1),
        }
        for name, arr in self.items():
            if arr.shape != expect[name]:
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected {expect[name]}")


@dataclass
class ParamVars:
    """CellParams recorded as leaves on one tape."""

    w_in: Var
    w_rec: Var
    b_rec: Var
    w_out: Var
    b_out: Var
    w_halt: Var
    b_halt: Var

    @classmethod
    def record(cls, tape: Tape, params: CellParams) -> "ParamVars":
        return cls(**{name: tape.leaf(arr) for name, arr in params.items()})

    def items(self) -> Iterator[tuple[str, Var]]:
        for name in CellParams._FIELDS:
            yield name, getattr(self, name)


@dataclass
class CellState:
    """Complete dynamic state: hidden activations, plus memory cells for LSTM.

    Rows index batch members; stepping is a pure function of
    (state, input, params).
    """

    hidden: Var
    cell: Optional[Var] = None

    def parts(self) -> tuple[Var, ...]:
        return (self.hidden,) if self.cell is None else (self.hidden, self.cell)


def _preactivation(xd: np.ndarray, hd: np.ndarray, w_in: np.ndarray,
                   w_rec: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z = x W_in + h W_rec + b, shared by both cells."""
    if xd.shape[1] != w_in.shape[0] or hd.shape[1] != w_rec.shape[0]:
        raise DimensionError(
            f"cell inputs {xd.shape} and {hd.shape} do not fit weights "
            f"{w_in.shape} and {w_rec.shape}")
    return xd @ w_in + hd @ w_rec + b


def _preactivation_adjoints(dz: np.ndarray, xd: np.ndarray, hd: np.ndarray,
                            w_rec: np.ndarray) -> tuple:
    """Adjoints of (h, W_in, W_rec, b) from the adjoint dz of z; the last
    three as deferred outer products."""
    ones = np.ones((dz.shape[0], 1))
    return (dz @ w_rec.T, ad.Outer(xd, dz), ad.Outer(hd, dz),
            ad.Outer(ones, dz))


class RnnCell:
    """s' = tanh(x W_in + s W_rec + b).

    One update is one tape node with parents (s, W_in, W_rec, b); its
    backward forms dz = ds' * (1 - s'^2) and maps it to all four adjoints.
    """

    kind = "rnn"
    proj_multiple = 1

    @staticmethod
    def zero_state(tape: Tape, hidden_size: int, batch: int = 1) -> CellState:
        return CellState(tape.leaf(np.zeros((batch, hidden_size))))

    @staticmethod
    def step(pv: ParamVars, state: CellState, xd: np.ndarray) -> CellState:
        hd = state.hidden.data
        w_in, w_rec = pv.w_in.data, pv.w_rec.data
        out = np.tanh(_preactivation(xd, hd, w_in, w_rec, pv.b_rec.data))

        def back(g):
            return _preactivation_adjoints(g * (1.0 - out * out), xd, hd, w_rec)

        return CellState(ad.record(
            out, (state.hidden, pv.w_in, pv.w_rec, pv.b_rec), back))

    @staticmethod
    def from_parts(parts: tuple[Var, ...]) -> CellState:
        return CellState(*parts)


class LstmCell:
    """Forget-gate LSTM without peepholes; gate order i, f, g, o.

    One update is one tape node with parents (h, c, W_in, W_rec, b)
    whose value is [h' | c'], plus two `narrow` nodes that hand h' and c'
    to the state. The i, f and o gates are taken as
    sigmoid(z) = (1 + tanh(z/2)) / 2, which cannot overflow and saturates
    to exactly 0 or 1, so no masks are needed. The backward assembles dz
    for all four gates in one array, using sigmoid' = (1 - tanh(z/2)^2)/4
    and tanh' = 1 - tanh(z)^2, and returns all five adjoints.
    """

    kind = "lstm"
    proj_multiple = 4

    @staticmethod
    def zero_state(tape: Tape, hidden_size: int, batch: int = 1) -> CellState:
        return CellState(tape.leaf(np.zeros((batch, hidden_size))),
                         tape.leaf(np.zeros((batch, hidden_size))))

    @staticmethod
    def step(pv: ParamVars, state: CellState, xd: np.ndarray) -> CellState:
        hd, cd = state.hidden.data, state.cell.data
        w_in, w_rec = pv.w_in.data, pv.w_rec.data
        n = hd.shape[1]
        # One tanh over all of z: tanh(z/2) on the i, f, o columns, tanh(z)
        # on g; then t/2 + 1/2 turns the former into sigmoids and leaves g.
        scale = np.full(4 * n, 0.5)
        scale[2 * n:3 * n] = 1.0
        t = np.tanh(_preactivation(xd, hd, w_in, w_rec, pv.b_rec.data) * scale)
        gates = t * scale + (1.0 - scale)
        i, f, g, o = (gates[:, k * n:(k + 1) * n] for k in range(4))
        hc = np.empty((hd.shape[0], 2 * n))
        np.add(f * cd, i * g, out=hc[:, n:])
        tc = np.tanh(hc[:, n:])
        np.multiply(o, tc, out=hc[:, :n])

        def back(grad):
            dh = grad[:, :n]
            dc = grad[:, n:] + dh * o * (1.0 - tc * tc)
            dz = np.empty_like(gates)
            np.multiply(dc, g, out=dz[:, :n])
            np.multiply(dc, cd, out=dz[:, n:2 * n])
            np.multiply(dc, i, out=dz[:, 2 * n:3 * n])
            np.multiply(dh, tc, out=dz[:, 3 * n:])
            dz *= (1.0 - t * t) * (scale * scale)
            dh_prev, dw_in, dw_rec, db = _preactivation_adjoints(dz, xd, hd, w_rec)
            return dh_prev, dc * f, dw_in, dw_rec, db

        node = ad.record(
            hc, (state.hidden, state.cell, pv.w_in, pv.w_rec, pv.b_rec), back)
        return CellState(ad.narrow(node, 1, 0, n), ad.narrow(node, 1, n, n))

    @staticmethod
    def from_parts(parts: tuple[Var, ...]) -> CellState:
        return CellState(*parts)


CELLS = {"rnn": RnnCell, "lstm": LstmCell}


def readout(pv: ParamVars, state: CellState) -> Var:
    """y = s_visible W_out + b_out."""
    return ad.add(ad.matmul(state.hidden, pv.w_out), pv.b_out)


def halting_activation(pv: ParamVars, state: CellState) -> Var:
    """h = sigmoid(s_visible W_halt + b_halt), one unit per batch row."""
    return ad.sigmoid(ad.add(ad.matmul(state.hidden, pv.w_halt), pv.b_halt))


def init_params(kind: str, input_size: int, hidden_size: int, output_size: int,
                seed, halt_bias: float = 1.0) -> CellParams:
    """Seeded initialization.

    Weights are uniform(-r, r) with r = 1/sqrt(fan_in), drawn in a fixed
    field order so the same seed always yields bit-identical parameters.
    Biases start at zero except the halting bias (positive, to keep early
    pondering short) and the LSTM forget-gate bias (+1).
    """
    if kind not in CELLS:
        raise ContractError(f"unknown cell kind {kind!r}; expected one of {sorted(CELLS)}")
    rng = np.random.default_rng(seed)
    proj = hidden_size * CELLS[kind].proj_multiple

    def draw(rows: int, cols: int) -> np.ndarray:
        r = 1.0 / np.sqrt(rows)
        return rng.uniform(-r, r, size=(rows, cols))

    w_in = draw(input_size + 1, proj)
    w_rec = draw(hidden_size, proj)
    w_out = draw(hidden_size, output_size)
    w_halt = draw(hidden_size, 1)
    b_rec = np.zeros((1, proj))
    if kind == "lstm":
        b_rec[0, hidden_size:2 * hidden_size] = 1.0
    params = CellParams(kind, input_size, hidden_size, output_size,
                        w_in, w_rec, b_rec,
                        w_out, np.zeros((1, output_size)),
                        w_halt, np.full((1, 1), float(halt_bias)))
    params.validate()
    return params
