"""Adaptive computation time: the halting law and a per-sequence reference.

`halting_distribution` is the halting law every path uses. `act_step` and
`run_sequence` ponder one sequence on its own tape; they are the reference
the test suite pins the batched loop in `engine` to (values and
gradients), not a path the package's commands run.

Each input step runs a variable number of intermediate cell updates. A
sigmoidal halting unit is evaluated after every update; its activations
accumulate until they cross 1 - epsilon (or hit the hard cap), which fixes
the number of updates N. The activations then become a probability
distribution over the intermediate steps (the last step receives the
remainder mass), and the step's state and output are the mean-field
combination under that distribution.

Gradient treatment: the halting comparisons run on plain floats off the
tape, so the update count N contributes no gradient. The probabilities,
the remainder, and ponder = N + remainder are assembled on the tape from
the recorded halting activations, which yields d(ponder)/d(h_n) = -1 for
n < N and 0 at n = N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, NumericError, Tape, Var
from .cells import (CELLS, CellParams, CellState, ParamVars, halting_activation,
                    readout)


@dataclass
class ActConfig:
    """Pondering knobs: halting slack, hard step cap, and time penalty."""

    epsilon: float = 0.01
    max_steps: int = 100
    time_penalty: float = 0.0

    def validate(self) -> "ActConfig":
        if not 0.0 < self.epsilon < 0.5:
            raise ContractError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if self.max_steps < 1:
            raise ContractError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.time_penalty < 0.0:
            raise ContractError(f"time_penalty must be >= 0, got {self.time_penalty}")
        return self


def augment_input(x, n: int) -> np.ndarray:
    """Append the step flag: 1 on the first update for an input, else 0."""
    if n < 1:
        raise ContractError(f"intermediate step index must be >= 1, got {n}")
    arr = np.asarray(x, dtype=np.float64)
    flag = np.full(arr.shape[:-1] + (1,), 1.0 if n == 1 else 0.0)
    return np.concatenate([arr, flag], axis=-1)


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
    param_vars: ParamVars
    final_states: list[CellState]      # s_1 .. s_T (mean-field states)
    outputs: list[Var]                 # y_1 .. y_T
    traces: list[ActStepTrace]
    ponder_var: Optional[Var]          # on-tape part of P(x); None if constant
    ponder_const: float                # constant part contributed by 1-update steps

    @property
    def ponder_cost(self) -> float:
        base = float(self.ponder_var.data) if self.ponder_var is not None else 0.0
        return base + self.ponder_const


def act_step(cell, prev_state: CellState, x_t, pv: ParamVars, cfg: ActConfig,
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
            state = cell.step(pv, state, x_first if n == 1 else x_rest)
            hv = halting_activation(pv, state)
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

    mean_state = cell.from_parts(tuple(
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
    pv = ParamVars.record(tape, params)
    state = cell.zero_state(tape, params.hidden_size)

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
