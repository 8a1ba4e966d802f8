"""Dense float64 arrays on a tape for reverse-mode differentiation.

The tape is a Wengert list: every operation appends one node whose inputs
all have smaller ids, so a single reversed sweep propagates adjoints.
Graphs are rebuilt per forward pass; nothing here is thread-shared.

Code outside this module records nodes with `record` and a backward rule
of its own. The pondering loop (`engine`) records a whole batch as one
such node; it stacks its weight rows itself and hands the tape dense
adjoints, so every adjoint the sweep adds is a dense array.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes violate an operation's shape rules."""


class ContractError(ValueError):
    """A caller broke an operation's stated contract."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where finite values are required."""


def _as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64, order="C")


class Var:
    """Handle to one recorded node on a tape."""

    __slots__ = ("tape", "idx", "data")

    def __init__(self, tape: "Tape", idx: int, data: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.data = data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


class Tape:
    """Recorded computation: parent ids and backward rules; each `Var` keeps its value.

    Each `backward` replaces `gradients` with the adjoints of its own loss,
    so a tape can be swept from several losses in turn and a replay gives
    the same gradients again.
    """

    __slots__ = ("_parents", "_backs", "gradients")

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._backs: list[Callable | None] = []
        self.gradients: list[np.ndarray | None] = []    # set by `backward`

    def __len__(self) -> int:
        return len(self._parents)

    def leaf(self, value) -> Var:
        """Record an input value (parameter, data, constant)."""
        return self._record(_as_f64(value), (), None)

    def _record(self, value: np.ndarray, parents: tuple[int, ...],
                back: Callable | None) -> Var:
        idx = len(self._parents)
        self._parents.append(parents)
        self._backs.append(back)
        return Var(self, idx, value)

    def backward(self, loss: Var) -> None:
        """Set `gradients` to d(loss)/d(node) for every node up to `loss`."""
        if loss.tape is not self:
            raise ContractError("loss was recorded on a different tape")
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss node, got shape {loss.data.shape}")
        n = loss.idx + 1
        adj: list[np.ndarray | None] = [None] * n
        adj[loss.idx] = np.ones(loss.data.shape)
        for i in range(loss.idx, -1, -1):
            g = adj[i]
            back = self._backs[i]
            if g is None or back is None:
                continue
            for p, gp in zip(self._parents[i], back(g)):
                if gp is not None:
                    adj[p] = gp if adj[p] is None else adj[p] + gp
        self.gradients = adj

    def grad(self, var: Var) -> np.ndarray:
        """Adjoint of `var` from the last backward; zeros if no path reached it."""
        if var.tape is not self:
            raise ContractError("var was recorded on a different tape")
        g = self.gradients[var.idx] if var.idx < len(self.gradients) else None
        if g is None:
            return np.zeros_like(var.data)
        return g


def _same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


def record(value: np.ndarray, parents: Sequence[Var], back: Callable) -> Var:
    """Record a node computed outside this module, such as a fused cell update.

    `back(g)` returns one adjoint (or None) per parent, in `parents` order.
    """
    tape = _same_tape(*parents)
    return tape._record(value, tuple(p.idx for p in parents), back)


def matmul(a: Var, b: Var) -> Var:
    """Matrix product a @ b with adjoints for both operands."""
    tape = _same_tape(a, b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {ad.shape} x {bd.shape}")

    def back(g):
        return g @ bd.T, ad.T @ g

    return tape._record(ad @ bd, (a.idx, b.idx), back)


def add(a: Var, b: Var) -> Var:
    """Elementwise sum; also allows the bias form (m,n) + (1,n)."""
    tape = _same_tape(a, b)
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        back = lambda g: (g, g)
    elif ad.ndim == 2 and bd.shape == (1, ad.shape[1]):
        back = lambda g: (g, g.sum(axis=0, keepdims=True))
    else:
        raise DimensionError(f"add shapes incompatible: {ad.shape} + {bd.shape}")
    return tape._record(ad + bd, (a.idx, b.idx), back)


def sub(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"sub shapes incompatible: {a.data.shape} - {b.data.shape}")
    return tape._record(a.data - b.data, (a.idx, b.idx), lambda g: (g, -g))


def mul(a: Var, b: Var) -> Var:
    """Elementwise product of same-shape operands."""
    tape = _same_tape(a, b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise DimensionError(f"mul shapes incompatible: {ad.shape} * {bd.shape}")
    return tape._record(ad * bd, (a.idx, b.idx), lambda g: (g * bd, g * ad))


def rowscale(a: Var, w: Var) -> Var:
    """Scale each row of a (m,n) by the matching entry of w (m,1).

    This is the mean-field weighting primitive: w holds per-row probability
    mass, a holds the per-row state or output vectors.
    """
    tape = _same_tape(a, w)
    ad, wd = a.data, w.data
    if ad.ndim != 2 or wd.shape != (ad.shape[0], 1):
        raise DimensionError(f"rowscale shapes incompatible: {ad.shape} by {wd.shape}")

    def back(g):
        return g * wd, (g * ad).sum(axis=1, keepdims=True)

    return tape._record(ad * wd, (a.idx, w.idx), back)


def scale(a: Var, c: float) -> Var:
    c = float(c)
    return a.tape._record(a.data * c, (a.idx,), lambda g: (g * c,))


def add_scalar(a: Var, c: float) -> Var:
    c = float(c)
    return a.tape._record(a.data + c, (a.idx,), lambda g: (g,))


def const_mul(a: Var, c) -> Var:
    """Elementwise product with a constant array (no adjoint for c)."""
    cd = _as_f64(c)
    if cd.shape != a.data.shape:
        raise DimensionError(f"const_mul shapes incompatible: {a.data.shape} * {cd.shape}")
    return a.tape._record(a.data * cd, (a.idx,), lambda g: (g * cd,))


def concat(parts: Sequence[Var], axis: int) -> Var:
    tape = _same_tape(*parts)
    ndim = parts[0].data.ndim
    if not -ndim <= axis < ndim:
        raise DimensionError(f"concat axis {axis} out of range for ndim {ndim}")
    ax = axis % ndim
    ref = list(parts[0].data.shape)
    for p in parts[1:]:
        other = list(p.data.shape)
        if len(other) != ndim or other[:ax] + other[ax + 1:] != ref[:ax] + ref[ax + 1:]:
            raise DimensionError(
                f"concat extent mismatch: {parts[0].data.shape} vs {p.data.shape}")
    extents = [p.data.shape[ax] for p in parts]
    splits = np.cumsum(extents)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=ax))

    value = np.concatenate([p.data for p in parts], axis=ax)
    return tape._record(value, tuple(p.idx for p in parts), back)


def narrow(a: Var, axis: int, start: int, length: int) -> Var:
    """Contiguous slice of `length` extents along `axis`."""
    ad = a.data
    if not -ad.ndim <= axis < ad.ndim:
        raise DimensionError(f"narrow axis {axis} out of range for ndim {ad.ndim}")
    ax = axis % ad.ndim
    if start < 0 or length < 0 or start + length > ad.shape[ax]:
        raise DimensionError(
            f"narrow [{start}:{start + length}] out of range for extent {ad.shape[ax]}")
    sl = [slice(None)] * ad.ndim
    sl[ax] = slice(start, start + length)
    sl = tuple(sl)

    def back(g):
        full = np.zeros_like(ad)
        full[sl] = g
        return (full,)

    return a.tape._record(np.ascontiguousarray(ad[sl]), (a.idx,), back)


def reduce_sum(a: Var) -> Var:
    """Sum of all elements, as a scalar node."""
    ad = a.data

    def back(g):
        return (np.full(ad.shape, float(g)),)

    return a.tape._record(ad.sum(), (a.idx,), back)


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic as 0.5 + 0.5 tanh(x / 2): no overflow, and it
    saturates to exactly 0 or 1 for |x| large."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def sigmoid(a: Var) -> Var:
    out = logistic(a.data)

    def back(g):
        return (g * out * (1.0 - out),)

    return a.tape._record(out, (a.idx,), back)


def tanh(a: Var) -> Var:
    out = np.tanh(a.data)
    return a.tape._record(out, (a.idx,), lambda g: (g * (1.0 - out * out),))


def softmax(a: Var, axis: int = -1) -> Var:
    """Shift-invariant softmax (max subtraction) along one axis."""
    ad = a.data
    if not -ad.ndim <= axis < ad.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for ndim {ad.ndim}")
    shifted = ad - ad.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return a.tape._record(out, (a.idx,), back)


def log(a: Var) -> Var:
    ad = a.data
    return a.tape._record(np.log(ad), (a.idx,), lambda g: (g / ad,))


def clamp_min(a: Var, floor: float) -> Var:
    """max(a, floor); gradient passes where the input was not clamped."""
    ad = a.data
    keep = ad >= floor
    return a.tape._record(np.maximum(ad, floor), (a.idx,), lambda g: (g * keep,))


def stop_gradient(a: Var) -> Var:
    """Value passes through bit-exactly; no adjoint reaches the input."""
    return a.tape._record(a.data, (a.idx,), lambda g: (None,))


def where_mask(mask, a: Var, b: Var) -> Var:
    """Select a where the constant boolean mask is true, else b.

    Unlike mask arithmetic, this never multiplies the unselected branch,
    so NaNs in a frozen branch cannot leak through 0*NaN.
    """
    tape = _same_tape(a, b)
    # Snapshot: callers may reuse and mutate their mask buffers after recording.
    m = np.array(mask, dtype=bool, copy=True)
    if a.data.shape != b.data.shape or m.shape != a.data.shape:
        raise DimensionError(
            f"where_mask shapes incompatible: mask {m.shape}, {a.data.shape}, {b.data.shape}")

    def back(g):
        return np.where(m, g, 0.0), np.where(m, 0.0, g)

    return tape._record(np.where(m, a.data, b.data), (a.idx, b.idx), back)
