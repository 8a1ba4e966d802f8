"""Spans around the package's public functions, patched from outside.

Each wrapper sits at the name its caller looks up: `trainer` imports
`run_batch`, the task generators and the loss functions by name, so they
are patched on `actlab.trainer`; `engine` imports `halting_activation`
and `readout` by name; cells are reached through `CELLS`, so the patch
goes on each cell class's `step`; tape ops are reached as `ad.<op>`, so
they are patched on `actlab.autodiff`.

Spans (name, start, end, parent, iteration) are kept in flat in-memory
arrays and written out at the end. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import actlab.autodiff as ad
from actlab import checkpoint, engine, optim, trainer
from actlab.cells import CELLS

# Public tape ops. Those used by every workload get their own forward
# self-time metric; the rest are summed into `autodiff.op_ms.other`, so no
# time metric reads a constant zero on some workload.
OPS = ("matmul", "add", "sub", "mul", "rowscale", "scale", "add_scalar",
       "const_mul", "concat", "narrow", "reduce_sum", "sigmoid", "tanh",
       "softmax", "log", "clamp_min", "stop_gradient", "where_mask")
TIMED_OPS = ("leaf", "add", "tanh", "sigmoid", "const_mul", "scale",
             "add_scalar", "rowscale", "reduce_sum", "clamp_min", "log")
COUNTED_OPS = ("leaf", "matmul", "add", "mul", "rowscale", "scale",
               "add_scalar", "const_mul", "narrow", "reduce_sum", "sigmoid",
               "tanh", "softmax", "log", "clamp_min", "where_mask")
GENERATORS = ("gen_parity", "gen_logic", "gen_addition", "gen_sort",
              "gen_text")
LOSS_FUNCTIONS = ("binary_cross_entropy", "joint_softmax_cross_entropy",
                  "total_loss", "example_errors", "ponder_by_difficulty",
                  "bits_per_character")

# Every per-layer metric a traced run reports, with its unit. Times are ms
# per training iteration, except `trainer.evaluate_ms` (per evaluate call).
PER_LAYER_UNITS = {
    "tasks.gen_ms": "ms", "trainer.objective_self_ms": "ms", "losses.ms": "ms",
    "engine.run_batch_ms": "ms", "engine.self_ms": "ms",
    "engine.mean_steps": "updates", "engine.capped_fraction": "ratio",
    "engine.cell_steps": "count", "engine.live_rows": "count",
    "engine.live_row_fraction": "ratio",
    "cells.step_ms": "ms", "cells.halting_ms": "ms", "cells.readout_ms": "ms",
    "autodiff.nodes": "count", "autodiff.tape_mb": "MB",
    "autodiff.matmul_gflop": "GFLOP", "autodiff.matmul_ms": "ms",
    **{f"autodiff.op_ms.{op}": "ms" for op in TIMED_OPS + ("other",)},
    **{f"autodiff.op_calls.{op}": "count" for op in COUNTED_OPS},
    "autodiff.backward_ms": "ms", "optim.adam_ms": "ms",
    "trainer.evaluate_ms": "ms", "checkpoint.bytes": "B",
    "trace.iter_ms.p50": "ms", "trace.untraced_iter_ms.p50": "ms",
    "trace.overhead_pct": "%",
}
# Work counts derived from array shapes and call counts, not measured.
COMPUTED = ("engine.cell_steps", "engine.live_rows", "engine.live_row_fraction",
            "autodiff.nodes", "autodiff.tape_mb", "autodiff.matmul_gflop",
            "checkpoint.bytes")


def _count_value(counts, args, result):
    counts["tape_bytes"] += result.data.nbytes


def _count_matmul(counts, args, result):
    (m, k), n = args[0].data.shape, args[1].data.shape[1]
    counts["matmul_flop"] += 2 * m * n * k
    counts["tape_bytes"] += result.data.nbytes


def _count_backward(counts, args, result):
    counts["nodes"] += len(args[0])


def _count_run_batch(counts, args, result):
    steps, active = result.steps, result.active
    cell_steps = int(steps.max(axis=0).sum())
    counts["cell_steps"] += cell_steps
    counts["row_slots"] += cell_steps * steps.shape[0]
    counts["live_rows"] += int(steps[active].sum())
    counts["active_steps"] += int(active.sum())
    counts["capped_steps"] += int(result.halted_by_cap[active].sum())


class Tracer:
    """In-memory span recorder; `iteration` tags spans and gates counts.

    Set `iteration` to the training iteration id while that iteration runs
    and back to -1 afterwards. Computed counts are taken over iterations
    0 .. count_iterations - 1 only, so they cover a fixed stretch of the
    data stream and repeat exactly at a seed.
    """

    def __init__(self, count_iterations: int):
        self.count_iterations = count_iterations
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.span_iteration = array("q")
        self.start = array("q")
        self.end = array("q")
        self.iteration = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.span_iteration.append(self.iteration)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if count is not None and 0 <= self.iteration < self.count_iterations:
                count(counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            patched = staticmethod(self.wrap(name, original.__func__, count))
        else:
            patched = self.wrap(name, original, count)
        setattr(owner, attr, patched)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        for gen in GENERATORS:
            self._patch(trainer, gen, "tasks.gen")
        self._patch(trainer, "batch_objective", "trainer.batch_objective")
        self._patch(trainer, "evaluate", "trainer.evaluate")
        self._patch(trainer, "run_batch", "engine.run_batch", _count_run_batch)
        for fn in LOSS_FUNCTIONS:
            self._patch(trainer, fn, "losses." + fn)
        self._patch(engine, "halting_activation", "cells.halting")
        self._patch(engine, "readout", "cells.readout")
        for cell in CELLS.values():
            self._patch(cell, "step", "cells.step")
        for op in OPS:
            self._patch(ad, op, "autodiff." + op,
                        _count_matmul if op == "matmul" else _count_value)
        self._patch(ad.Tape, "leaf", "autodiff.leaf", _count_value)
        self._patch(ad.Tape, "backward", "autodiff.backward", _count_backward)
        self._patch(ad.Tape, "grad", "autodiff.grad")
        self._patch(optim, "adam_update", "optim.adam")
        self._patch(optim, "clip_global_norm", "optim.clip")
        self._patch(checkpoint, "save_checkpoint", "checkpoint.save")
        self._patch(checkpoint, "load_checkpoint", "checkpoint.load")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "iteration": np.array(self.span_iteration, dtype=np.int64),
                "start_ns": np.array(self.start, dtype=np.int64),
                "end_ns": np.array(self.end, dtype=np.int64)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics, per training iteration unless named otherwise."""
        spans = self.arrays()
        name, parent, it = spans["name"], spans["parent"], spans["iteration"]
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        train = it >= 0
        n_iter = np.unique(it[train]).size
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(*names: str) -> np.ndarray:
            wanted = [ids[n] for n in names if n in ids]
            return np.isin(name, wanted)

        def per_iter_ms(values: np.ndarray, *names: str) -> float:
            return float(values[train & sel(*names)].sum()) / 1e6 / n_iter

        def per_iter(key: str) -> float:
            return self.counts[key] / self.count_iterations

        c = self.counts
        out = {
            "tasks.gen_ms": per_iter_ms(dur, "tasks.gen"),
            "trainer.objective_self_ms": per_iter_ms(own, "trainer.batch_objective"),
            "losses.ms": per_iter_ms(dur, *("losses." + f for f in LOSS_FUNCTIONS)),
            "engine.run_batch_ms": per_iter_ms(dur, "engine.run_batch"),
            "engine.self_ms": per_iter_ms(own, "engine.run_batch"),
            "engine.mean_steps": c["live_rows"] / c["active_steps"],
            "engine.capped_fraction": c["capped_steps"] / c["active_steps"],
            "engine.cell_steps": per_iter("cell_steps"),
            "engine.live_rows": per_iter("live_rows"),
            "engine.live_row_fraction": c["live_rows"] / c["row_slots"],
            "cells.step_ms": per_iter_ms(dur, "cells.step"),
            "cells.halting_ms": per_iter_ms(dur, "cells.halting"),
            "cells.readout_ms": per_iter_ms(dur, "cells.readout"),
            "autodiff.nodes": per_iter("nodes"),
            "autodiff.tape_mb": per_iter("tape_bytes") / 1e6,
            "autodiff.matmul_gflop": per_iter("matmul_flop") / 1e9,
            "autodiff.matmul_ms": per_iter_ms(dur, "autodiff.matmul"),
        }
        for op in TIMED_OPS:
            out[f"autodiff.op_ms.{op}"] = per_iter_ms(dur, "autodiff." + op)
        other = [op for op in OPS if op != "matmul" and op not in TIMED_OPS]
        out["autodiff.op_ms.other"] = per_iter_ms(
            dur, *("autodiff." + op for op in other))
        counted = (it >= 0) & (it < self.count_iterations)
        calls = Counter(name[counted].tolist())
        for op in COUNTED_OPS:
            out[f"autodiff.op_calls.{op}"] = (
                calls[ids.get("autodiff." + op, -1)] / self.count_iterations)
        out["autodiff.backward_ms"] = per_iter_ms(dur, "autodiff.backward")
        out["optim.adam_ms"] = per_iter_ms(dur, "optim.adam")
        evals = dur[sel("trainer.evaluate")]
        out["trainer.evaluate_ms"] = float(np.median(evals)) / 1e6
        return out
