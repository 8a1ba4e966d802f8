"""Training loop, evaluation, and time-penalty sweeps.

A training run is a pure function of (config, seed): batch data, eval
data, and initialization all derive from independent child seeds of the
run seed, updates apply in a fixed parameter order, and metrics rows
serialize deterministically. Evaluation records no tape: it runs
consecutive eval batches as one forward-only block (`evaluate`).
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .act import ActConfig
from .autodiff import ContractError, DimensionError, NumericError
from .cells import CellParams, init_params
from .checkpoint import save_checkpoint
from .config import (ConfigError, TrainConfig, config_digest, config_text,
                     resolved_spec)
from .engine import run_batch
from .losses import (LossBreakdown, RunMetrics, binary_cross_entropy,
                     bits_per_character, example_errors,
                     joint_softmax_cross_entropy, per_position_nats,
                     ponder_by_difficulty, total_loss)
from .optim import OptimizerState, adam_update, clip_global_norm
from .tasks import (TaskBatch, TaskSpec, derive_seeds, gen_addition, gen_logic,
                    gen_parity, gen_sort, gen_text, write_table)

METRICS_SCHEMA = 2
SWEEP_SCHEMA = "sweep-summary-1"

# Float64 values an eval block's per-position arrays may hold: rows times
# the block's longest T times (input + hidden + output + 1), for the
# inputs, the mean hidden state, the readout and R. A forward-only pass
# keeps far less per position than a recording pass keeps for its
# backward, but it steps all of a block's rows at once, so its per-update
# arrays grow with the block. Peak RSS of a 40-batch eval, one recording
# pass per batch -> blocks of 2^19 (2^20) values, one BLAS thread:
# logic-ponder 63.7 -> 52.6 (59.8) MB, addition-wide 71.5 -> 68.1 (88.1)
# MB. The gated configs' four eval batches, at most 64 x 10 x 232 and
# 128 x 5 x 629 values, fit one block; an lstm-1500 text batch of 8 at a
# 50-byte window (805,200 values) runs alone.
EVAL_BLOCK_VALUES = 1 << 19


def load_corpus(config: TrainConfig) -> Optional[bytes]:
    if config.task != "text":
        return None
    if not config.corpus:
        raise ConfigError("task.corpus must point at a byte file for the text task")
    try:
        with open(config.corpus, "rb") as fh:
            corpus = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {config.corpus!r}: {exc}") from exc
    if len(corpus) < config.seq_len + 1:
        raise ConfigError(f"corpus {config.corpus!r} has {len(corpus)} bytes; "
                          f"task.seq_len {config.seq_len} needs at least "
                          f"{config.seq_len + 1}")
    return corpus


def make_batch(config: TrainConfig, rng, corpus: Optional[bytes] = None,
               batch_size: Optional[int] = None) -> TaskBatch:
    n = config.batch if batch_size is None else batch_size
    if config.task == "parity":
        return gen_parity(rng, n_bits=config.n_bits, batch=n)
    if config.task == "logic":
        return gen_logic(rng, batch=n, min_len=config.min_len,
                         max_len=config.max_len)
    if config.task == "addition":
        return gen_addition(rng, batch=n, min_len=config.min_len,
                            max_len=config.max_len,
                            min_digits=config.min_digits,
                            max_digits=config.max_digits)
    if config.task == "sort":
        return gen_sort(rng, batch=n, min_len=config.min_len,
                        max_len=config.max_len)
    return gen_text(corpus, rng, seq_len=config.seq_len, batch=n)


def batch_objective(spec: TaskSpec, params: CellParams, act_cfg: ActConfig,
                    batch: TaskBatch):
    """Forward a batch and assemble the penalized objective on its tape.

    Returns (loss node, run result, LossBreakdown, raw outputs). The loss
    node is the batch mean of per-sequence task loss plus tau times the
    batch mean ponder cost.
    """
    res = run_batch(params, act_cfg, batch.inputs, batch.lengths)
    n = batch.batch_size
    # Each masked-in position weighs 1/n, so the task node is the batch mean.
    task_loss = (binary_cross_entropy if spec.head == "bce"
                 else joint_softmax_cross_entropy)
    task_var = task_loss(spec, res.node, batch.targets, batch.target_mask / n)
    loss_var = ad.add(task_var, ad.scale(res.ponder_var, act_cfg.time_penalty / n))
    breakdown = total_loss(float(task_var.data), float(res.ponder_var.data) / n,
                           act_cfg.time_penalty)
    return loss_var, res, breakdown, res.outputs


@dataclass
class EvalDetails:
    """Flat per-step and per-example arrays for figure-style analysis."""

    ponders: np.ndarray             # active steps only
    steps: np.ndarray
    difficulties: np.ndarray
    step_errors: np.ndarray         # any wrong group at that step (masked only)
    example_errors: np.ndarray
    example_ponders: np.ndarray     # per-sequence P(x)
    example_difficulty: np.ndarray  # difficulty at the first step
    nats: np.ndarray                # masked positions only


def _eval_blocks(batches: list[TaskBatch],
                 position_values: int) -> list[list[TaskBatch]]:
    """Consecutive batches grouped into blocks whose per-position arrays,
    `position_values` float64 values per position, padded to the block's
    longest T, stay within EVAL_BLOCK_VALUES. A batch is never split; one
    over the budget is a block of its own."""
    blocks: list[list[TaskBatch]] = []
    rows = n_steps = 0
    for batch in batches:
        n, t = batch.inputs.shape[:2]
        if blocks and ((rows + n) * max(n_steps, t) * position_values
                       <= EVAL_BLOCK_VALUES):
            blocks[-1].append(batch)
            rows, n_steps = rows + n, max(n_steps, t)
        else:
            blocks.append([batch])
            rows, n_steps = n, t
    return blocks


def evaluate(spec: TaskSpec, params: CellParams, act_cfg: ActConfig,
             batches: list[TaskBatch]) -> tuple[RunMetrics, EvalDetails]:
    """Metrics and per-step details over `batches`.

    Consecutive batches run and are scored as one forward-only block
    (`_eval_blocks`): a `TaskBatch.blank` batch of all their rows, T the
    block's longest, that each batch is copied into. Padded positions are
    inactive and masked, and the block's rows and positions flatten in
    batch order, so every number is the one a per-batch pass gives, except
    that a padded row's `example_ponders` sum adds trailing zeros, which
    can move its last bit.
    """
    if not any(b.lengths.any() for b in batches):
        raise ContractError("evaluate needs at least one input step to score; got "
                            "an empty list or only length-0 sequences")
    widths = sorted({batch.inputs.shape[2] for batch in batches})
    if len(widths) > 1:
        raise DimensionError(f"eval batches have different input widths {widths}")
    columns = []                    # per block: EvalDetails' fields, then capped
    for block in _eval_blocks(batches, params.input_size + params.hidden_size
                              + params.output_size + 1):
        stacked = TaskBatch.blank(spec.name, sum(b.batch_size for b in block),
                                  np.concatenate([b.lengths for b in block]),
                                  width=widths[0])
        rows = np.cumsum([0] + [b.batch_size for b in block])
        for b, start, stop in zip(block, rows, rows[1:]):
            for key in ("inputs", "targets", "target_mask", "difficulty"):
                getattr(stacked, key)[start:stop, :b.inputs.shape[1]] = getattr(b, key)
        res = run_batch(params, act_cfg, stacked.inputs, stacked.lengths, grad=False)
        active, ponders, mask = res.active, res.ponders, stacked.target_mask
        predictions = spec.decode(res.outputs)
        wrong_step = np.any(predictions != stacked.targets, axis=2) & mask
        nats = per_position_nats(spec, res.outputs, stacked.targets, mask)
        # `difficulty[:, :1].sum` is the first step's, or 0 in a T = 0 block.
        columns.append((ponders[active], res.steps[active], stacked.difficulty[active],
                        wrong_step[active],
                        example_errors(predictions, stacked.targets, mask),
                        ponders.sum(axis=1), stacked.difficulty[:, :1].sum(axis=1),
                        nats[mask], res.halted_by_cap[active]))
    *arrays, capped = (np.concatenate(c) for c in zip(*columns))
    details = EvalDetails(*arrays)
    metrics = RunMetrics(
        sequence_error_rate=float(details.example_errors.mean()),
        bits_per_character=(bits_per_character(details.nats)
                            if spec.name == "text" else None),
        mean_ponder=float(details.ponders.mean()),
        std_ponder=float(details.ponders.std()),
        mean_steps=float(details.steps.mean()),
        capped_fraction=float(capped.mean()),
        difficulty_rows=ponder_by_difficulty(
            details.ponders, details.difficulties, details.steps,
            details.step_errors),
    )
    return metrics, details


@dataclass
class TrainResult:
    params: CellParams
    metrics: Optional[RunMetrics] = None
    rows: list[dict] = field(default_factory=list)
    checkpoint_path: Optional[str] = None


def _metrics_row(iteration: int, breakdown: LossBreakdown, grad_norm: float,
                 metrics: RunMetrics) -> dict:
    return {"schema": METRICS_SCHEMA, "iteration": iteration,
            "task_loss": breakdown.task_loss, "ponder_cost": breakdown.ponder_cost,
            "total_loss": breakdown.total, **metrics.to_dict(),
            "grad_norm": grad_norm, "capped_fraction": metrics.capped_fraction}


def train(config: TrainConfig, out_dir: Optional[str] = None,
          on_row: Optional[Callable[[dict], None]] = None) -> TrainResult:
    """Run the full loop: generate, forward, backward, update, log.

    With an out_dir the run directory receives the resolved config, a
    manifest, metrics.jsonl and checkpoints. A NumericError in any part of
    an iteration, the row's eval included, first writes ckpt-lastgood.bin:
    the state at the last metrics row, or the initial one before any row.
    """
    spec = resolved_spec(config)
    corpus = load_corpus(config)
    act_cfg = config.act_config()
    init_seed, data_seed, eval_seed = derive_seeds(config.seed, 3)
    params = init_params(config.cell, spec.input_size, config.hidden,
                         spec.output_size, seed=init_seed)
    opt = OptimizerState.for_params(params)
    data_rng = np.random.default_rng(data_seed)
    eval_rng = np.random.default_rng(eval_seed)

    metrics_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w") as fh:
            fh.write(config_text(config))
        from . import __version__
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump({"schema": 1, "seed": config.seed,
                       "code_version": __version__,
                       "config_digest": config_digest(config)}, fh)
            fh.write("\n")
        metrics_fh = open(os.path.join(out_dir, "metrics.jsonl"), "w")

    result = TrainResult(params)
    last_good = params.copy(), opt.copy()
    try:
        for iteration in range(1, config.iterations + 1):
            batch = make_batch(config, data_rng, corpus)
            writes_row = (iteration % config.eval_every == 0
                          or iteration == config.iterations)
            loss_var, res, breakdown, _ = batch_objective(spec, params, act_cfg, batch)
            if not np.isfinite(breakdown.total):
                raise NumericError(
                    f"loss became non-finite at iteration {iteration}")
            res.tape.backward(loss_var)
            grads = {name: res.tape.grad(var)
                     for name, var in res.param_vars.items()}
            # The norm is one pass over every gradient; take it only
            # when it clips or when this iteration writes a row.
            if config.clip_norm > 0.0 or writes_row:
                grad_norm = clip_global_norm(grads, config.clip_norm)
            adam_update(params, grads, opt, config.lr, config.beta1,
                        config.beta2, config.adam_eps)
            # The tape holds every update's arrays; free it before
            # the eval and the next forward, not after.
            del loss_var, res, grads

            if writes_row:
                metrics, _ = evaluate(spec, params, act_cfg,
                                      [make_batch(config, eval_rng, corpus)
                                       for _ in range(config.eval_batches)])
                result.metrics = metrics
                row = _metrics_row(iteration, breakdown, grad_norm, metrics)
                result.rows.append(row)
                if metrics_fh is not None:
                    metrics_fh.write(json.dumps(row) + "\n")
                    metrics_fh.flush()
                if on_row is not None:
                    on_row(row)
                last_good = params.copy(), opt.copy()
            if (out_dir is not None and config.checkpoint_every > 0
                    and iteration % config.checkpoint_every == 0):
                save_checkpoint(os.path.join(out_dir, f"ckpt-{iteration:07d}.bin"),
                                params, opt, config)
        if out_dir is not None:
            result.checkpoint_path = os.path.join(out_dir, "ckpt-final.bin")
            save_checkpoint(result.checkpoint_path, params, opt, config)
    except NumericError:
        if out_dir is not None:
            save_checkpoint(os.path.join(out_dir, "ckpt-lastgood.bin"),
                            *last_good, config)
        raise
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return result


def tau_grid() -> list[float]:
    """The logarithmic search grid i * 10^-j, i in 1..10, j in 1..4, j-major."""
    return [i * 10.0 ** -j for j in range(1, 5) for i in range(1, 11)]


@dataclass
class SweepRow:
    tau: float
    n_runs: int
    n_failed: int
    error_mean: float
    error_stderr: float
    ponder_mean: float
    ponder_stderr: float


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.array(values)
    mean = float(arr.mean()) if arr.size else float("nan")
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0


def _sweep_one(args) -> Optional[tuple[float, float]]:
    """Final (error, ponder) of one run; None if it failed."""
    config, out_dir = args
    try:
        metrics = train(config, out_dir=out_dir).metrics
        return metrics.sequence_error_rate, metrics.mean_ponder
    except Exception as exc:                   # counted, summary still emitted
        import logging
        logging.getLogger(__name__).warning(
            "sweep run tau=%g seed=%d failed: %s", config.tau, config.seed, exc,
            exc_info=True)
        return None


def sweep(config: TrainConfig, taus: list[float], replicas: int,
          out_dir: Optional[str] = None, workers: int = 1) -> list[SweepRow]:
    """Train `replicas` fresh seeds per time penalty and summarize finals.

    Each distinct tau runs once, at its first position, in `tau{tau:g}_rep{r}`.
    Every run's config is resolved before the first run starts, so a bad
    tau, or two that share a directory name, fails the sweep with `ConfigError`;
    so does `train.iterations` 0, where no run would have a final row.
    """
    if config.iterations < 1:
        raise ConfigError(f"sweep needs train.iterations >= 1, got {config.iterations}")
    load_corpus(config)            # an unreadable corpus fails the sweep up front
    taus = list(dict.fromkeys(taus))
    run_seeds = derive_seeds(config.seed, len(taus) * replicas)
    jobs = []
    for i, tau in enumerate(taus):
        for r in range(replicas):
            seed = int(run_seeds[i * replicas + r].generate_state(1)[0])
            run_config = replace(config, tau=tau, seed=seed).resolve()
            run_dir = (os.path.join(out_dir, f"tau{tau:g}_rep{r}")
                       if out_dir is not None else None)
            jobs.append((run_config, run_dir))
    names = {}
    for tau in taus:
        other = names.setdefault(f"{tau:g}", tau)
        if other != tau:
            raise ConfigError(f"time penalties {other!r} and {tau!r} share the "
                              f"run directory name tau{tau:g}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    # The pool starts all its workers at the first submit: never more than jobs.
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]

    rows = []
    for i, tau in enumerate(taus):             # jobs, and so results, are tau-major
        finals = [f for f in results[i * replicas:(i + 1) * replicas] if f is not None]
        rows.append(SweepRow(tau, len(finals), replicas - len(finals),
                             *_mean_stderr([f[0] for f in finals]),
                             *_mean_stderr([f[1] for f in finals])))
    if out_dir is not None:
        write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"))
    return rows


def write_sweep_csv(rows: list[SweepRow], out) -> None:
    """Summary table: one row per time penalty."""
    write_table(out, SWEEP_SCHEMA, [f.name for f in fields(SweepRow)],
                map(astuple, rows))
