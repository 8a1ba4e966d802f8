"""Named benchmark workloads, their reference outputs, check tolerances,
and the set-up that turns a workload and a seed into a ready-to-train state.

Each workload is one training configuration run as a closed loop by a
single caller. The configs spell out every task-dependent value, even
where it equals the package default, so a change to the defaults cannot
silently change a workload. This module imports only numpy and the
package, because the set-up probes time exactly its import and `prepare`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from actlab import trainer
from actlab.act import ActConfig
from actlab.cells import CellParams, init_params
from actlab.config import TrainConfig, parse_config_text
from actlab.tasks import TaskSpec

# The seed whose outputs are pinned below. Any other seed is still checked
# for finite losses, valid eval outputs, bit-identical repeats within the
# run, and exact checkpoint round trips.
DEFAULT_SEED = 1

# Tolerances for drift from the stored references, chosen so that a change
# that only reorders float64 arithmetic (fused cells, deferred GEMMs,
# in-place adjoints) still passes while a change of outcome does not:
# - final training loss, relative 1e-9: reordering moves each op by ~1e-16
#   relative; scaling every initial weight by 1 +- 1e-11 moves the final
#   loss of an episode by at most 2e-13 relative on all three workloads,
#   while a wrong gradient moves it by the Adam step, lr 1e-4 per weight;
# - eval sequence error, absolute 2 / evaluated sequences: at most two
#   borderline examples may flip their decision;
# - eval mean update count, absolute 0.01: a handful of halting decisions
#   sitting exactly at the 1 - epsilon threshold may flip.
LOSS_RTOL = 1e-9
EVAL_FLIPS = 2
STEPS_ATOL = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]   # config `key=value` lines
    halt_bias: float             # passed to cells.init_params
    episode_iterations: int      # training iterations per episode
    ckpt_cycles: int             # save/load pairs per episode
    reference: dict              # first-episode outputs at DEFAULT_SEED


WORKLOADS = {w.name: w for w in (
    # Data generation and per-node Python dispatch dominate; BLAS and
    # memory traffic are negligible.
    Workload(
        name="parity-small",
        overrides=("task.name=parity", "task.bits=64", "task.batch=128",
                   "cell.kind=rnn", "cell.hidden=128", "act.max_steps=100"),
        halt_bias=1.0,
        episode_iterations=50,
        ckpt_cycles=4,
        reference={"final_loss": 0.6994122674236563, "eval_seq_error": 0.51953125,
                   "mean_steps": 2.0},
    ),
    # The pondering loop at mean N near 9, where ACT's cost lives: halting
    # and mean-field assembly, frozen-row selects, ~3,300 tape nodes.
    Workload(
        name="logic-ponder",
        overrides=("task.name=logic", "task.batch=16", "task.min_len=1",
                   "task.max_len=10", "cell.kind=lstm", "cell.hidden=128",
                   "act.max_steps=100"),
        halt_bias=-2.0,
        episode_iterations=10,
        ckpt_cycles=2,
        reference={"final_loss": 4.124429489120223, "eval_seq_error": 0.921875,
                   "mean_steps": 9.028248587570621},
    ),
    # Large arrays: big GEMMs, full-size adjoint copies in backward, Adam
    # over 1M weights and 28 MB checkpoints.
    Workload(
        name="addition-wide",
        overrides=("task.name=addition", "task.batch=32", "task.min_len=1",
                   "task.max_len=5", "task.min_digits=1", "task.max_digits=5",
                   "cell.kind=lstm", "cell.hidden=512", "act.max_steps=20"),
        halt_bias=1.0,
        episode_iterations=10,
        ckpt_cycles=2,
        reference={"final_loss": 33.06120367872707, "eval_seq_error": 0.7890625,
                   "mean_steps": 2.0},
    ),
)}


def reference_failures(observed: dict, reference: dict,
                       eval_sequences: int) -> list[str]:
    """Names of the reference outputs that drift beyond their tolerance."""
    bad = []
    if abs(observed["final_loss"] - reference["final_loss"]) > \
            LOSS_RTOL * abs(reference["final_loss"]):
        bad.append("final_loss")
    if abs(observed["eval_seq_error"] - reference["eval_seq_error"]) > \
            EVAL_FLIPS / eval_sequences:
        bad.append("eval_seq_error")
    if abs(observed["mean_steps"] - reference["mean_steps"]) > STEPS_ATOL:
        bad.append("mean_steps")
    return bad


@dataclass
class Setup:
    """Everything training needs, built from the workload and the seed."""

    workload: Workload
    config: TrainConfig
    spec: TaskSpec
    act_cfg: ActConfig
    init: CellParams
    data_seed: np.random.SeedSequence
    eval_seed: np.random.SeedSequence


def prepare(workload: Workload, seed: int) -> Setup:
    """The set-up a run pays before training: config resolve and init."""
    config = parse_config_text("", list(workload.overrides))
    spec = trainer.resolved_spec(config)
    act_cfg = ActConfig(config.epsilon, config.max_steps, config.tau).validate()
    init_seed, data_seed, eval_seed = np.random.SeedSequence(seed).spawn(3)
    init = init_params(config.cell, spec.input_size, config.hidden,
                       spec.output_size, seed=init_seed,
                       halt_bias=workload.halt_bias)
    return Setup(workload, config, spec, act_cfg, init, data_seed, eval_seed)
