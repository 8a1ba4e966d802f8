"""Closed-loop training benchmark over the public actlab API.

One process runs one training step at a time, in the order the trainer's
single-worker loop uses (make_batch, batch_objective, Tape.backward and
Tape.grad, adam_update). Every `episode_iterations` steps it runs
`trainer.evaluate` on fresh eval batches and checkpoint save/load round
trips of the trained state, then restarts from the initial weights, so the
cost per step stays that of the configured initialization (mean update
count N). Training and eval batches come from two streams seeded by the
run seed and continue across episodes, so a run averages over many
batches rather than repeating a few.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from actlab import checkpoint, optim, trainer
from actlab.autodiff import NumericError
from actlab.optim import OptimizerState

from tracing import COMPUTED, Tracer
from workloads import (DEFAULT_SEED, WORKLOADS, Setup, prepare,
                       reference_failures)

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"
SETUP_PROBES = 9
WARMUP_ITERATIONS = 2
HOST_NOTE = ("this host allows no CPU pinning or frequency control; "
             "timings include host speed drift")
END_TO_END_UNITS = {
    "setup_s": "s", "train_seq_per_s": "seq/s", "iter_ms.p50": "ms",
    "iter_ms.p90": "ms", "eval_seq_per_s": "seq/s", "ckpt_save_ms": "ms",
    "ckpt_load_ms": "ms", "peak_rss_mb": "MB",
}


@dataclass
class Episode:
    """Outputs of one episode; None where the operation failed."""

    losses: list[Optional[float]]
    eval_seq_error: Optional[float] = None
    mean_steps: Optional[float] = None


@dataclass
class Loop:
    """Timings, operation counts and failures of the closed loop."""

    iter_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    eval_sequences: int = 0
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def _same_state(config, params, opt, loaded) -> bool:
    back_config, back_params, back_opt = loaded
    return (back_config == config and back_opt.step == opt.step
            and all(np.array_equal(a, b) for (_, a), (_, b)
                    in zip(back_params.items(), params.items()))
            and all(np.array_equal(back_opt.m[k], opt.m[k])
                    and np.array_equal(back_opt.v[k], opt.v[k])
                    for k in opt.m))


def run_episode(s: Setup, data_rng, eval_rng, loop: Loop, ckpt_path: str,
                iterations: int, ckpt_cycles: int, timed: bool = True,
                tracer: Optional[Tracer] = None) -> Episode:
    config = s.config
    params = s.init.copy()
    opt = OptimizerState.for_params(params)
    episode = Episode([])
    for i in range(iterations):
        loop.attempted += 1
        if tracer is not None:
            tracer.iteration = len(loop.iter_s)
        t0 = time.perf_counter()
        try:
            batch = trainer.make_batch(config, data_rng)
            loss_var, res, breakdown, _ = trainer.batch_objective(
                s.spec, params, s.act_cfg, batch)
            if not np.isfinite(breakdown.total):
                raise NumericError(f"non-finite loss {breakdown.total}")
            res.tape.backward(loss_var)
            grads = {name: res.tape.grad(var)
                     for name, var in res.param_vars.items()}
            if config.clip_norm > 0.0:
                optim.clip_global_norm(grads, config.clip_norm)
            optim.adam_update(params, grads, opt, config.lr, config.beta1,
                              config.beta2, config.adam_eps)
        except Exception as exc:           # counted, the loop goes on
            loop.fail(f"iteration {i}: {type(exc).__name__}: {exc}")
            episode.losses.append(None)
            return episode                 # weights are no longer trusted
        finally:
            if tracer is not None:
                tracer.iteration = -1
        elapsed = time.perf_counter() - t0
        if timed:
            loop.iter_s.append(elapsed)
        episode.losses.append(breakdown.total)

    eval_batches = [trainer.make_batch(config, eval_rng)
                    for _ in range(config.eval_batches)]
    sequences = sum(b.batch_size for b in eval_batches)
    loop.attempted += 1
    t0 = time.perf_counter()
    try:
        metrics, _ = trainer.evaluate(s.spec, params, s.act_cfg, eval_batches)
    except Exception as exc:
        loop.fail(f"evaluate: {type(exc).__name__}: {exc}")
    else:
        elapsed = time.perf_counter() - t0
        err, steps = metrics.sequence_error_rate, metrics.mean_steps
        if 0.0 <= err <= 1.0 and 1.0 <= steps <= config.max_steps:
            episode.eval_seq_error, episode.mean_steps = err, steps
            if timed:
                loop.eval_s.append(elapsed)
                loop.eval_sequences += sequences
        else:
            loop.fail(f"evaluate: invalid output error={err} steps={steps}")

    for _ in range(ckpt_cycles):
        loop.attempted += 2
        try:
            t0 = time.perf_counter()
            checkpoint.save_checkpoint(ckpt_path, params, opt, config)
            t1 = time.perf_counter()
            loaded = checkpoint.load_checkpoint(ckpt_path)
            t2 = time.perf_counter()
        except Exception as exc:
            loop.fail(f"checkpoint: {type(exc).__name__}: {exc}")
            loop.failed += 1               # the save/load pair counts twice
            continue
        if not _same_state(config, params, opt, loaded):
            loop.fail("checkpoint: loaded state differs from the saved one")
        elif timed:
            loop.save_s.append(t1 - t0)
            loop.load_s.append(t2 - t1)
    return episode


def measure(s: Setup, seconds: float, data_rng, eval_rng, loop: Loop,
            ckpt_path: str, episodes: list[Episode], between,
            tracer: Optional[Tracer] = None) -> None:
    """Run whole episodes until the next one would overrun `seconds`.

    `between()` runs after each episode, outside every timed operation.
    """
    w = s.workload
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        episodes.append(run_episode(s, data_rng, eval_rng, loop, ckpt_path,
                                    w.episode_iterations, w.ckpt_cycles,
                                    tracer=tracer))
        between()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def check_outputs(first: Episode, warm: Episode, reference: Optional[dict],
                  eval_sequences: int, loop: Loop) -> None:
    """Count outputs that fail the repeat check or drift from the reference.

    The warm-up replays the start of the first episode from the same
    seeds, so its losses must match bit for bit. Operations that already
    failed are not counted again.
    """
    for i, (a, b) in enumerate(zip(warm.losses, first.losses)):
        if a is not None and b is not None and a != b:
            loop.fail(f"iteration {i}: loss {b!r} differs from the warm-up's {a!r}")
    final = first.losses[-1] if first.losses else None
    if reference is None or final is None or first.eval_seq_error is None:
        return
    observed = {"final_loss": final, "eval_seq_error": first.eval_seq_error,
                "mean_steps": first.mean_steps}
    bad = reference_failures(observed, reference, eval_sequences)
    if "final_loss" in bad:
        loop.fail(f"final loss {final!r} drifts from reference "
                  f"{reference['final_loss']!r}")
    if "eval_seq_error" in bad or "mean_steps" in bad:
        loop.fail(f"evaluate: {observed} drifts from reference {reference}")


def setup_time(workload: str, seed: int) -> float:
    """Wall time from process start until training is ready.

    The probe is a fresh interpreter that imports the package, resolves
    the config and initializes the weights, then reports ready.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def _openblas_threads() -> Optional[int]:
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type and source of the mount holding `path`, from mountinfo."""
    target = os.path.realpath(path)
    best, found = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, right = line.split(" - ", 1)
                mount = left.split()[4]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    fstype, source = right.split()[:2]
                    best, found = mount, f"{fstype} {source} mounted at {mount}"
    except OSError:
        pass
    return found


def environment(ckpt_dir: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "checkpoint_filesystem": _filesystem(ckpt_dir),
        "note": HOST_NOTE,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        reference: Optional[dict] = None) -> dict:
    """One benchmark run; returns metrics, counts, checks and environment.

    At DEFAULT_SEED the outputs are checked against `reference`, which
    defaults to the workload's stored one. A traced run spends its first
    half traced and its second half untraced, for the tracing overhead.
    """
    workload = WORKLOADS[workload_name]
    if seed != DEFAULT_SEED:
        reference = None
    elif reference is None:
        reference = workload.reference

    # Set-up probes are spread over the run, between episodes, so they see
    # the same host speed as the timed operations.
    probes = [setup_time(workload_name, seed)]
    probe_every = seconds / SETUP_PROBES
    start = time.perf_counter()

    def between() -> None:
        if (len(probes) < SETUP_PROBES
                and time.perf_counter() - start >= probe_every * len(probes)):
            probes.append(setup_time(workload_name, seed))

    s = prepare(workload, seed)
    eval_sequences = s.config.eval_batches * s.config.batch
    WORK_DIR.mkdir(exist_ok=True)
    loop = Loop()
    episodes: list[Episode] = []
    tracer = Tracer(count_iterations=workload.episode_iterations) if trace else None
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        ckpt_path = os.path.join(tmp, "ckpt.bin")
        warm = run_episode(s, np.random.default_rng(s.data_seed),
                           np.random.default_rng(s.eval_seed), loop, ckpt_path,
                           WARMUP_ITERATIONS, 1, timed=False)
        data_rng = np.random.default_rng(s.data_seed)
        eval_rng = np.random.default_rng(s.eval_seed)
        if trace:
            tracer.install()
            try:
                measure(s, seconds / 2, data_rng, eval_rng, loop, ckpt_path,
                        episodes, between, tracer)
            finally:
                tracer.uninstall()
            n_traced = len(loop.iter_s)
            measure(s, seconds / 2, data_rng, eval_rng, loop, ckpt_path,
                    episodes, between)
        else:
            measure(s, seconds, data_rng, eval_rng, loop, ckpt_path, episodes,
                    between)
        while len(probes) < SETUP_PROBES:
            probes.append(setup_time(workload_name, seed))
        check_outputs(episodes[0], warm, reference, eval_sequences, loop)
        ckpt_bytes = os.path.getsize(ckpt_path)
        env = environment(Path(tmp))

    iter_ms = np.array(loop.iter_s) * 1e3
    per_layer = None
    if trace:
        per_layer = tracer.summarize()
        traced_p50 = float(np.percentile(iter_ms[:n_traced], 50))
        untraced_p50 = float(np.percentile(iter_ms[n_traced:], 50))
        per_layer.update({
            "checkpoint.bytes": ckpt_bytes,
            "trace.iter_ms.p50": traced_p50,
            "trace.untraced_iter_ms.p50": untraced_p50,
            "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
        })
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(RESULTS_DIR / f"spans-{workload_name}-seed{seed}.npz")

    end_to_end = {
        "setup_s": statistics.median(probes),
        "train_seq_per_s": s.config.batch * iter_ms.size / (iter_ms.sum() / 1e3),
        "iter_ms.p50": float(np.percentile(iter_ms, 50)),
        "iter_ms.p90": float(np.percentile(iter_ms, 90)),
        "eval_seq_per_s": loop.eval_sequences / sum(loop.eval_s),
        "ckpt_save_ms": statistics.median(loop.save_s) * 1e3,
        "ckpt_load_ms": statistics.median(loop.load_s) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    first = episodes[0]
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_frac": loop.failed / loop.attempted,
        "failures": loop.failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": {"setup_probes": len(probes), "episodes": len(episodes),
                    "iterations": int(iter_ms.size),
                    "evaluations": len(loop.eval_s),
                    "checkpoint_cycles": len(loop.save_s)},
        "computed": ({name: per_layer[name] for name in COMPUTED} if trace
                     else {"checkpoint.bytes": ckpt_bytes}),
        "observed": {"final_loss": first.losses[-1],
                     "eval_seq_error": first.eval_seq_error,
                     "mean_steps": first.mean_steps},
        "reference": reference,
        "environment": env,
    }
