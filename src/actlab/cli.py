"""Command-line entry points.

Commands: train, eval, sweep, gradcheck, gen, trace. Logs go to stderr;
stdout stays silent unless --stdout asks for data on it. Exit codes:
0 ok, 2 configuration error, 3 numeric failure, 4 i/o error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import astuple, fields
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .autodiff import ContractError, DimensionError, NumericError
from .cells import init_params
from .checkpoint import CheckpointError, load_checkpoint
from .config import RANGES, ConfigError, TrainConfig, parse_config, parse_config_text
from .engine import run_batch
from .gradcheck import MAX_HIDDEN, halting_gradient_check
from .losses import PROB_CLAMP, DifficultyRow, per_position_nats
from .tasks import (derive_seeds, render_input, synth_corpus, write_batch_csv,
                    write_table)
from .trainer import (evaluate, load_corpus, make_batch, resolved_spec, sweep,
                      tau_grid, train, write_sweep_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

EVAL_SCHEMA = 2
TRACE_COMMAND_SCHEMA = "model-trace-1"

log = logging.getLogger("actlab")


def _in_range(parse, require: str, text: str):
    """`parse(text)` within the config range `require`; argparse exits 2 on
    the ArgumentTypeError."""
    value = parse(text)
    if not RANGES[require](value):
        raise argparse.ArgumentTypeError(f"must be {require}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    return _in_range(int, ">= 1", text)


def non_negative_int(text: str) -> int:
    """argparse type for seeds: an integer >= 0."""
    return _in_range(int, ">= 0", text)


def positive_float(text: str) -> float:
    """argparse type for tolerances: a finite number > 0."""
    return _in_range(float, "finite and > 0", text)


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (flat key = value lines)")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    sub.add_argument("--seed", type=int, help="override train.seed")


def _load_config(args) -> TrainConfig:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"train.seed={args.seed}")
    return parse_config(args.config, overrides)


def _cmd_train(args) -> int:
    config = _load_config(args)

    def on_row(row: dict) -> None:
        log.info("iteration %(iteration)d: loss=%(total_loss).4g error="
                 "%(sequence_error_rate).4f mean_ponder=%(mean_ponder).3f capped="
                 "%(capped_fraction).3f grad_norm=%(grad_norm).3g", row)
        if args.stdout:
            print(json.dumps(row), flush=True)

    log.info("training task=%s cell=%s hidden=%d tau=%g iterations=%d seed=%d",
             config.task, config.cell, config.hidden, config.tau,
             config.iterations, config.seed)
    train(config, out_dir=args.out_dir, on_row=on_row)
    return EXIT_OK


def _cmd_eval(args) -> int:
    config, params, _ = load_checkpoint(args.checkpoint)
    spec = resolved_spec(config)
    corpus = load_corpus(config)
    act_cfg = config.act_config()
    rng = np.random.default_rng(args.seed)
    batches = [make_batch(config, rng, corpus) for _ in range(args.batches)]
    metrics, details = evaluate(spec, params, act_cfg, batches)
    row = {"schema": EVAL_SCHEMA, "checkpoint": args.checkpoint,
           "batches": args.batches, **metrics.to_dict(),
           "capped_fraction": metrics.capped_fraction}
    line = json.dumps(row)
    if args.stdout:
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    if args.difficulty_csv:
        write_table(args.difficulty_csv, "difficulty-table-1",
                    [f.name for f in fields(DifficultyRow)],
                    map(astuple, metrics.difficulty_rows))
    log.info("eval: %s", line)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    if args.taus:
        try:
            taus = [float(v) for v in args.taus.split(",") if v]
        except ValueError:
            taus = []
        if not taus:
            raise ConfigError(f"--taus must be comma-separated numbers, "
                              f"got {args.taus!r}")
    else:
        taus = tau_grid()
    rows = sweep(config, taus, args.replicas, out_dir=args.out_dir,
                 workers=args.workers)
    if args.stdout:
        write_sweep_csv(rows, sys.stdout)
    log.info("sweep finished: %d tau values x %d replicas", len(rows),
             args.replicas)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    config = _load_config(args)
    if config.hidden > MAX_HIDDEN:
        raise ConfigError(f"gradcheck needs cell.hidden <= {MAX_HIDDEN}, "
                          f"got {config.hidden}")
    spec = resolved_spec(config)
    corpus = load_corpus(config)
    act_cfg = config.act_config()
    batch_seed, init_seed, coord_seed = derive_seeds(config.seed, 3)
    batch = make_batch(config, batch_seed, corpus, batch_size=args.examples)
    params = init_params(config.cell, spec.input_size, config.hidden,
                         spec.output_size, seed=init_seed)
    report = halting_gradient_check(params, act_cfg, batch, spec,
                                    max_coords_per_param=args.max_coords,
                                    seed=coord_seed)
    payload = {"max_rel_err": report.max_rel_err,
               "coords_checked": report.coords_checked,
               "coords_skipped": len(report.coords_skipped),
               "ponder_closed_form_ok": report.ponder_closed_form_ok,
               "halt_gradient_zero_ok": report.halt_gradient_zero_ok,
               "per_param": report.per_param}
    if args.stdout:
        print(json.dumps(payload))
    log.info("gradcheck: max rel err %.3e over %d coords (%d skipped)",
             report.max_rel_err, report.coords_checked,
             len(report.coords_skipped))
    ok = report.passed and report.max_rel_err < args.tolerance
    if not ok:
        log.error("gradcheck FAILED (tolerance %g)", args.tolerance)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.task == "corpus":
        blob = synth_corpus(args.seed, size=args.size)
        with open(args.out, "wb") as fh:
            fh.write(blob)
        log.info("wrote %d corpus bytes to %s", len(blob), args.out)
        return EXIT_OK
    overrides = [f"task.name={args.task}", f"task.corpus={args.corpus or ''}"]
    if args.seq_len is not None:
        overrides.append(f"task.seq_len={args.seq_len}")
    config = parse_config_text("", overrides)
    batch = make_batch(config, args.seed, load_corpus(config),
                       batch_size=args.count)
    write_batch_csv(batch, args.out)
    log.info("wrote %d examples to %s", batch.batch_size, args.out)
    return EXIT_OK


def _entropy_bits(dist: np.ndarray) -> float:
    p = np.clip(dist, PROB_CLAMP, 1.0)
    return float(-(dist * np.log2(p)).sum())


def _cmd_trace(args) -> int:
    if not (args.out or args.stdout):
        raise ConfigError("trace requires --out or --stdout")
    config, params, _ = load_checkpoint(args.checkpoint)
    spec = resolved_spec(config)
    act_cfg = config.act_config()
    if args.corpus and config.task != "text":
        raise ConfigError(
            f"checkpoint was trained on {config.task!r}, not a byte corpus")
    if config.task == "text" and args.corpus:
        config.corpus = args.corpus
    corpus = load_corpus(config)
    rng = np.random.default_rng(args.seed)
    batch = make_batch(config, rng, corpus, batch_size=args.count)
    res = run_batch(params, act_cfg, batch.inputs, batch.lengths, grad=False)
    nats = per_position_nats(spec, res.outputs, batch.targets, batch.target_mask)
    dists = spec.probs(res.outputs)

    # The engine's own halting decisions: N, R and p = h^1 .. h^(N-1), R.
    rows = []
    for e in range(batch.batch_size):
        for t in range(int(batch.lengths[e])):
            n_steps, remainder = int(res.steps[e, t]), float(res.remainders[e, t])
            probs = res.halts[e, t, :n_steps - 1].tolist() + [remainder]
            rows.append([e, t, render_input(config.task, batch.inputs[e, t]),
                         n_steps, n_steps + remainder, remainder,
                         float(nats[e, t]) if batch.target_mask[e, t] else "",
                         _entropy_bits(dists[e, t].ravel()),
                         ";".join(repr(p) for p in probs)])

    write_table(args.out or sys.stdout, TRACE_COMMAND_SCHEMA,
                ["sequence", "t", "input", "steps", "ponder", "remainder",
                 "loss_nats", "entropy_bits", "probs"], rows)
    log.info("traced %d sequences (%d rows)", batch.batch_size, len(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actlab",
        description="Adaptive-computation-time recurrent network laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a model from a config")
    _add_config_args(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stdout", action="store_true",
                   help="stream metrics rows to stdout")
    p.set_defaults(fn=_cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on fresh batches")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--batches", type=positive_int, default=4)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", help="write the metrics record here")
    p.add_argument("--difficulty-csv", help="write the per-difficulty table here")
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = subs.add_parser("sweep", help="train replicas over a time-penalty grid")
    _add_config_args(p)
    p.add_argument("--taus", help="comma-separated list; omit for the full grid")
    p.add_argument("--replicas", type=positive_int, default=1)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = subs.add_parser("gradcheck",
                        help="verify model gradients against finite differences")
    _add_config_args(p)
    p.add_argument("--examples", type=positive_int, default=2)
    p.add_argument("--max-coords", type=positive_int, default=None,
                   help="subsample coordinates per parameter")
    p.add_argument("--tolerance", type=positive_float, default=1e-4)
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(fn=_cmd_gradcheck)

    p = subs.add_parser("gen", help="dump golden task batches or a corpus")
    p.add_argument("--task", required=True,
                   help="parity|logic|addition|sort|text|corpus")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--count", type=positive_int, default=16, help="examples per batch")
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", help="byte file for --task text")
    p.add_argument("--seq-len", type=int, help="text window; default task.seq_len")
    p.add_argument("--size", type=positive_int, default=1 << 20,
                   help="bytes for --task corpus")
    p.set_defaults(fn=_cmd_gen)

    p = subs.add_parser("trace",
                        help="per-step ponder/loss/entropy rows for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--count", type=positive_int, default=1, help="sequences to trace")
    p.add_argument("--corpus", help="byte file override for text checkpoints")
    p.add_argument("--out")
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (NumericError, ContractError, DimensionError) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except CheckpointError as exc:
        log.error("checkpoint error: %s", exc)
        return EXIT_IO
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
