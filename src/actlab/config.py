"""Run configuration: flat dotted-key text files with strict parsing.

The format is one `section.key = value` per line, `#` comments, nothing
nested. Unknown keys are rejected with the nearest valid key named, since
a silently ignored typo in the time penalty or halting slack changes the
experiment. Unset task-dependent fields (minibatch size, cell kind and
width, step cap, sequence ranges) resolve to the reference defaults for
the chosen task.
"""

from __future__ import annotations

import difflib
import hashlib
import math
from dataclasses import dataclass, fields
from typing import Optional

from .act import ActConfig
from .autodiff import ContractError
from .tasks import (ADDITION_MAX_DIGITS, SORT_MAX_LEN, SORT_MIN_LEN, TASKS,
                    TaskSpec, task_spec)


class ConfigError(ValueError):
    """Bad configuration file, override, or value."""


@dataclass
class TrainConfig:
    task: str = "parity"
    batch: Optional[int] = None
    n_bits: int = 64
    min_len: Optional[int] = None
    max_len: Optional[int] = None
    min_digits: Optional[int] = None
    max_digits: Optional[int] = None
    seq_len: int = 500
    corpus: str = ""
    cell: Optional[str] = None
    hidden: Optional[int] = None
    epsilon: float = 0.01
    max_steps: Optional[int] = None
    tau: float = 1e-3
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    iterations: int = 10_000
    eval_every: int = 500
    eval_batches: int = 4
    checkpoint_every: int = 0
    clip_norm: float = 0.0
    seed: int = 0

    def act_config(self) -> ActConfig:
        """The validated pondering knobs: act.epsilon, act.max_steps, act.tau."""
        return ActConfig(self.epsilon, self.max_steps, self.tau).validate()

    def resolve(self) -> "TrainConfig":
        """Fill task-dependent defaults and validate ranges."""
        if self.task not in TASKS:
            raise ConfigError(
                f"unknown task {self.task!r}; expected one of {sorted(TASKS)}")
        spec = TASKS[self.task]
        lo, hi = spec.default_lens
        dlo, dhi = spec.default_digits
        out = TrainConfig(**{f.name: getattr(self, f.name) for f in fields(self)})
        out.batch = spec.default_batch if self.batch is None else self.batch
        out.cell = spec.default_cell if self.cell is None else self.cell
        out.hidden = spec.default_hidden if self.hidden is None else self.hidden
        out.max_steps = (spec.default_max_steps if self.max_steps is None
                         else self.max_steps)
        out.min_len = lo if self.min_len is None else self.min_len
        out.max_len = hi if self.max_len is None else self.max_len
        out.min_digits = dlo if self.min_digits is None else self.min_digits
        out.max_digits = dhi if self.max_digits is None else self.max_digits

        try:
            out.act_config()
        except ContractError as exc:
            raise ConfigError(
                f"invalid act.epsilon, act.max_steps or act.tau: {exc}") from None
        if out.cell not in ("rnn", "lstm"):
            raise ConfigError(f"cell.kind must be rnn or lstm, got {out.cell!r}")
        # Lengths >= 1 keep every batch at T >= 1 input steps.
        for key, value in (("task.batch", out.batch), ("cell.hidden", out.hidden),
                           ("task.bits", out.n_bits), ("task.seq_len", out.seq_len),
                           ("task.min_len", out.min_len), ("task.max_len", out.max_len),
                           ("train.eval_every", out.eval_every),
                           ("train.eval_batches", out.eval_batches)):
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        inf = math.inf
        for key, ok, want in (
                ("train.iterations", out.iterations >= 0, ">= 0"),
                ("train.checkpoint_every", out.checkpoint_every >= 0, ">= 0"),
                ("train.lr", 0.0 < out.lr < inf, "finite and > 0"),
                ("train.beta1", 0.0 <= out.beta1 < 1.0, "in [0, 1)"),
                ("train.beta2", 0.0 <= out.beta2 < 1.0, "in [0, 1)"),
                ("train.adam_eps", 0.0 < out.adam_eps < inf, "finite and > 0"),
                ("train.clip_norm", 0.0 <= out.clip_norm < inf, "finite and >= 0")):
            if not ok:
                value = getattr(out, KEYMAP[key])
                raise ConfigError(f"{key} must be {want}, got {value}")
        if out.min_len > out.max_len:
            raise ConfigError("task.min_len exceeds task.max_len")
        if out.min_digits > out.max_digits:
            raise ConfigError("task.min_digits exceeds task.max_digits")
        if out.task == "sort" and not (SORT_MIN_LEN <= out.min_len
                                       and out.max_len <= SORT_MAX_LEN):
            raise ConfigError(
                f"task.min_len and task.max_len must lie in [{SORT_MIN_LEN}, "
                f"{SORT_MAX_LEN}] for sort, got {out.min_len} and {out.max_len}")
        if out.task == "addition" and out.min_digits < 1:
            raise ConfigError(f"task.min_digits must be >= 1, got {out.min_digits}")
        if out.task == "addition" and out.max_digits > ADDITION_MAX_DIGITS:
            raise ConfigError(f"task.max_digits must be <= {ADDITION_MAX_DIGITS}, "
                              f"got {out.max_digits}")
        return out


# Dotted config key -> dataclass field.
KEYMAP = {
    "task.name": "task",
    "task.batch": "batch",
    "task.bits": "n_bits",
    "task.min_len": "min_len",
    "task.max_len": "max_len",
    "task.min_digits": "min_digits",
    "task.max_digits": "max_digits",
    "task.seq_len": "seq_len",
    "task.corpus": "corpus",
    "cell.kind": "cell",
    "cell.hidden": "hidden",
    "act.epsilon": "epsilon",
    "act.max_steps": "max_steps",
    "act.tau": "tau",
    "train.lr": "lr",
    "train.beta1": "beta1",
    "train.beta2": "beta2",
    "train.adam_eps": "adam_eps",
    "train.iterations": "iterations",
    "train.eval_every": "eval_every",
    "train.eval_batches": "eval_batches",
    "train.checkpoint_every": "checkpoint_every",
    "train.clip_norm": "clip_norm",
    "train.seed": "seed",
}

_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _convert(key: str, field: str, raw: str):
    raw = raw.strip()
    ftype = _FIELD_TYPES[field]
    try:
        if ftype in ("int", "Optional[int]"):
            return int(raw)
        if ftype == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {ftype}") from None


# Retired keys, still accepted at their one former value so older run
# directories and checkpoints (whose config text carries them) keep loading.
RETIRED_KEYS = {
    "train.workers": ("1", "the lock-free shared-parameter training mode "
                           "was removed"),
    "task.parity_nonzero": ("false", "parity counts only the +1 entries"),
}


def _assign(config: TrainConfig, key: str, raw: str) -> None:
    if key in RETIRED_KEYS:
        value, reason = RETIRED_KEYS[key]
        if raw.strip() != value:
            raise ConfigError(f"{key}: {reason}; only {value} is accepted")
        return
    if key not in KEYMAP:
        hint = difflib.get_close_matches(key, KEYMAP, n=1)
        suffix = f"; closest valid key is {hint[0]!r}" if hint else ""
        raise ConfigError(f"unknown config key {key!r}{suffix}")
    field = KEYMAP[key]
    setattr(config, field, _convert(key, field, raw))


def parse_config_text(text: str, overrides: Optional[list[str]] = None,
                      origin: str = "<config>") -> TrainConfig:
    """Parse config text, apply `key=value` overrides, resolve defaults."""
    config = TrainConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        _assign(config, key.strip(), raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        _assign(config, key.strip(), raw)
    return config.resolve()


def parse_config(path: Optional[str] = None,
                 overrides: Optional[list[str]] = None) -> TrainConfig:
    """Read a config file, apply `key=value` overrides, resolve defaults."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, overrides, origin=str(path))


def config_text(config: TrainConfig) -> str:
    """Canonical flat rendering of a resolved config (echoed into run dirs)."""
    lines = []
    for key in sorted(KEYMAP):
        lines.append(f"{key} = {getattr(config, KEYMAP[key])}")
    return "\n".join(lines) + "\n"


def resolved_spec(config: TrainConfig) -> TaskSpec:
    """The task spec a resolved config trains: parity's width is task.bits."""
    if config.task == "parity":
        return task_spec("parity", input_size=config.n_bits)
    return task_spec(config.task)


def config_digest(config: TrainConfig) -> str:
    return hashlib.sha256(config_text(config).encode("utf-8")).hexdigest()
