"""Run configuration: flat dotted-key text files with strict parsing.

The format is one `section.key = value` per line, `#` comments, nothing
nested. Unknown keys are rejected with the nearest valid key named, since
a silently ignored typo in the time penalty or halting slack changes the
experiment. Each key is declared once, by its `TrainConfig` field: dotted
key, default and required range in one `_key(...)`. Unset task-dependent
fields (None) resolve to the chosen task's `TaskSpec.defaults`.
"""

from __future__ import annotations

import difflib
import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .act import ActConfig
from .autodiff import ContractError
from .cells import CELLS
from .tasks import (ADDITION_MAX_DIGITS, ADDITION_SUM_DIGITS, SORT_MAX_LEN,
                    SORT_MIN_LEN, TASKS, TaskSpec, addition_sum_fits, task_spec)


class ConfigError(ValueError):
    """Bad configuration file, override, or value."""


# Range phrase -> predicate. `resolve` and the CLI's numeric flags reject a
# value out of range with "must be <phrase>, got <value>"; NaN fails any float.
RANGES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "finite and > 0": lambda v: 0.0 < v < math.inf,
    "finite and >= 0": lambda v: 0.0 <= v < math.inf,
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
}


def _key(key: str, default, require: Optional[str] = None):
    """A field's dotted config key, its default and the range it must lie in."""
    return field(default=default, metadata={"key": key, "require": require})


# Lengths >= 1 keep every batch at T >= 1 input steps. The act.* ranges
# are `ActConfig.validate`'s.
@dataclass
class TrainConfig:
    task: str = _key("task.name", "parity")
    batch: Optional[int] = _key("task.batch", None, ">= 1")
    n_bits: int = _key("task.bits", TASKS["parity"].input_size, ">= 1")
    min_len: Optional[int] = _key("task.min_len", None, ">= 1")
    max_len: Optional[int] = _key("task.max_len", None, ">= 1")
    min_digits: Optional[int] = _key("task.min_digits", None)
    max_digits: Optional[int] = _key("task.max_digits", None)
    seq_len: int = _key("task.seq_len", 500, ">= 1")
    corpus: str = _key("task.corpus", "")
    cell: Optional[str] = _key("cell.kind", None)
    hidden: Optional[int] = _key("cell.hidden", None, ">= 1")
    epsilon: float = _key("act.epsilon", 0.01)
    max_steps: Optional[int] = _key("act.max_steps", None)
    tau: float = _key("act.tau", 1e-3)
    lr: float = _key("train.lr", 1e-4, "finite and > 0")
    beta1: float = _key("train.beta1", 0.9, "in [0, 1)")
    beta2: float = _key("train.beta2", 0.999, "in [0, 1)")
    adam_eps: float = _key("train.adam_eps", 1e-8, "finite and > 0")
    iterations: int = _key("train.iterations", 10_000, ">= 0")
    eval_every: int = _key("train.eval_every", 500, ">= 1")
    eval_batches: int = _key("train.eval_batches", 4, ">= 1")
    checkpoint_every: int = _key("train.checkpoint_every", 0, ">= 0")
    clip_norm: float = _key("train.clip_norm", 0.0, "finite and >= 0")
    seed: int = _key("train.seed", 0, ">= 0")

    def act_config(self) -> ActConfig:
        """The validated pondering knobs: act.epsilon, act.max_steps, act.tau."""
        return ActConfig(self.epsilon, self.max_steps, self.tau).validate()

    def resolve(self) -> "TrainConfig":
        """Fill task-dependent defaults and validate ranges."""
        if self.task not in TASKS:
            raise ConfigError(
                f"unknown task {self.task!r}; expected one of {sorted(TASKS)}")
        out = replace(self, **{name: value for name, value
                               in TASKS[self.task].defaults.items()
                               if getattr(self, name) is None})
        try:
            out.act_config()
        except ContractError as exc:
            raise ConfigError(
                f"invalid act.epsilon, act.max_steps or act.tau: {exc}") from None
        if out.cell not in CELLS:
            raise ConfigError(f"cell.kind must be {' or '.join(CELLS)}, "
                              f"got {out.cell!r}")
        for f in fields(out):
            require, value = f.metadata["require"], getattr(out, f.name)
            if require is not None and not RANGES[require](value):
                raise ConfigError(f"{f.metadata['key']} must be {require}, got {value}")
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
        if out.task == "addition" and not addition_sum_fits(out.max_len, out.max_digits):
            raise ConfigError(f"task.max_len {out.max_len} and task.max_digits "
                              f"{out.max_digits} let a sum pass {ADDITION_SUM_DIGITS} digits")
        return out


# Dotted config key -> dataclass field.
KEYMAP = {f.metadata["key"]: f.name for f in fields(TrainConfig)}
_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _convert(key: str, name: str, raw: str):
    raw = raw.strip()
    ftype = _FIELD_TYPES[name]
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
    if "#" in raw or "".join(raw.splitlines()) != raw:   # no config text holds it
        raise ConfigError(f"{key}: value {raw!r} contains '#' or a line break")
    if key in RETIRED_KEYS:
        value, reason = RETIRED_KEYS[key]
        if raw.strip() != value:
            raise ConfigError(f"{key}: {reason}; only {value} is accepted")
        return
    if key not in KEYMAP:
        hint = difflib.get_close_matches(key, KEYMAP, n=1)
        suffix = f"; closest valid key is {hint[0]!r}" if hint else ""
        raise ConfigError(f"unknown config key {key!r}{suffix}")
    name = KEYMAP[key]
    setattr(config, name, _convert(key, name, raw))


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
    return "".join(f"{key} = {getattr(config, KEYMAP[key])}\n"
                   for key in sorted(KEYMAP))


def resolved_spec(config: TrainConfig) -> TaskSpec:
    """The task spec a resolved config trains: parity's width is task.bits."""
    if config.task == "parity":
        return task_spec("parity", input_size=config.n_bits)
    return task_spec(config.task)


def config_digest(config: TrainConfig) -> str:
    return hashlib.sha256(config_text(config).encode("utf-8")).hexdigest()
