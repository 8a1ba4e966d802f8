"""Seeded generators for the benchmark tasks.

Every generator is a pure function of (seed, config): the same seed gives
a bit-identical batch. Batches carry per-step difficulty annotations
matching what the difficulty figures plot (bits for parity, gates per
vector for logic, digits per vector for addition, sequence length for
sort). Worker seeds should be derived with `derive_seeds`, never by
offsetting the root seed. Each generator fills the zero arrays of
`TaskBatch.blank`, the one place a batch's shapes and dtypes are set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .autodiff import ContractError, logistic

# Gate ids 1..len(TRUTH_TABLES), row order (P,Q) = (T,T), (T,F), (F,T), (F,F).
TRUTH_TABLES: dict[str, tuple[int, int, int, int]] = {
    "NOR":     (0, 0, 0, 1),
    "Xq":      (0, 0, 1, 0),
    "ABJ":     (0, 1, 0, 0),
    "XOR":     (0, 1, 1, 0),
    "NAND":    (0, 1, 1, 1),
    "AND":     (1, 0, 0, 0),
    "XNOR":    (1, 0, 0, 1),
    "if/then": (1, 0, 1, 1),
    "then/if": (1, 1, 0, 1),
    "OR":      (1, 1, 1, 0),
}

GATE_NAMES = list(TRUTH_TABLES)
_GATE_ROWS = tuple(TRUTH_TABLES.values())    # by gate id - 1; row 3 - 2P - Q


def derive_seeds(root_seed: int, count: int) -> list[np.random.SeedSequence]:
    """Independent child seeds for workers or replicas (splitmix-style spawn)."""
    return np.random.SeedSequence(root_seed).spawn(count)


@dataclass
class TaskBatch:
    """One minibatch: inputs, class targets, loss mask, difficulty labels."""

    task: str
    inputs: np.ndarray        # (batch, T, input_size) float64
    targets: np.ndarray       # (batch, T, groups) int64 class ids
    target_mask: np.ndarray   # (batch, T) bool; True where loss applies
    difficulty: np.ndarray    # (batch, T) int64; 0 past the sequence end
    lengths: np.ndarray       # (batch,) int64 true sequence lengths

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def blank(cls, task: str, batch: int, lengths,
              width: int | None = None) -> "TaskBatch":
        """The one allocation of a batch: zero arrays, the mask True inside
        each sequence. `lengths` is one per row, or one shared by all rows
        (so T holds for an empty batch); T is the longest, or 0 for none.
        `width` defaults to the task's input size; the group count is the task's."""
        t_max = int(np.max(lengths, initial=0))
        lengths = np.broadcast_to(lengths, (batch,)).astype(np.int64)
        spec = TASKS[task]
        width = spec.input_size if width is None else width
        return cls(task, np.zeros((batch, t_max, width)),
                   np.zeros((batch, t_max, spec.groups), dtype=np.int64),
                   np.arange(t_max) < lengths[:, None],
                   np.zeros((batch, t_max), dtype=np.int64), lengths)


@dataclass(frozen=True)
class TaskSpec:
    """Shapes and head layout for one task, with the reference defaults."""

    name: str
    input_size: int
    output_size: int
    head: str                 # "bce" | "softmax"
    groups: int               # simultaneous classifications per step
    classes: int              # classes per group (2 for bce)
    # TrainConfig field -> reference value; left out of the hash (a mapping
    # has none), so a spec stays hashable.
    defaults: Mapping[str, object] = field(hash=False)

    def decode(self, outputs: np.ndarray) -> np.ndarray:
        """Argmax / threshold decoding of raw readouts to class ids."""
        if self.head == "bce":
            return (outputs > 0.0).astype(np.int64)      # sigmoid(y) > 0.5
        b, t, _ = outputs.shape
        grouped = outputs.reshape(b, t, self.groups, self.classes)
        return grouped.argmax(axis=3)

    def probs(self, outputs: np.ndarray) -> np.ndarray:
        """Class distributions of raw readouts, shaped (..., groups, classes).

        A bce readout y maps to [1 - p, p] with p the overflow-safe
        sigmoid of y; softmax readouts are normalized per group after a
        max shift. Both match the tape's loss arithmetic.
        """
        if self.head == "bce":
            p = logistic(outputs)
            return np.stack([1.0 - p, p], axis=-1)
        grouped = outputs.reshape(outputs.shape[:-1] + (self.groups, self.classes))
        expd = np.exp(grouped - grouped.max(axis=-1, keepdims=True))
        return expd / expd.sum(axis=-1, keepdims=True)


LOGIC_MAX_GATES = 10         # gates per logic vector, drawn from 1..this
# A logic vector holds the operand bits b0, b1, then one block of
# len(GATE_NAMES) one-hot gate ids per gate: gate i (0-based) with id g is
# at index 2 + len(GATE_NAMES)*i + (g - 1).
_GATE_SLOTS = 1 + len(GATE_NAMES) * np.arange(LOGIC_MAX_GATES)
# Ranges the generators accept; `TrainConfig.resolve` rejects the rest.
ADDITION_MAX_DIGITS = 5      # digits per addition input vector
SORT_MIN_LEN, SORT_MAX_LEN = 2, 15   # values per sort sequence
SORT_MIN_SEPARATION = 1e-6   # closer sort values are redrawn
# An addition input vector is one block of the ten digit values per digit;
# its target is one class per sum digit: digits 0-9, then the blank.
ADDITION_SUM_DIGITS = 6
ADDITION_BLANK = 10          # the "beyond the end of the number" class


def addition_sum_fits(max_len: int, max_digits: int) -> bool:
    """Whether every sum of `max_len` numbers of `max_digits` digits fits the targets."""
    return max_len * (10 ** max_digits - 1) < 10 ** ADDITION_SUM_DIGITS


def _reference(batch: int, cell: str, hidden: int, max_steps: int,
               lens: tuple[int, int], digits: tuple[int, int] = (0, 0)):
    """A task's reference setup, read-only and keyed by TrainConfig field."""
    return MappingProxyType({
        "batch": batch, "cell": cell, "hidden": hidden, "max_steps": max_steps,
        "min_len": lens[0], "max_len": lens[1],
        "min_digits": digits[0], "max_digits": digits[1]})


TASKS: dict[str, TaskSpec] = {
    "parity":   TaskSpec("parity", 64, 1, "bce", 1, 2,
                         _reference(128, "rnn", 128, 100, (1, 1))),
    "logic":    TaskSpec("logic", 2 + LOGIC_MAX_GATES * len(GATE_NAMES), 1, "bce",
                         1, 2, _reference(16, "lstm", 128, 100, (1, 10))),
    "addition": TaskSpec("addition", ADDITION_MAX_DIGITS * ADDITION_BLANK,
                         ADDITION_SUM_DIGITS * (ADDITION_BLANK + 1), "softmax",
                         ADDITION_SUM_DIGITS, ADDITION_BLANK + 1,
                         _reference(32, "lstm", 512, 20, (1, 5),
                                    (1, ADDITION_MAX_DIGITS))),
    "sort":     TaskSpec("sort", 2, SORT_MAX_LEN, "softmax", 1, SORT_MAX_LEN,
                         _reference(16, "lstm", 512, 100,
                                    (SORT_MIN_LEN, SORT_MAX_LEN))),
    "text":     TaskSpec("text", 256, 256, "softmax", 1, 256,
                         _reference(8, "lstm", 1500, 100, (1, 1))),
}


def task_spec(name: str, **overrides) -> TaskSpec:
    if name not in TASKS:
        raise ContractError(f"unknown task {name!r}; expected one of {sorted(TASKS)}")
    return replace(TASKS[name], **overrides)


def gen_parity(seed, n_bits: int, batch: int) -> TaskBatch:
    """Static parity vectors: k of n_bits entries set to +/-1, rest zero.

    The target is the parity of the number of +1 entries.
    """
    if n_bits < 1:
        raise ContractError(f"n_bits must be >= 1, got {n_bits}")
    rng = np.random.default_rng(seed)
    out = TaskBatch.blank("parity", batch, 1, width=n_bits)
    for e in range(batch):
        k = int(rng.integers(1, n_bits + 1))
        positions = rng.choice(n_bits, size=k, replace=False)
        signs = rng.integers(0, 2, size=k) * 2 - 1
        out.inputs[e, 0, positions] = signs
        out.targets[e, 0, 0] = int(np.count_nonzero(signs == 1)) % 2
        out.difficulty[e, 0] = k
    return out


def gen_logic(seed, batch: int, min_len: int, max_len: int) -> TaskBatch:
    """Chained binary logic: each vector holds two operand bits and up to
    ten one-hot gate ids; the target is the result of applying the gates
    recursively, carrying the previous vector's target as the hidden
    first operand."""
    if min_len > max_len:
        raise ContractError(f"logic lengths need min <= max, got {min_len} > {max_len}")
    rng = np.random.default_rng(seed)
    out = TaskBatch.blank("logic", batch,
                          rng.integers(min_len, max_len + 1, size=batch))
    for e in range(batch):
        b0 = int(rng.integers(0, 2))
        for t in range(int(out.lengths[e])):
            b1 = int(rng.integers(0, 2))
            n_gates = int(rng.integers(1, LOGIC_MAX_GATES + 1))
            gates = rng.integers(1, len(GATE_NAMES) + 1, size=n_gates)
            vec = out.inputs[e, t]
            if t == 0:
                vec[0] = b0          # hidden on later steps: carried, not shown
            vec[1] = b1
            vec[_GATE_SLOTS[:n_gates] + gates] = 1.0
            prev2, prev1 = b0, b1
            for g in gates.tolist():
                prev2, prev1 = prev1, _GATE_ROWS[g - 1][3 - 2 * prev1 - prev2]
            out.targets[e, t, 0] = prev1
            out.difficulty[e, t] = n_gates
            b0 = prev1               # next vector's implicit first operand
    return out


def gen_addition(seed, batch: int, min_len: int, max_len: int,
                 min_digits: int, max_digits: int) -> TaskBatch:
    """Cumulative decimal addition.

    Each vector one-hot encodes a D-digit number, least-significant digit
    first; the target from the second step on is the running sum as six
    simultaneous digit classifications, class 10 marking positions past
    the end of the sum. The first step carries no target.
    """
    if not (1 <= min_digits <= max_digits <= ADDITION_MAX_DIGITS
            and min_len <= max_len and addition_sum_fits(max_len, max_digits)):
        raise ContractError(f"addition needs min <= max, 1 to {ADDITION_MAX_DIGITS} "
                            f"digits per vector and sums at most {ADDITION_SUM_DIGITS}")
    rng = np.random.default_rng(seed)
    out = TaskBatch.blank("addition", batch,
                          rng.integers(min_len, max_len + 1, size=batch))
    out.target_mask[:, :1] = False
    out.targets[out.target_mask] = ADDITION_BLANK
    for e in range(batch):
        total = 0
        for t in range(int(out.lengths[e])):
            n_digits = int(rng.integers(min_digits, max_digits + 1))
            digits = rng.integers(0, 10, size=n_digits)    # LSD first
            out.inputs[e, t, ADDITION_BLANK * np.arange(n_digits) + digits] = 1.0
            total += int(sum(int(d) * 10 ** i for i, d in enumerate(digits)))
            out.difficulty[e, t] = n_digits
            if t >= 1:
                sum_digits = [int(c) for c in reversed(str(total))]
                out.targets[e, t, :len(sum_digits)] = sum_digits
    return out


def gen_sort(seed, batch: int, min_len: int, max_len: int) -> TaskBatch:
    """Sort standard-normal draws: values arrive one per step with an
    end-of-sequence flag, then the network emits the ascending order as
    index classifications during an equally long output phase.

    Values closer than `SORT_MIN_SEPARATION` are redrawn so targets stay
    well defined.
    """
    if not SORT_MIN_LEN <= min_len <= max_len <= SORT_MAX_LEN:
        raise ContractError(f"sort lengths must satisfy {SORT_MIN_LEN} <= min "
                            f"<= max <= {SORT_MAX_LEN}")
    rng = np.random.default_rng(seed)
    out = TaskBatch.blank("sort", batch,
                          2 * rng.integers(min_len, max_len + 1, size=batch))
    for e in range(batch):
        n = int(out.lengths[e]) // 2
        while True:
            values = rng.standard_normal(n)
            if np.all(np.diff(np.sort(values)) >= SORT_MIN_SEPARATION):
                break
        out.inputs[e, :n, 0] = values
        out.inputs[e, n - 1, 1] = 1.0
        out.targets[e, n:2 * n, 0] = np.argsort(values, kind="stable")
        out.target_mask[e, :n] = False
        out.difficulty[e, :2 * n] = n
    return out


def gen_text(corpus: bytes, seed, seq_len: int, batch: int) -> TaskBatch:
    """Next-byte prediction over random windows of a byte corpus."""
    if len(corpus) < seq_len + 1:
        raise ContractError(
            f"corpus of {len(corpus)} bytes is too short for seq_len {seq_len}")
    rng = np.random.default_rng(seed)
    data = np.frombuffer(corpus, dtype=np.uint8)
    offsets = rng.integers(0, len(corpus) - seq_len - 1, size=batch, endpoint=True)
    out = TaskBatch.blank("text", batch, seq_len)
    rows = np.arange(seq_len)
    for e, off in enumerate(offsets):
        window = data[off:off + seq_len + 1].astype(np.int64)
        out.inputs[e, rows, window[:-1]] = 1.0
        out.targets[e, :, 0] = window[1:]
    return out


def render_input(task: str, vec: np.ndarray) -> str:
    """One input vector of `task` as short text, for trace rows."""
    if task == "parity":
        return "".join("+" if v == 1 else "-" if v == -1 else "." for v in vec)
    if task == "logic":
        blocks = vec[2:].reshape(LOGIC_MAX_GATES, len(GATE_NAMES))
        gates = [int(np.argmax(b)) + 1 for b in blocks if b.sum() > 0]
        return f"b0={int(vec[0])} b1={int(vec[1])} gates={gates}"
    if task == "addition":
        blocks = vec.reshape(ADDITION_MAX_DIGITS, ADDITION_BLANK)
        digits = [int(np.argmax(b)) for b in blocks if b.sum() > 0]
        if not digits:
            return "(empty)"
        return "".join(str(d) for d in reversed(digits))
    if task == "sort":
        return f"{vec[0]:+.4f}{'#' if vec[1] == 1 else ''}"
    byte = int(np.argmax(vec)) if vec.sum() > 0 else 0
    ch = chr(byte)
    return ch if ch.isprintable() else f"\\x{byte:02x}"


_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_VOCAB_SIZE = 600


def synth_corpus(seed, size: int = 1 << 20) -> bytes:
    """Deterministic pseudo-English corpus for the text task.

    Words come from a fixed seeded vocabulary drawn with a 1/rank bias,
    separated by spaces, grouped into comma- and period-delimited
    sentences and paragraph breaks. It exists so the text task has a
    self-contained fixture with word and punctuation structure; point the
    config at any real byte file for actual language data.
    """
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(_VOCAB_SIZE):
        n_syll = int(rng.integers(1, 4))
        word = "".join(
            _CONSONANTS[rng.integers(0, len(_CONSONANTS))]
            + _VOWELS[rng.integers(0, len(_VOWELS))]
            + (_CONSONANTS[rng.integers(0, len(_CONSONANTS))]
               if rng.random() < 0.3 else "")
            for _ in range(n_syll))
        words.append(word)
    ranks = np.arange(1, _VOCAB_SIZE + 1, dtype=np.float64)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()

    chunks: list[str] = []
    total = 0
    sentences_in_paragraph = 0
    while total < size:
        n_words = int(rng.integers(4, 13))
        picks = rng.choice(_VOCAB_SIZE, size=n_words, p=probs)
        tokens = [words[i] for i in picks]
        tokens[0] = tokens[0].capitalize()
        sentence = tokens[0]
        for tok in tokens[1:]:
            sentence += ("," if rng.random() < 0.12 else "") + " " + tok
        sentence += ". "
        sentences_in_paragraph += 1
        if sentences_in_paragraph >= int(rng.integers(4, 9)):
            sentence += "\n\n"
            sentences_in_paragraph = 0
        chunks.append(sentence)
        total += len(sentence)
    return "".join(chunks).encode("ascii")[:size]


BATCH_CSV_SCHEMA = "task-batch-1"


def write_table(out, schema: str, header, rows) -> None:
    """Write the `# schema:` line, then `header` and `rows` as CSV.

    `out` is a path (opened here and closed) or an open text stream. Every
    CSV the package writes goes through here; a float is written as its repr.
    """
    fh = open(out, "w", newline="") if isinstance(out, (str, bytes)) else out
    try:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if fh is not out:
            fh.close()


def write_batch_csv(batch: TaskBatch, out) -> None:
    """Golden-fixture serialization: one row per (example, step).

    Columns: example, t, length, mask, difficulty, then `target_g*` for
    each classification group, then `in_*` for the flattened input vector.
    """
    b, t_max, width = batch.inputs.shape
    write_table(out, f"{BATCH_CSV_SCHEMA} task: {batch.task}",
                ["example", "t", "length", "mask", "difficulty"]
                + [f"target_g{g}" for g in range(batch.targets.shape[2])]
                + [f"in_{i}" for i in range(width)],
                ([e, t, int(batch.lengths[e]), int(batch.target_mask[e, t]),
                  int(batch.difficulty[e, t])]
                 + batch.targets[e, t].tolist() + batch.inputs[e, t].tolist()
                 for e in range(b) for t in range(t_max)))
