import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actlab.autodiff import ContractError
from actlab.config import ConfigError, parse_config_text, resolved_spec
from actlab.tasks import (GATE_NAMES, derive_seeds, gen_addition, gen_logic,
                          gen_parity, gen_sort, gen_text, render_input,
                          synth_corpus, task_spec, write_batch_csv)
from actlab.trainer import make_batch

from oracles import apply_gate

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

# Gates defined from their logical formulas, not from the package's table.
_GATE_FORMULAS = {
    "NOR":     lambda p, q: not (p or q),
    "Xq":      lambda p, q: (not p) and q,
    "ABJ":     lambda p, q: p and not q,
    "XOR":     lambda p, q: p != q,
    "NAND":    lambda p, q: not (p and q),
    "AND":     lambda p, q: p and q,
    "XNOR":    lambda p, q: p == q,
    "if/then": lambda p, q: (not p) or q,
    "then/if": lambda p, q: p or (not q),
    "OR":      lambda p, q: p or q,
}

# The ten published truth-table columns, frozen by hand: rows are
# (P,Q) = (T,T), (T,F), (F,T), (F,F); F=0, T=1.
_PUBLISHED_TABLE = {
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


def eval_logic_sequence_oracle(inputs, length):
    """Recursive evaluator built from the formula gates and raw vectors."""
    targets = []
    carry = int(inputs[0, 0])
    for t in range(length):
        vec = inputs[t]
        b0 = carry if t > 0 else int(vec[0])
        b1 = int(vec[1])
        gates = []
        for chunk in range(10):
            one_hot = vec[2 + 10 * chunk: 2 + 10 * (chunk + 1)]
            if one_hot.sum() == 0:
                break
            gates.append(GATE_NAMES[int(np.argmax(one_hot))])
        prev2, prev1 = b0, b1
        for name in gates:
            prev2, prev1 = prev1, int(_GATE_FORMULAS[name](bool(prev1), bool(prev2)))
        targets.append(prev1)
        carry = prev1
    return targets


def decode_addition_inputs(vec):
    """One-hot input vector back to its integer value (LSD first)."""
    value = 0
    for i in range(5):
        chunk = vec[10 * i: 10 * (i + 1)]
        if chunk.sum() == 0:
            break
        value += int(np.argmax(chunk)) * 10 ** i
    return value


def decode_addition_target(row):
    digits = [int(d) for d in row if d != 10]
    assert all(int(d) == 10 for d in row[len(digits):])
    return int("".join(str(d) for d in reversed(digits))) if digits else None


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

class TestTruthTables:
    def test_exactly_ten_gates(self):
        assert GATE_NAMES == list(_PUBLISHED_TABLE)

    def test_all_forty_entries_match_published_table(self):
        rows = [(1, 1), (1, 0), (0, 1), (0, 0)]
        for name, column in _PUBLISHED_TABLE.items():
            gate_id = GATE_NAMES.index(name) + 1
            for row_idx, (p, q) in enumerate(rows):
                assert apply_gate(gate_id, p, q) == column[row_idx], \
                    f"{name}({p},{q})"

    def test_tables_match_logical_formulas(self):
        for name, fn in _GATE_FORMULAS.items():
            gate_id = GATE_NAMES.index(name) + 1
            for p in (0, 1):
                for q in (0, 1):
                    assert apply_gate(gate_id, p, q) == int(fn(bool(p), bool(q)))

    def test_gate_id_range(self):
        with pytest.raises(ContractError):
            apply_gate(0, 1, 1)
        with pytest.raises(ContractError):
            apply_gate(11, 1, 1)


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

class TestParity:
    def test_zero_bits_is_contract_error(self):
        with pytest.raises(ContractError, match="^n_bits must be >= 1, got 0$"):
            gen_parity(seed=0, n_bits=0, batch=2)

    def test_shapes_and_defaults(self):
        b = gen_parity(seed=0, n_bits=64, batch=128)
        assert b.inputs.shape == (128, 1, 64)
        assert b.targets.shape == (128, 1, 1)
        assert b.target_mask.all()

    def test_single_plus_one_is_odd(self):
        # Hunt a generated example with exactly one +1 and nothing else.
        b = gen_parity(seed=3, n_bits=4, batch=256)
        found = False
        for e in range(256):
            vec = b.inputs[e, 0]
            if np.count_nonzero(vec == 1) == 1 and np.count_nonzero(vec == -1) == 0:
                assert b.targets[e, 0, 0] == 1
                found = True
        assert found

    def test_plus_and_minus_pair_is_odd(self):
        b = gen_parity(seed=5, n_bits=4, batch=512)
        found = False
        for e in range(512):
            vec = b.inputs[e, 0]
            if np.count_nonzero(vec == 1) == 1 and np.count_nonzero(vec == -1) == 1:
                assert b.targets[e, 0, 0] == 1      # one "+1" entry: odd
                found = True
        assert found

    def test_fuzz_against_brute_force(self):
        total = 0
        for seed in range(10):
            b = gen_parity(seed=seed, n_bits=64, batch=1000)
            for e in range(1000):
                vec = b.inputs[e, 0]
                assert b.targets[e, 0, 0] == int(np.count_nonzero(vec == 1.0)) % 2
            total += 1000
        assert total == 10_000

    def test_difficulty_counts_nonzero_bits(self):
        b = gen_parity(seed=7, n_bits=64, batch=200)
        for e in range(200):
            assert b.difficulty[e, 0] == np.count_nonzero(b.inputs[e, 0])
        assert b.difficulty.min() >= 1
        assert b.difficulty.max() <= 64


# ---------------------------------------------------------------------------
# Logic
# ---------------------------------------------------------------------------

class TestLogic:
    def test_vector_layout(self):
        b = gen_logic(seed=0, batch=8, min_len=1, max_len=10)
        assert b.inputs.shape[2] == 102
        # Gate chunks hold at most one hot entry each.
        for e in range(8):
            for t in range(int(b.lengths[e])):
                for chunk in range(10):
                    assert b.inputs[e, t, 2 + 10 * chunk: 12 + 10 * chunk].sum() <= 1

    def test_first_two_elements_are_bits(self):
        b = gen_logic(seed=1, batch=32, min_len=1, max_len=10)
        assert set(np.unique(b.inputs[:, :, :2])) <= {0.0, 1.0}

    def test_carried_operand_hidden_in_input(self):
        # From the second vector on, element 0 must read zero.
        b = gen_logic(seed=2, batch=64, min_len=2, max_len=10)
        for e in range(64):
            assert np.all(b.inputs[e, 1:int(b.lengths[e]), 0] == 0.0)

    def test_fuzz_against_recursive_oracle(self):
        checked = 0
        for seed in range(20):
            b = gen_logic(seed=seed, batch=500, min_len=1, max_len=10)
            for e in range(500):
                want = eval_logic_sequence_oracle(b.inputs[e], int(b.lengths[e]))
                got = list(b.targets[e, :int(b.lengths[e]), 0])
                assert got == want
            checked += 500
        assert checked == 10_000

    def test_difficulty_is_gates_per_vector(self):
        b = gen_logic(seed=3, batch=32, min_len=1, max_len=10)
        for e in range(32):
            for t in range(int(b.lengths[e])):
                n_gates = sum(
                    b.inputs[e, t, 2 + 10 * c: 12 + 10 * c].sum() > 0
                    for c in range(10))
                assert b.difficulty[e, t] == n_gates

    def test_inverted_lengths_are_refused_before_any_draw(self):
        # The seed is no seed at all, so a draw would raise TypeError.
        with pytest.raises(ContractError, match="min <= max"):
            gen_logic(object(), batch=2, min_len=5, max_len=3)


# ---------------------------------------------------------------------------
# Addition
# ---------------------------------------------------------------------------

class TestAddition:
    def test_first_step_unmasked(self):
        b = gen_addition(seed=0, batch=64, min_len=1, max_len=5, min_digits=1,
                         max_digits=5)
        assert not b.target_mask[:, 0].any()

    def test_single_step_sequences_have_no_targets(self):
        b = gen_addition(seed=1, batch=64, min_len=1, max_len=1, min_digits=1,
                         max_digits=5)
        assert not b.target_mask.any()

    def test_known_sum_digits(self):
        # Find a two-step example whose sum needs a carry, then check the
        # target encodes digits least-significant first with 10s padding.
        b = gen_addition(seed=2, batch=256, min_len=2, max_len=2,
                         min_digits=1, max_digits=1)
        for e in range(256):
            a = decode_addition_inputs(b.inputs[e, 0])
            c = decode_addition_inputs(b.inputs[e, 1])
            if a == 5 and c == 7:
                np.testing.assert_array_equal(b.targets[e, 1],
                                              [2, 1, 10, 10, 10, 10])
                return
        # The digit pair (5, 7) must exist somewhere in 256 tries.
        raise AssertionError("no (5, 7) example generated")

    def test_fuzz_against_integer_oracle(self):
        checked = 0
        for seed in range(20):
            b = gen_addition(seed=seed, batch=500, min_len=1, max_len=5,
                             min_digits=1, max_digits=5)
            for e in range(500):
                total = 0
                for t in range(int(b.lengths[e])):
                    total += decode_addition_inputs(b.inputs[e, t])
                    if t >= 1:
                        assert b.target_mask[e, t]
                        assert decode_addition_target(b.targets[e, t]) == total
            checked += 500
        assert checked == 10_000

    def test_sums_past_six_digits_are_refused_before_any_draw(self):
        # Ten 5-digit numbers sum to at most 999,990; eleven can reach seven
        # digits. The seed is no seed at all, so a draw would raise TypeError.
        gen_addition(seed=0, batch=4, min_len=10, max_len=10, min_digits=5,
                     max_digits=5)
        with pytest.raises(ContractError, match="sums at most 6"):
            gen_addition(seed=object(), batch=4, min_len=1, max_len=11,
                         min_digits=1, max_digits=5)

    @pytest.mark.parametrize("lens, digits", [((5, 3), (1, 5)), ((1, 5), (3, 2))])
    def test_inverted_ranges_are_refused_before_any_draw(self, lens, digits):
        with pytest.raises(ContractError, match="min <= max"):
            gen_addition(seed=object(), batch=2, min_len=lens[0], max_len=lens[1],
                         min_digits=digits[0], max_digits=digits[1])

    def test_difficulty_is_digit_count(self):
        b = gen_addition(seed=5, batch=64, min_len=1, max_len=5, min_digits=1,
                         max_digits=5)
        for e in range(64):
            for t in range(int(b.lengths[e])):
                width = sum(b.inputs[e, t, 10 * i: 10 * i + 10].sum() > 0
                            for i in range(5))
                assert b.difficulty[e, t] == width


# ---------------------------------------------------------------------------
# Sort
# ---------------------------------------------------------------------------

class TestSort:
    @pytest.mark.parametrize("min_len, max_len", [(1, 5), (2, 16), (1, 16), (6, 5)])
    def test_lengths_outside_two_to_fifteen_are_contract_errors(self, min_len,
                                                                max_len):
        with pytest.raises(ContractError, match=re.escape(
                "sort lengths must satisfy 2 <= min <= max <= 15")):
            gen_sort(seed=0, batch=2, min_len=min_len, max_len=max_len)

    def test_input_layout(self):
        b = gen_sort(seed=0, batch=16, min_len=2, max_len=15)
        for e in range(16):
            n = int(b.lengths[e]) // 2
            assert b.inputs[e, n - 1, 1] == 1.0          # end-of-sequence flag
            assert np.all(b.inputs[e, :n - 1, 1] == 0.0)
            assert np.all(b.inputs[e, n:, :] == 0.0)     # output phase is silent
            assert b.target_mask[e, n:2 * n].all()
            assert not b.target_mask[e, :n].any()

    def test_targets_match_reference_argsort(self):
        checked = 0
        for seed in range(25):
            b = gen_sort(seed=seed, batch=400, min_len=2, max_len=15)
            for e in range(400):
                n = int(b.lengths[e]) // 2
                values = b.inputs[e, :n, 0]
                np.testing.assert_array_equal(
                    b.targets[e, n:2 * n, 0], np.argsort(values, kind="stable"))
            checked += 400
        assert checked == 10_000

    def test_minimum_separation_enforced(self):
        b = gen_sort(seed=1, batch=400, min_len=2, max_len=15)
        for e in range(400):
            n = int(b.lengths[e]) // 2
            gaps = np.diff(np.sort(b.inputs[e, :n, 0]))
            assert np.all(gaps >= 1e-6)

    def test_difficulty_is_sort_length(self):
        b = gen_sort(seed=2, batch=32, min_len=2, max_len=15)
        for e in range(32):
            n = int(b.lengths[e]) // 2
            assert 2 <= n <= 15
            assert np.all(b.difficulty[e, :2 * n] == n)


# ---------------------------------------------------------------------------
# Trace rendering
# ---------------------------------------------------------------------------

class TestRenderInput:
    def test_addition_prints_most_significant_digit_first(self):
        vec = np.zeros(50)
        vec[[10 * 0 + 5, 10 * 1 + 0, 10 * 2 + 3]] = 1.0   # 305, LSD first
        assert render_input("addition", vec) == "305"

    def test_empty_addition_vector(self):
        assert render_input("addition", np.zeros(50)) == "(empty)"

    def test_sort_value_with_and_without_end_flag(self):
        assert render_input("sort", np.array([0.5, 1.0])) == "+0.5000#"
        assert render_input("sort", np.array([-1.23456, 0.0])) == "-1.2346"


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------

class TestText:
    def test_minimal_corpus_shift_by_one(self):
        b = gen_text(b"abc", seed=0, seq_len=2, batch=4)
        for e in range(4):
            assert np.argmax(b.inputs[e, 0]) == ord("a")
            assert np.argmax(b.inputs[e, 1]) == ord("b")
            np.testing.assert_array_equal(b.targets[e, :, 0], [ord("b"), ord("c")])

    def test_target_is_next_input(self):
        corpus = synth_corpus(seed=0, size=4096)
        b = gen_text(corpus, seed=1, seq_len=50, batch=8)
        for e in range(8):
            for t in range(49):
                assert b.targets[e, t, 0] == np.argmax(b.inputs[e, t + 1])

    def test_corpus_too_short(self):
        with pytest.raises(ContractError, match="too short"):
            gen_text(b"ab", seed=0, seq_len=2, batch=1)

    def test_sampled_byte_histogram_tracks_corpus(self):
        corpus = synth_corpus(seed=3, size=8192)
        counts = np.zeros(256)
        sampled = 0
        for seed in range(25):
            b = gen_text(corpus, seed=seed, seq_len=100, batch=40)
            counts += b.inputs.sum(axis=(0, 1))
            sampled += 40 * 100
        assert sampled == 100_000
        ref = np.bincount(np.frombuffer(corpus, dtype=np.uint8), minlength=256)
        ref = ref / ref.sum()
        got = counts / counts.sum()
        assert np.abs(got - ref).sum() < 0.05      # total variation, loose


class TestSynthCorpus:
    def test_deterministic_and_sized(self):
        a = synth_corpus(seed=11, size=10_000)
        b = synth_corpus(seed=11, size=10_000)
        assert a == b
        assert len(a) == 10_000
        assert synth_corpus(seed=12, size=10_000) != a

    def test_has_word_and_punctuation_structure(self):
        corpus = synth_corpus(seed=1, size=50_000)
        text = corpus.decode("ascii")
        assert text.count(" ") > 5000
        assert text.count(". ") > 300
        assert text.count(",") > 100
        assert "\n\n" in text


# ---------------------------------------------------------------------------
# Generator hygiene shared by every task
# ---------------------------------------------------------------------------

def _first_batches():
    """The golden batches, drawn through `trainer.make_batch` as `actlab gen`
    draws them: each task's default config at seed 1234, 16 examples
    (text: 8 windows of 20 bytes)."""
    corpus = synth_corpus(seed=0, size=4096)
    batches = [make_batch(parse_config_text("", [f"task.name={task}"]), 1234,
                          batch_size=16)
               for task in ("parity", "logic", "addition", "sort")]
    text = parse_config_text("", ["task.name=text", "task.seq_len=20"])
    return batches + [make_batch(text, 1234, corpus, batch_size=8)]


_LAYOUT_CORPUS = synth_corpus(seed=0, size=4096)
_LAYOUT_CASES = {
    "parity": lambda seed: gen_parity(seed, n_bits=64, batch=16),
    "parity-5-bits": lambda seed: gen_parity(seed, n_bits=5, batch=16),
    "logic": lambda seed: gen_logic(seed, batch=16, min_len=1, max_len=10),
    "addition": lambda seed: gen_addition(seed, batch=16, min_len=1, max_len=5,
                                          min_digits=1, max_digits=5),
    "sort": lambda seed: gen_sort(seed, batch=16, min_len=2, max_len=15),
    "text": lambda seed: gen_text(_LAYOUT_CORPUS, seed, seq_len=20, batch=8),
}


class TestGeneratorHygiene:
    def test_same_seed_bit_identical(self):
        for a, b in zip(_first_batches(), _first_batches()):
            assert a.inputs.tobytes() == b.inputs.tobytes()
            assert a.targets.tobytes() == b.targets.tobytes()
            assert a.target_mask.tobytes() == b.target_mask.tobytes()
            assert a.difficulty.tobytes() == b.difficulty.tobytes()

    def test_masked_positions_have_valid_classes(self):
        for batch in _first_batches():
            spec = task_spec(batch.task)
            masked = batch.targets[batch.target_mask]
            assert np.all(masked >= 0)
            assert np.all(masked < spec.classes)

    def test_unknown_task_spec_is_contract_error(self):
        with pytest.raises(ContractError, match=re.escape(
                "unknown task 'chess'; expected one of "
                "['addition', 'logic', 'parity', 'sort', 'text']")):
            task_spec("chess")

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
    def test_batch_layout(self, case, seed):
        """The shapes and dtypes every consumer of a batch relies on."""
        batch = _LAYOUT_CASES[case](seed)
        spec = task_spec(batch.task)
        width = 5 if case == "parity-5-bits" else spec.input_size
        b, t = 8 if case == "text" else 16, int(batch.lengths.max())
        layout = {"inputs": (np.float64, (b, t, width)),
                  "targets": (np.int64, (b, t, spec.groups)),
                  "target_mask": (np.bool_, (b, t)),
                  "difficulty": (np.int64, (b, t)),
                  "lengths": (np.int64, (b,))}
        for name, (dtype, shape) in layout.items():
            arr = getattr(batch, name)
            assert (arr.dtype, arr.shape) == (dtype, shape), name
        masked = batch.targets[batch.target_mask]
        assert masked.size and np.all((masked >= 0) & (masked < spec.classes))

    def test_empty_batches_keep_their_window(self):
        assert gen_parity(0, n_bits=5, batch=0).inputs.shape == (0, 1, 5)
        corpus = synth_corpus(seed=0, size=64)
        assert gen_text(corpus, 0, seq_len=7, batch=0).inputs.shape == (0, 7, 256)
        # Lengths drawn per row: no rows, so no input steps.
        for batch in (gen_logic(0, batch=0, min_len=1, max_len=10),
                      gen_addition(0, batch=0, min_len=1, max_len=5,
                                   min_digits=1, max_digits=5),
                      gen_sort(0, batch=0, min_len=2, max_len=15)):
            spec = task_spec(batch.task)
            assert batch.inputs.shape == (0, 0, spec.input_size)
            assert batch.targets.shape == (0, 0, spec.groups)
            assert batch.lengths.shape == (0,)

    @pytest.mark.parametrize("task", ["parity", "logic", "addition", "sort"])
    @given(lens=st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
           digits=st.tuples(st.integers(-1, 7), st.integers(-1, 7)).map(sorted),
           bits=st.integers(0, 70))
    @example(lens=[30, 30], digits=[5, 5], bits=8)    # sums reach seven digits
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_config_that_resolves_generates(self, task, lens, digits, bits):
        # Each (min, max) pair is drawn in order, so most draws resolve.
        try:
            config = parse_config_text("", [
                f"task.name={task}", f"task.min_len={lens[0]}",
                f"task.max_len={lens[1]}", f"task.min_digits={digits[0]}",
                f"task.max_digits={digits[1]}", f"task.bits={bits}"])
        except ConfigError:
            return
        classes = resolved_spec(config).classes
        for seed in (0, 1):
            batch = make_batch(config, seed, batch_size=2)
            masked = batch.targets[batch.target_mask]
            assert np.all((masked >= 0) & (masked < classes))

    def test_derive_seeds_are_independent(self):
        seqs = derive_seeds(7, 4)
        assert len(seqs) == 4
        batches = [gen_parity(seed=s, n_bits=64, batch=8) for s in seqs]
        blobs = {b.inputs.tobytes() for b in batches}
        assert len(blobs) == 4

    def test_generators_have_no_defaults(self):
        # Per-task numbers live in TaskSpec and reach the generators only
        # through the resolved config, so no generator keeps a copy.
        import inspect
        for gen in (gen_parity, gen_logic, gen_addition, gen_sort, gen_text):
            for param in inspect.signature(gen).parameters.values():
                assert param.default is inspect.Parameter.empty, \
                    (gen.__name__, param.name)

    def test_golden_fixture_pins_first_batches(self, tmp_path):
        """Each golden file is the CSV `actlab gen` writes for it:

            actlab gen --task parity --seed 1234 --count 16 --out parity_seed1234.csv
            actlab gen --task logic --seed 1234 --count 16 --out logic_seed1234.csv
            actlab gen --task addition --seed 1234 --count 16 --out addition_seed1234.csv
            actlab gen --task sort --seed 1234 --count 16 --out sort_seed1234.csv
            actlab gen --task corpus --seed 0 --size 4096 --out corpus.bin
            actlab gen --task text --seed 1234 --count 8 --seq-len 20 \\
                --corpus corpus.bin --out text_seed1234.csv
        """
        import pathlib
        fixture_dir = pathlib.Path(__file__).parent / "fixtures" / "golden"
        for batch in _first_batches():
            buf = io.StringIO()
            write_batch_csv(batch, buf)
            golden = fixture_dir / f"{batch.task}_seed1234.csv"
            assert golden.exists(), f"missing golden fixture {golden}"
            assert buf.getvalue() == golden.read_text()
