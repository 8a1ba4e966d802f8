import gc
import math
import weakref

import numpy as np
import pytest

from actlab import trainer
from actlab.act import ActConfig
from actlab.autodiff import ContractError, Tape
from actlab.cells import init_params
from actlab.engine import run_batch
from actlab.losses import (PROB_CLAMP, DifficultyRow, binary_cross_entropy,
                           bits_per_character, joint_softmax_cross_entropy,
                           per_position_nats, ponder_by_difficulty, total_loss)
from actlab.tasks import (gen_addition, gen_logic, gen_parity, gen_sort, gen_text,
                          synth_corpus, task_spec)
from actlab.trainer import batch_objective, evaluate

from oracles import composed_task_loss, sequence_error_rate

BCE = task_spec("logic")                 # one logit per step, bce head


def softmax_spec(groups, classes):
    return task_spec("addition", output_size=groups * classes, groups=groups,
                     classes=classes)


def entry_point(spec):
    return binary_cross_entropy if spec.head == "bce" else joint_softmax_cross_entropy


def loss_of(spec, readouts, targets, mask=None):
    """The task-loss node over one step of (rows, output_size) readouts."""
    rows = len(readouts)
    mask = np.ones(rows) if mask is None else mask
    return entry_point(spec)(spec, Tape().leaf(np.reshape(readouts, (rows, 1, -1))),
                             np.reshape(targets, (rows, 1, -1)),
                             np.reshape(mask, (rows, 1)))


def bce_scalar(y, target):
    return float(loss_of(BCE, np.array([[y]]), [target]).data)


def logit(p):
    return math.log(p / (1.0 - p))


class TestBinaryCrossEntropy:
    def test_half_is_ln_two(self):
        assert abs(bce_scalar(0.0, 1) - math.log(2.0)) < 1e-15

    def test_near_one_is_near_zero_and_finite(self):
        y = logit(1.0 - 1e-12)
        value = bce_scalar(y, 1)
        assert 0.0 <= value < 1e-11
        assert math.isfinite(bce_scalar(y, 0))      # clamped, not -inf

    def test_hand_value(self):
        # Oracle: -ln(0.8) evaluated independently.
        expected = -math.log(0.8)
        assert abs(expected - 0.2231435513142097) < 1e-15
        assert abs(bce_scalar(logit(0.2), 0) - expected) < 1e-15

    def test_gradient_matches_fd(self):
        from oracles import fd_grad, rel_err
        y0 = np.array([[logit(0.3)], [logit(0.8)]])
        targets = np.array([1, 0])

        def f(y):
            return float(loss_of(BCE, y, targets).data)

        tape = Tape()
        v = tape.leaf(y0[:, None])
        tape.backward(binary_cross_entropy(BCE, v, targets.reshape(2, 1, 1),
                                           np.ones((2, 1))))
        assert rel_err(tape.grad(v)[:, 0], fd_grad(f, y0)) < 1e-6


class TestJointSoftmaxCrossEntropy:
    def test_uniform_prediction_costs_ln_classes(self):
        targets = np.random.default_rng(0).integers(0, 11, size=(3, 6))
        loss = loss_of(softmax_spec(6, 11), np.zeros((3, 66)), targets)
        assert abs(float(loss.data) - 3 * 6 * math.log(11.0)) < 1e-10

    def test_masked_rows_contribute_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 5))
        targets = rng.integers(0, 5, size=(4, 1))
        spec = softmax_spec(1, 5)
        loss_all = loss_of(spec, logits, targets, mask=np.array([1.0, 1.0, 0.0, 1.0]))
        loss_kept = loss_of(spec, logits[[0, 1, 3]], targets[[0, 1, 3]])
        assert abs(float(loss_all.data) - float(loss_kept.data)) < 1e-12

    def test_against_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3, 7))       # (rows, groups, classes)
        targets = rng.integers(0, 7, size=(5, 3))
        mask = rng.random(5) < 0.7
        expected = 0.0
        for r in range(5):
            if not mask[r]:
                continue
            for g in range(3):
                row = logits[r, g]
                probs = np.exp(row - row.max())
                probs /= probs.sum()
                expected += -math.log(probs[targets[r, g]])
        loss = loss_of(softmax_spec(3, 7), logits.reshape(5, 21), targets,
                       mask.astype(float))
        assert abs(float(loss.data) - expected) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ContractError, match="out of range"):
            loss_of(softmax_spec(1, 4), np.zeros((2, 4)), np.array([[0], [4]]))

    def test_head_must_match_entry_point(self):
        with pytest.raises(ContractError, match="head"):
            binary_cross_entropy(softmax_spec(1, 4), Tape().leaf(np.zeros((2, 1, 4))),
                                 np.zeros((2, 1, 1)), np.ones((2, 1)))


def fused_and_composed(spec, ys, targets, weights):
    """(value, per-step readout adjoints) of the fused node, then of the
    composed chain. The fused node reads the steps as one block with an
    extra column after the readouts, like the engine's R, which must get a
    zero adjoint."""
    tape = Tape()
    block = np.stack(ys, axis=1)
    block = tape.leaf(np.concatenate([block, np.ones(block.shape[:2] + (1,))], axis=2))
    loss = entry_point(spec)(spec, block, targets, weights)
    tape.backward(loss)
    adj = tape.grad(block)
    assert not adj[..., -1].any()
    results = [(float(loss.data), [adj[:, t, :-1] for t in range(len(ys))])]
    tape = Tape()
    readouts = [tape.leaf(y) for y in ys]
    loss = composed_task_loss(spec, readouts, targets, weights)
    tape.backward(loss)
    results.append((float(loss.data), [tape.grad(v) for v in readouts]))
    return results


def assert_close(got, want):
    scale = max(1.0, np.abs(want).max())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


TASK_LOSS_SPECS = {"bce": BCE, "softmax-1": softmax_spec(1, 15),
                   "softmax-6": softmax_spec(6, 11)}


class TestFusedTaskLoss:
    """The fused node against the composed tape-op chain in `oracles`."""

    def case(self, spec, seed, spread):
        rng = np.random.default_rng(seed)
        rows, steps = 6, 4
        ys = [rng.uniform(-spread, spread, size=(rows, spec.output_size))
              for _ in range(steps)]
        targets = rng.integers(0, spec.classes, size=(rows, steps, spec.groups))
        mask = rng.random((rows, steps)) < 0.7
        mask[:2, 1] = False                # masked rows inside a live step
        mask[:, 2] = False                 # and a step with no target at all
        return ys, targets, mask / rows    # weighted as batch_objective does

    @pytest.mark.parametrize("name", sorted(TASK_LOSS_SPECS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_composed_chain(self, name, seed):
        spec = TASK_LOSS_SPECS[name]
        ys, targets, weights = self.case(spec, seed, 3.0)
        (value, adjs), (want_value, want_adjs) = fused_and_composed(
            spec, ys, targets, weights)
        assert_close(value, want_value)
        for got, want in zip(adjs, want_adjs):
            assert_close(got, want)
        np.testing.assert_array_equal(adjs[2], 0.0)
        np.testing.assert_array_equal(adjs[1][:2], 0.0)

    @pytest.mark.parametrize("name", sorted(TASK_LOSS_SPECS))
    def test_saturated_readouts(self, name):
        # Underflow of exp to 0 is what saturation is; overflow, division
        # by zero and invalid operations must not happen.
        spec = TASK_LOSS_SPECS[name]
        ys, targets, weights = self.case(spec, 7, 1e3)
        with np.errstate(all="raise", under="ignore"):
            (value, adjs), (want_value, want_adjs) = fused_and_composed(
                spec, ys, targets, weights)
            probs = spec.probs(np.stack(ys, axis=1))
        assert_close(value, want_value)
        picked = np.take_along_axis(probs, targets[..., None], axis=-1)[..., 0]
        clamped = picked < PROB_CLAMP
        assert clamped.any() and not clamped.all()
        for t, (got, want) in enumerate(zip(adjs, want_adjs)):
            assert_close(got, want)
            per_group = got.reshape(len(got), spec.groups, -1)
            if spec.head == "bce":
                per_group = got[:, :, None]
            assert np.all(per_group[clamped[:, t]] == 0.0)


class TestTotalLoss:
    def test_zero_penalty_collapses_to_task(self):
        b = total_loss(1.2345, 17.0, 0.0)
        assert b.total == b.task_loss == 1.2345

    def test_arithmetic_example(self):
        b = total_loss(1.0, 3.3, 0.01)
        assert abs(b.total - 1.033) < 1e-15

    def test_exact_link(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            task, ponder, tau = rng.random(), 10 * rng.random(), rng.random()
            b = total_loss(task, ponder, tau)
            assert b.total == task + tau * ponder

    def test_negative_penalty_rejected(self):
        with pytest.raises(ContractError):
            total_loss(1.0, 1.0, -0.1)


class TestSequenceErrorRate:
    def test_all_correct(self):
        t = np.zeros((4, 3, 2), dtype=int)
        assert sequence_error_rate(t, t, np.ones((4, 3), bool)) == 0.0

    def test_one_wrong_digit_in_one_example(self):
        targets = np.zeros((10, 2, 6), dtype=int)
        predictions = targets.copy()
        predictions[3, 1, 4] = 7
        assert sequence_error_rate(predictions, targets,
                                   np.ones((10, 2), bool)) == 0.1

    def test_mistake_on_masked_step_ignored(self):
        targets = np.zeros((2, 2, 1), dtype=int)
        predictions = targets.copy()
        predictions[0, 0, 0] = 1
        mask = np.array([[False, True], [True, True]])
        assert sequence_error_rate(predictions, targets, mask) == 0.0

    def test_random_guessing_on_parity_is_half(self):
        rng = np.random.default_rng(4)
        batch = gen_parity(seed=5, n_bits=64, batch=10_000)
        predictions = rng.integers(0, 2, size=batch.targets.shape)
        rate = sequence_error_rate(predictions, batch.targets, batch.target_mask)
        assert abs(rate - 0.5) < 0.02


class TestBitsPerCharacter:
    def test_uniform_256(self):
        nats = np.full(1000, math.log(256.0))
        assert abs(bits_per_character(nats) - 8.0) < 1e-12

    def test_perfect_prediction(self):
        assert bits_per_character(np.zeros(10)) == 0.0

    def test_quarter_probability(self):
        nats = np.full(64, -math.log(0.25))
        assert abs(bits_per_character(nats) - 2.0) < 1e-12


class TestPonderByDifficulty:
    def test_single_bucket(self):
        rows = ponder_by_difficulty([2.0, 3.0, 4.0], [5, 5, 5],
                                    steps=[2, 3, 4], errors=[0, 1, 1])
        assert rows == [DifficultyRow(5, 3, 3.0, 3.0, 2 / 3)]

    def test_cap_one_runs_have_unit_steps(self):
        rows = ponder_by_difficulty([2.0] * 6, [1, 1, 2, 2, 3, 3],
                                    steps=[1] * 6, errors=[0] * 6)
        assert all(r.mean_steps == 1.0 for r in rows)

    def test_exact_bucket_means_and_omitted_buckets(self):
        ponder = [1.5, 2.5, 10.0]
        difficulty = [1, 1, 7]
        rows = ponder_by_difficulty(ponder, difficulty, steps=[1, 2, 9],
                                    errors=[0, 1, 1])
        assert [r.difficulty for r in rows] == [1, 7]
        assert rows[0].mean_ponder == 2.0
        assert rows[1].mean_ponder == 10.0
        assert rows[0].count == 2
        assert (rows[0].mean_steps, rows[0].mean_error) == (1.5, 0.5)


class TestMaskingAndPermutation:
    def setup_case(self, seed=0):
        params = init_params("rnn", 8, 6, 1, seed=seed)
        spec = task_spec("parity", input_size=8)
        cfg = ActConfig(max_steps=6, time_penalty=1e-2)
        batch = gen_parity(seed=seed + 1, n_bits=8, batch=6)
        return spec, params, cfg, batch

    def test_masked_targets_cannot_influence_loss_or_gradients(self):
        spec, params, cfg, batch = self.setup_case()
        batch.target_mask[:3, 0] = False
        loss1, res1, b1, _ = batch_objective(spec, params, cfg, batch)
        res1.tape.backward(loss1)
        g1 = {n: res1.tape.grad(v).copy() for n, v in res1.param_vars.items()}

        flipped = batch
        flipped.targets = batch.targets.copy()
        flipped.targets[:3, 0, 0] ^= 1          # change only masked-out targets
        loss2, res2, b2, _ = batch_objective(spec, params, cfg, flipped)
        res2.tape.backward(loss2)
        assert float(loss1.data) == float(loss2.data)
        for n, v in res2.param_vars.items():
            np.testing.assert_array_equal(g1[n], res2.tape.grad(v))

    def test_masked_rows_get_exactly_zero_output_adjoint(self):
        spec, params, cfg, batch = self.setup_case(seed=2)
        batch.target_mask[:3, 0] = False
        loss, res, _, _ = batch_objective(spec, params, cfg, batch)
        res.tape.backward(loss)
        adj = res.tape.grad(res.node)[:, 0, :-1]
        np.testing.assert_array_equal(adj[:3], np.zeros((3, 1)))
        assert np.any(adj[3:] != 0.0)

    def test_loss_is_permutation_invariant(self):
        spec, params, cfg, batch = self.setup_case(seed=3)
        _, _, base, _ = batch_objective(spec, params, cfg, batch)
        perm = np.random.default_rng(0).permutation(batch.batch_size)
        shuffled = type(batch)(batch.task, batch.inputs[perm],
                               batch.targets[perm], batch.target_mask[perm],
                               batch.difficulty[perm], batch.lengths[perm])
        _, _, permuted, _ = batch_objective(spec, params, cfg, shuffled)
        assert abs(base.total - permuted.total) < 1e-12

    def test_per_position_nats_mean_matches_task_loss(self):
        spec, params, cfg, batch = self.setup_case(seed=4)
        _, _, breakdown, outputs = batch_objective(spec, params, cfg, batch)
        nats = per_position_nats(spec, outputs, batch.targets, batch.target_mask)
        assert abs(nats.sum() / batch.batch_size - breakdown.task_loss) < 1e-12


def objective_case(task, seed=0):
    """A small lstm batch of `task` with its spec and params."""
    spec = task_spec(task)
    if task == "text":
        corpus = synth_corpus(seed, size=4000)
        batch = gen_text(corpus, seed, seq_len=7, batch=3)
    elif task == "addition":
        batch = gen_addition(seed, batch=3, min_len=1, max_len=4,
                             min_digits=1, max_digits=5)
    else:
        batch = {"logic": gen_logic, "sort": gen_sort}[task](
            seed, batch=3, min_len=2 if task == "sort" else 1, max_len=4)
    params = init_params("lstm", spec.input_size, 6, spec.output_size, seed=seed)
    return spec, params, ActConfig(max_steps=5, time_penalty=1e-2), batch


class TestObjectiveTape:
    @pytest.mark.parametrize("task", ["logic", "addition", "sort", "text"])
    def test_objective_adds_at_most_three_nodes(self, task, monkeypatch):
        # The loss node, the ponder scale and the ponder add, whatever T
        # and the number of groups.
        spec, params, cfg, batch = objective_case(task)
        after_run = []

        def run_and_count(*args, **kwargs):
            res = run_batch(*args, **kwargs)
            after_run.append(len(res.tape))
            return res

        monkeypatch.setattr(trainer, "run_batch", run_and_count)
        _, res, _, _ = batch_objective(spec, params, cfg, batch)
        assert batch.inputs.shape[1] > 1
        assert len(res.tape) - after_run[0] <= 3

    @pytest.mark.parametrize("task", ["logic", "addition"])
    def test_tape_is_freed_by_reference_counting(self, task):
        # A backward closure that holds a Var makes a tape -> closure ->
        # Var -> tape cycle, which only the cycle collector would free.
        spec, params, cfg, batch = objective_case(task)
        gc.disable()
        try:
            result = batch_objective(spec, params, cfg, batch)
            result[1].tape.backward(result[0])
            readout = weakref.ref(result[1].node.data)
            del result
            assert readout() is None
        finally:
            gc.enable()


class TestUntrainedBpcBaseline:
    def test_untrained_model_on_random_bytes_is_near_eight_bits(self):
        rng = np.random.default_rng(9)
        corpus = rng.integers(0, 256, size=60_000, dtype=np.uint8).tobytes()
        spec = task_spec("text")
        params = init_params("lstm", 256, 16, 256, seed=1)
        cfg = ActConfig(max_steps=4)
        batches = [gen_text(corpus, seed=s, seq_len=125, batch=20)
                   for s in range(40)]
        metrics, details = evaluate(spec, params, cfg, batches)
        assert details.nats.size == 100_000
        assert 7.9 <= metrics.bits_per_character <= 8.1
