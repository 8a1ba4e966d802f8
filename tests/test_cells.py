import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlab import autodiff as ad
from actlab.autodiff import Tape
from actlab.cells import CELLS, init_params, param_shapes, readout

from oracles import (COMPOSED_STEPS, CellState, cell_step, lstm_step_plain, rnn_step_plain,
                     record_params, zero_state)


def make_params(kind, input_size, hidden, output, *, fill=None, seed=0):
    p = init_params(kind, input_size, hidden, output, seed=seed)
    if fill is not None:
        for _, arr in p.items():
            arr[...] = fill
    return p


def step_once(params, x, state_arrays=None):
    """Run one recorded cell step and return plain state arrays."""
    tape = Tape()
    pv = record_params(tape, params)
    cell = CELLS[params.kind]
    if state_arrays is None:
        state = zero_state(cell, tape, params.hidden_size)
    else:
        state = CellState(*(tape.leaf(np.atleast_2d(a)) for a in state_arrays))
    out = cell_step(cell, pv, state, np.atleast_2d(x))
    return tuple(p.data[0] for p in out.parts())


class TestRnnStep:
    def test_zero_weights_give_zero_state(self):
        p = make_params("rnn", 4, 6, 2, fill=0.0)
        (h,) = step_once(p, np.random.default_rng(0).normal(size=5))
        np.testing.assert_array_equal(h, np.zeros(6))

    def test_decoupled_units(self):
        # W_rec = 0, W_in = I on the non-flag rows, b = 0: state = tanh(x).
        p = make_params("rnn", 4, 4, 2, fill=0.0)
        p.w_in[:4, :] = np.eye(4)
        x = np.array([0.5, -0.25, 0.75, 0.0, 1.0])   # last element is the flag
        (h,) = step_once(p, x)
        np.testing.assert_allclose(h, np.tanh(x[:4]), rtol=0, atol=0)

    def test_random_instance_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        p = make_params("rnn", 5, 7, 3, seed=1)
        h0 = rng.normal(size=7)
        x = rng.normal(size=6)
        (h,) = step_once(p, x, state_arrays=(h0,))
        np.testing.assert_allclose(h, rnn_step_plain(p, h0, x), atol=1e-12, rtol=0)


class TestLstmStep:
    def test_zero_weights_halve_cell_state(self):
        # All gates sit at sigma(0) = 1/2 and the candidate is tanh(0) = 0.
        p = make_params("lstm", 3, 4, 2, fill=0.0)
        c0 = np.array([1.0, -2.0, 0.5, 4.0])
        h, c = step_once(p, np.zeros(4), state_arrays=(np.zeros(4), c0))
        np.testing.assert_allclose(c, 0.5 * c0, rtol=0, atol=0)

    def test_saturated_forget_gate_preserves_cell(self):
        p = make_params("lstm", 3, 4, 2, fill=0.0)
        p.b_rec[0, 4:8] = 1e3
        c0 = np.array([1.0, -2.0, 0.5, 4.0])
        h, c = step_once(p, np.zeros(4), state_arrays=(np.zeros(4), c0))
        np.testing.assert_allclose(c, c0, rtol=0, atol=1e-12)

    def test_random_instance_matches_straight_line_oracle(self):
        rng = np.random.default_rng(9)
        p = make_params("lstm", 4, 6, 2, seed=2)
        state0 = (rng.normal(size=6), rng.normal(size=6))
        x = rng.normal(size=5)
        h, c = step_once(p, x, state_arrays=state0)
        oh, oc = lstm_step_plain(p, state0, x)
        np.testing.assert_allclose(h, oh, atol=1e-12, rtol=0)
        np.testing.assert_allclose(c, oc, atol=1e-12, rtol=0)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cell_state_growth_bound(self, c0_list, seed):
        # Gates lie in (0,1), the candidate in (-1,1): |c'| <= max(|c|,1) + 1.
        rng = np.random.default_rng(seed)
        p = make_params("lstm", 3, 4, 2, seed=seed % 1000)
        c0 = np.array(c0_list)
        _, c = step_once(p, rng.normal(size=4), state_arrays=(rng.normal(size=4), c0))
        assert np.all(np.abs(c) <= np.maximum(np.abs(c0), 1.0) + 1.0)


def freeze(run_mask, new, old):
    """Keep `old` rows where run_mask is false, by `where_mask` on each part."""
    mask = np.broadcast_to(run_mask[:, None], new.hidden.data.shape)
    return CellState(*(ad.where_mask(mask, n, o)
                       for n, o in zip(new.parts(), old.parts())))


def fused(kind):
    """The package's cell step as a tape op with the composed steps' signature."""
    return lambda pv, state, x: cell_step(CELLS[kind], pv, state, x)


def step_with_adjoints(step, params, x, state_arrays, upstream, run_mask=None):
    """One batched step (optionally frozen where run_mask is false), then
    backward from sum(part * upstream) over the new state's parts.

    Returns the new state arrays and the adjoints of every parent of the
    step: the state parts, W_in, W_rec and b_rec.
    """
    tape = Tape()
    pv = record_params(tape, params)
    state = CellState(*(tape.leaf(a) for a in state_arrays))
    new = step(pv, state, x)
    if run_mask is not None:
        new = freeze(run_mask, new, state)
    loss = None
    for part, g in zip(new.parts(), upstream):
        term = ad.reduce_sum(ad.mul(part, tape.leaf(g)))
        loss = term if loss is None else ad.add(loss, term)
    tape.backward(loss)
    parents = (*state.parts(), pv["w_in"], pv["w_rec"], pv["b_rec"])
    return [p.data for p in new.parts()], [tape.grad(v) for v in parents]


class TestFusedStep:
    """The cell's step and backward, recorded as one node by
    `oracles.cell_step`, against the composed-op reference in `oracles`."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("kind, n_inputs", [("rnn", 5), ("lstm", 6)])
    def test_value_and_every_adjoint_match_composed_ops(self, kind, n_inputs, frozen):
        rng = np.random.default_rng(17)
        batch, hidden = 5, 6
        p = make_params(kind, 4, hidden, 3, seed=8)
        p.b_rec[...] = rng.normal(size=p.b_rec.shape)
        n_parts = 2 if kind == "lstm" else 1
        x = rng.normal(size=(batch, 5))
        state0 = [rng.normal(size=(batch, hidden)) for _ in range(n_parts)]
        upstream = [rng.normal(size=(batch, hidden)) for _ in range(n_parts)]
        run_mask = np.array([True, False, True, True, False]) if frozen else None
        got_values, got_grads = step_with_adjoints(
            fused(kind), p, x, state0, upstream, run_mask)
        ref_values, ref_grads = step_with_adjoints(
            COMPOSED_STEPS[kind], p, x, state0, upstream, run_mask)
        # Every input but x, which is a constant array, is a tape parent.
        assert len(got_grads) == n_inputs - 1
        for got, ref in zip(got_values + got_grads, ref_values + ref_grads):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        if frozen:
            for got, old in zip(got_values, state0):
                np.testing.assert_array_equal(got[~run_mask], old[~run_mask])

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_saturated_preactivations_are_exact_and_warning_free(self, kind):
        # Pre-activations of magnitude 50 to 1e3 with zero weights: every
        # gate must be exactly 0 or 1 and the candidate exactly -1 or 1.
        rng = np.random.default_rng(4)
        batch, hidden = 3, 4
        p = make_params(kind, 3, hidden, 2, fill=0.0)
        z = rng.choice([-1.0, 1.0], size=p.b_rec.shape[1]) * rng.uniform(
            50.0, 1e3, size=p.b_rec.shape[1])
        z[:2] = [1e3, -1e3]
        p.b_rec[0] = z
        n_parts = 2 if kind == "lstm" else 1
        state0 = [rng.normal(size=(batch, hidden)) for _ in range(n_parts)]
        upstream = [rng.normal(size=(batch, hidden)) for _ in range(n_parts)]
        with np.errstate(all="raise"):
            values, grads = step_with_adjoints(
                fused(kind), p, rng.normal(size=(batch, 4)), state0, upstream)
        for arr in values + grads:
            assert np.all(np.isfinite(arr))
        on = np.broadcast_to(z > 0, (batch, z.size))
        sign = np.where(on, 1.0, -1.0)
        if kind == "rnn":
            np.testing.assert_array_equal(values[0], sign)
            return
        i, f, g, o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
        c = np.where(on[:, f], state0[1], 0.0) + np.where(on[:, i], sign[:, g], 0.0)
        np.testing.assert_array_equal(values[1], c)
        np.testing.assert_array_equal(values[0], np.where(on[:, o], np.tanh(c), 0.0))

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_step_records_one_fused_node(self, kind):
        # RNN: the fused node alone. LSTM: the fused node plus the two
        # slices that hand h' and c' to the state.
        p = make_params(kind, 3, 4, 2, seed=1)
        tape = Tape()
        pv = record_params(tape, p)
        cell = CELLS[kind]
        state = zero_state(cell, tape, p.hidden_size, batch=2)
        before = len(tape)
        cell_step(cell, pv, state, np.ones((2, 4)))
        added = len(tape) - before
        if kind == "rnn":
            assert added == 1
        else:
            assert added <= 3


class TestReadout:
    def test_zero_weights_give_bias(self):
        p = make_params("rnn", 3, 5, 2, fill=0.0)
        p.b_out[0] = [1.5, -2.0]
        h = np.random.default_rng(0).normal(size=(1, 5))
        np.testing.assert_array_equal(readout(h, p.w_out, p.b_out), [[1.5, -2.0]])

    def test_identity_weights_expose_state(self):
        p = make_params("rnn", 3, 4, 4, fill=0.0)
        p.w_out[...] = np.eye(4)
        h = np.random.default_rng(1).normal(size=(1, 4))
        np.testing.assert_array_equal(readout(h, p.w_out, p.b_out), h)

    def test_random_instance_vs_hand_matmul(self):
        rng = np.random.default_rng(5)
        p = make_params("lstm", 3, 6, 4, seed=3)
        h = rng.normal(size=(1, 6))
        got = readout(h, p.w_out, p.b_out)
        np.testing.assert_allclose(got, h @ p.w_out + p.b_out, atol=1e-12, rtol=0)


# sha256 of each parameter's bytes at seed 42, input 5, hidden 7, output 3,
# in items() order. The values were taken before `init_params` was built
# from `param_shapes`; they pin the draw order and every drawn bit.
INIT_DIGESTS = {
    ("rnn", 1.0): [
        ("w_in", "1ecd046a1e62b367dc824ce15ac2ea46d1794960d5589add573f5b334ccc077d"),
        ("w_rec", "bd6cc0e7aa071837b71552c03a71126a917808afd0bbf7e876090758219c92d2"),
        ("b_rec", "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb"),
        ("w_out", "83b396578c329af0ad1018e42a15d8341fd81b34e3a5e9a1511040c55dba4e0e"),
        ("b_out", "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
        ("w_halt", "011cc59f0bff6786711157bfaaffd009a9b0cc2e5eade5c71394c3817a6aad0a"),
        ("b_halt", "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ],
    ("lstm", -2.5): [
        ("w_in", "10cb41c9d72d29630e8d7867155401b7c79b686272ef763db5e5e6488d19c0a7"),
        ("w_rec", "5bc28699a19d95fcdf84e00759f4de17d613c101ef25d7641ebfc6fc8301a67e"),
        ("b_rec", "0fd2ea95d684ddf718d5cbea47854056640a8a0405bf44a44fe7a864bff851b1"),
        ("w_out", "62bd6a8167ec3fab2820aed55c9bb82acd8057a654ecb2453ad33f694215ae12"),
        ("b_out", "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
        ("w_halt", "c134f112b24e77bc283b933dcc85aa59340ef55b2ef5f8bc0f1e78efdf0afe1a"),
        ("b_halt", "dde259eb6c7aa5546e9e5baa22259533b30803c98a29ad3a48682d44d8503549"),
    ],
}


class TestParamShapes:
    @pytest.mark.parametrize("kind", sorted(CELLS))
    def test_table_is_in_items_order_and_matches_init(self, kind):
        p = init_params(kind, 5, 7, 3, seed=0)
        shapes = param_shapes(kind, 5, 7, 3)
        assert list(shapes) == [name for name, _ in p.items()]
        assert {name: arr.shape for name, arr in p.items()} == shapes

    def test_unknown_kind_is_contract_error(self):
        with pytest.raises(ad.ContractError, match=re.escape(
                "unknown cell kind 'gru'; expected one of ['lstm', 'rnn']")):
            param_shapes("gru", 5, 7, 3)


class TestInitParams:
    @pytest.mark.parametrize("kind, halt_bias", sorted(INIT_DIGESTS))
    def test_pinned_bit_for_bit(self, kind, halt_bias):
        p = init_params(kind, 5, 7, 3, seed=42, halt_bias=halt_bias)
        assert all(arr.dtype == np.float64 for _, arr in p.items())
        got = [(name, hashlib.sha256(arr.tobytes()).hexdigest())
               for name, arr in p.items()]
        assert got == INIT_DIGESTS[kind, halt_bias]

    def test_halting_bias_defaults_to_one(self):
        for kind in ("rnn", "lstm"):
            assert init_params(kind, 4, 8, 2, seed=0).b_halt[0, 0] == 1.0

    def test_same_seed_bit_identical(self):
        a = init_params("lstm", 4, 8, 2, seed=123)
        b = init_params("lstm", 4, 8, 2, seed=123)
        for (na, va), (nb, vb) in zip(a.items(), b.items()):
            assert na == nb
            assert va.tobytes() == vb.tobytes()

    def test_different_seed_differs(self):
        a = init_params("rnn", 4, 8, 2, seed=1)
        b = init_params("rnn", 4, 8, 2, seed=2)
        assert a.w_in.tobytes() != b.w_in.tobytes()

    def test_weight_sample_mean_near_zero(self):
        # Uniform(-r, r) has sigma = r/sqrt(3); the mean of n draws should
        # land within 3 sigma / sqrt(n) of zero.
        p = init_params("rnn", 999, 100, 2, seed=7)
        draws = p.w_in.ravel()
        assert draws.size == 100_000
        r = 1.0 / np.sqrt(1000)
        bound = 3.0 * (r / np.sqrt(3.0)) / np.sqrt(draws.size)
        assert abs(draws.mean()) < bound
        assert np.all(np.abs(draws) <= r)

    def test_lstm_forget_bias(self):
        p = init_params("lstm", 4, 8, 2, seed=0)
        np.testing.assert_array_equal(p.b_rec[0, 8:16], np.ones(8))
        np.testing.assert_array_equal(p.b_rec[0, :8], np.zeros(8))
        np.testing.assert_array_equal(p.b_rec[0, 16:], np.zeros(16))

    def test_other_biases_zero(self):
        p = init_params("rnn", 4, 8, 2, seed=0)
        np.testing.assert_array_equal(p.b_rec, np.zeros((1, 8)))
        np.testing.assert_array_equal(p.b_out, np.zeros((1, 2)))


class TestDeterminism:
    def test_step_is_referentially_transparent(self):
        rng = np.random.default_rng(11)
        p = make_params("lstm", 4, 6, 2, seed=4)
        state0 = (rng.normal(size=6), rng.normal(size=6))
        x = rng.normal(size=5)
        first = step_once(p, x, state_arrays=state0)
        second = step_once(p, x, state_arrays=state0)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
