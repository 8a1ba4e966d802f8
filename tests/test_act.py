import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlab import autodiff as ad
from actlab.act import ActConfig
from actlab.autodiff import ContractError, NumericError, Tape
from actlab.cells import CELLS, init_params

from oracles import (act_step, augment_input, cell_step, halting_distribution,
                     plain_rnn_outputs, record_params, run_sequence,
                     run_sequence_plain, zero_state)


class TestAugmentInput:
    def test_flag_set_on_first_update(self):
        assert augment_input(np.array([0.3, -1.0]), 1).tolist() == [0.3, -1.0, 1.0]

    def test_flag_clear_afterwards(self):
        assert augment_input(np.array([0.3, -1.0]), 2).tolist() == [0.3, -1.0, 0.0]

    def test_empty_input(self):
        assert augment_input(np.array([]), 1).tolist() == [1.0]

    def test_step_index_contract(self):
        with pytest.raises(ContractError):
            augment_input(np.array([1.0]), 0)


class TestHaltingDistribution:
    def test_three_step_halt(self):
        # Cumulative sums 0.3, 0.7, 1.2: the threshold 0.99 is crossed at 3.
        n, p, r = halting_distribution([0.3, 0.4, 0.5], 0.01, 100)
        assert n == 3
        np.testing.assert_allclose(p, [0.3, 0.4, 0.3], atol=1e-15)
        assert abs(r - 0.3) < 1e-15

    def test_single_update_halt(self):
        n, p, r = halting_distribution([0.995, 0.9], 0.01, 100)
        assert (n, p, r) == (1, [1.0], 1.0)

    def test_cap_assigns_remainder(self):
        n, p, r = halting_distribution([0.1, 0.1, 0.1], 0.01, 2)
        assert n == 2
        np.testing.assert_allclose(p, [0.1, 0.9], atol=1e-15)
        assert abs(r - 0.9) < 1e-15

    def test_activation_out_of_range(self):
        with pytest.raises(ContractError, match="outside"):
            halting_distribution([0.5, 1.2], 0.01, 10)

    def test_exhausted_without_halt(self):
        with pytest.raises(ContractError, match="exhausted"):
            halting_distribution([0.1, 0.1], 0.01, 10)

    @given(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=40),
           st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_distribution_invariants(self, hs, max_steps):
        hs = hs + [1.0 - 1e-9]          # guarantee the threshold is reachable
        n, p, r = halting_distribution(hs, 0.01, max_steps)
        assert 1 <= n <= max_steps
        assert len(p) == n
        assert abs(sum(p) - 1.0) < 1e-12
        assert all(0.0 <= q <= 1.0 for q in p)
        assert 0.0 < r <= 1.0
        assert (r == 1.0) == (n == 1) or n == max_steps

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
           st.integers(0, 11), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_consumption(self, hs, bump_at, bumped):
        # Increasing any single activation never increases N.
        hs = [min(h, 1.0) for h in hs]
        padded = hs + [1.0]
        n0, _, _ = halting_distribution(padded, 0.01, 50)
        idx = bump_at % len(hs)
        raised = list(hs)
        raised[idx] = max(raised[idx], bumped)
        n1, _, _ = halting_distribution(raised + [1.0], 0.01, 50)
        assert n1 <= n0


def forced_single_step_params(kind="rnn", input_size=3, hidden=5, out=2, seed=0):
    p = init_params(kind, input_size, hidden, out, seed=seed)
    p.b_halt[0, 0] = 12.0        # sigma(12) > 0.999996: halts after one update
    return p


class TestActStep:
    def test_forced_single_step_reduces_to_plain_cell(self):
        p = forced_single_step_params()
        cfg = ActConfig(time_penalty=0.0)
        tape = Tape()
        pv = record_params(tape, p)
        cell = CELLS["rnn"]
        state = zero_state(cell, tape, p.hidden_size)
        x = np.array([0.5, -1.0, 0.25])
        trace, s_t, y_t = act_step(cell, state, x, pv, cfg, tape)
        assert trace.steps_taken == 1
        assert trace.halting_probs == [1.0]
        assert trace.ponder == 2.0
        # Bit-exact passthrough of the single update.
        plain = cell_step(cell, pv, zero_state(cell, tape, p.hidden_size),
                          np.atleast_2d(augment_input(x, 1)))
        np.testing.assert_array_equal(s_t.hidden.data, plain.hidden.data)

    def test_two_step_convex_combination(self):
        # Constant halting activation 0.25 with cap 2 pins p = (0.25, 0.75).
        p = init_params("rnn", 3, 4, 2, seed=1)
        p.w_halt[...] = 0.0
        p.b_halt[0, 0] = np.log(0.25 / 0.75)
        cfg = ActConfig(max_steps=2)
        tape = Tape()
        pv = record_params(tape, p)
        cell = CELLS["rnn"]
        trace, s_t, y_t = act_step(cell, zero_state(cell, tape, 4),
                                   np.array([0.1, 0.2, 0.3]), pv, cfg, tape)
        assert trace.steps_taken == 2
        assert trace.halted_by_cap
        np.testing.assert_allclose(trace.halting_probs, [0.25, 0.75], atol=1e-12)
        s1, s2 = (s.hidden.data for s in trace.state_vars)
        np.testing.assert_allclose(s_t.hidden.data, 0.25 * s1 + 0.75 * s2,
                                   atol=1e-15, rtol=0)
        y1, y2 = (y.data for y in trace.output_vars)
        np.testing.assert_allclose(y_t.data, 0.25 * y1 + 0.75 * y2,
                                   atol=1e-15, rtol=0)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_random_net_matches_straight_line_oracle(self, kind):
        rng = np.random.default_rng(17)
        for trial in range(5):
            p = init_params(kind, 4, 6, 3, seed=100 + trial)
            cfg = ActConfig(max_steps=8)
            xs = rng.normal(size=(3, 4))
            res = run_sequence(kind, p, cfg, xs)
            oracle_y, oracle_ponder = run_sequence_plain(p, xs, cfg.epsilon, cfg.max_steps)
            got = np.vstack([y.data for y in res.outputs])
            np.testing.assert_allclose(got, oracle_y, atol=1e-12, rtol=0)
            assert abs(res.ponder_cost - oracle_ponder) < 1e-12

    def test_nan_halting_raises_numeric_error(self):
        p = init_params("rnn", 3, 4, 2, seed=0)
        p.w_in[0, 0] = np.nan
        tape = Tape()
        pv = record_params(tape, p)
        cell = CELLS["rnn"]
        with pytest.raises(NumericError, match="update 1"):
            act_step(cell, zero_state(cell, tape, 4), np.ones(3), pv,
                     ActConfig(), tape, input_step=5)


class TestRunSequence:
    def test_single_forced_step_ponder_is_two(self):
        p = forced_single_step_params()
        res = run_sequence("rnn", p, ActConfig(), np.zeros((1, 3)))
        assert res.ponder_cost == 2.0

    def test_ponder_exceeds_steps_by_remainders(self):
        p = init_params("rnn", 3, 6, 2, seed=3)
        xs = np.random.default_rng(0).normal(size=(4, 3))
        res = run_sequence("rnn", p, ActConfig(max_steps=20), xs)
        total_n = sum(tr.steps_taken for tr in res.traces)
        slack = res.ponder_cost - total_n
        assert 0.0 < slack <= len(res.traces)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_cap_one_reduces_to_plain_network(self, kind):
        p = init_params(kind, 3, 5, 2, seed=8)
        xs = np.random.default_rng(1).normal(size=(4, 3))
        res = run_sequence(kind, p, ActConfig(max_steps=1), xs)
        got = np.vstack([y.data for y in res.outputs])
        np.testing.assert_allclose(got, plain_rnn_outputs(p, xs), atol=1e-12, rtol=0)
        assert all(tr.steps_taken == 1 and tr.halted_by_cap for tr in res.traces)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_halting_bias_reduces_to_plain_network(self, kind):
        p = forced_single_step_params(kind)
        xs = np.random.default_rng(2).normal(size=(3, 3))
        res = run_sequence(kind, p, ActConfig(), xs)
        got = np.vstack([y.data for y in res.outputs])
        np.testing.assert_allclose(got, plain_rnn_outputs(p, xs), atol=1e-12, rtol=0)

    def test_mean_state_within_componentwise_hull(self):
        p = init_params("lstm", 3, 6, 2, seed=5)
        xs = np.random.default_rng(3).normal(size=(3, 3))
        res = run_sequence("lstm", p, ActConfig(max_steps=10), xs)
        for tr in res.traces:
            for j, mean_part in enumerate(tr.mean_state.parts()):
                stack = np.stack([s.parts()[j].data for s in tr.state_vars])
                lo, hi = stack.min(axis=0), stack.max(axis=0)
                assert np.all(mean_part.data >= lo - 1e-12)
                assert np.all(mean_part.data <= hi + 1e-12)

    def test_trace_invariants(self):
        p = init_params("rnn", 4, 8, 2, seed=6)
        xs = np.random.default_rng(4).normal(size=(5, 4))
        res = run_sequence("rnn", p, ActConfig(max_steps=12), xs)
        for tr in res.traces:
            n = tr.steps_taken
            assert len(tr.halting_probs) == n
            assert len(tr.halt_vars) == n
            assert len(tr.state_vars) == n
            assert len(tr.output_vars) == n
            assert abs(sum(tr.halting_probs) - 1.0) < 1e-12
            assert 0.0 < tr.remainder <= 1.0
            assert (tr.remainder == 1.0) == (n == 1)
            assert tr.ponder == n + tr.remainder


class TestPonderGradients:
    def run_with_quadratic_loss(self, kind="rnn", tau=0.01, seed=21, t_steps=3):
        p = init_params(kind, 3, 5, 2, seed=seed)
        cfg = ActConfig(max_steps=10, time_penalty=tau)
        xs = np.random.default_rng(seed).normal(size=(t_steps, 3))
        res = run_sequence(kind, p, cfg, xs)
        loss = None
        for y in res.outputs:
            term = ad.reduce_sum(ad.mul(y, y))
            loss = term if loss is None else ad.add(loss, term)
        if res.ponder_var is not None:
            loss = ad.add(loss, ad.scale(ad.reduce_sum(res.ponder_var), tau))
        res.tape.backward(loss)
        return p, res

    def test_ponder_gradient_is_minus_one_before_halt(self):
        # Eq-15-style check: the derivative of one step's ponder with
        # respect to that step's own activations. Each step gets a fresh
        # forward run so adjoints from other steps cannot accumulate.
        p = init_params("rnn", 3, 5, 2, seed=33)
        cfg = ActConfig(max_steps=10)
        xs = np.random.default_rng(33).normal(size=(2, 3))
        n_steps = len(run_sequence("rnn", p, cfg, xs).traces)
        for k in range(n_steps):
            res = run_sequence("rnn", p, cfg, xs)
            tr = res.traces[k]
            if tr.ponder_var is None:
                continue
            res.tape.backward(ad.reduce_sum(tr.ponder_var))
            for n, hv in enumerate(tr.halt_vars):
                g = res.tape.grad(hv)[0, 0]
                assert g == (-1.0 if n < tr.steps_taken - 1 else 0.0)

    def test_last_step_ponder_gradient_under_total_cost(self):
        # The final input step has no downstream propagation, so even the
        # total ponder cost gives its activations exactly -1 / 0.
        p = init_params("rnn", 3, 5, 2, seed=34)
        cfg = ActConfig(max_steps=10)
        xs = np.random.default_rng(34).normal(size=(3, 3))
        res = run_sequence("rnn", p, cfg, xs)
        assert res.ponder_var is not None
        res.tape.backward(ad.reduce_sum(res.ponder_var))
        last = res.traces[-1]
        for n, hv in enumerate(last.halt_vars):
            g = res.tape.grad(hv)[0, 0]
            assert g == (-1.0 if n < last.steps_taken - 1 else 0.0)

    def test_final_activation_gets_zero_total_gradient(self):
        _, res = self.run_with_quadratic_loss()
        for tr in res.traces:
            assert res.tape.grad(tr.halt_vars[-1])[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_closed_form_halting_gradient(self, kind):
        # d(loss)/d(h_n) for n < N must equal
        # dL/dy_t (y_n - y_N) + dL/ds_t (s_n - s_N) - tau.
        tau = 0.01
        _, res = self.run_with_quadratic_loss(kind=kind, tau=tau, seed=55)
        tape = res.tape
        for tr in res.traces:
            n_steps = tr.steps_taken
            if n_steps == 1:
                continue
            adj_y = tape.grad(tr.mean_output)
            adj_state = [tape.grad(part) for part in tr.mean_state.parts()]
            for n in range(n_steps - 1):
                expect = float(np.sum(adj_y * (tr.output_vars[n].data
                                               - tr.output_vars[-1].data)))
                for j, adj_s in enumerate(adj_state):
                    expect += float(np.sum(adj_s * (tr.state_vars[n].parts()[j].data
                                                    - tr.state_vars[-1].parts()[j].data)))
                expect -= tau
                got = tape.grad(tr.halt_vars[n])[0, 0]
                assert abs(got - expect) < 1e-10


class TestActConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            ActConfig(epsilon=0.6).validate()
        with pytest.raises(ContractError):
            ActConfig(max_steps=0).validate()
        with pytest.raises(ContractError):
            ActConfig(time_penalty=-1e-9).validate()
        assert ActConfig().validate().epsilon == 0.01
        assert ActConfig().max_steps == 100
