import re

import numpy as np
import pytest

from actlab.autodiff import ContractError, DimensionError, NumericError
from actlab.cells import init_params
from actlab.optim import ADAM_BLOCK, OptimizerState, adam_update, clip_global_norm


def tiny_params(seed=0):
    return init_params("rnn", 2, 3, 1, seed=seed)


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.items()}


class TestOptimizerState:
    def test_copy_shares_no_array(self):
        params = tiny_params()
        state = OptimizerState.for_params(params)
        adam_update(params, {n: np.ones_like(a) for n, a in params.items()},
                    state, lr=1e-3)
        copy = state.copy()
        assert copy.step == state.step == 1
        for moments, copied in ((state.m, copy.m), (state.v, copy.v)):
            assert list(copied) == list(moments)
            for name, arr in moments.items():
                np.testing.assert_array_equal(copied[name], arr)
                assert not np.shares_memory(copied[name], arr)


class TestAdam:
    def test_zero_gradient_changes_nothing(self):
        params = tiny_params()
        before = {n: a.copy() for n, a in params.items()}
        state = OptimizerState.for_params(params)
        adam_update(params, zero_grads(params), state, lr=1e-4)
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])
            np.testing.assert_array_equal(state.m[name], 0.0)
            np.testing.assert_array_equal(state.v[name], 0.0)
        assert state.step == 1

    def test_first_step_closed_form(self):
        # With g = 1 the bias-corrected moments are exactly m=1, v=1, so
        # the delta is -lr / (1 + eps). Zeroed parameters keep the
        # subtraction exact.
        params = tiny_params()
        params.w_in[...] = 0.0
        grads = zero_grads(params)
        grads["w_in"][...] = 1.0
        state = OptimizerState.for_params(params)
        adam_update(params, grads, state, lr=1e-4, eps=1e-8)
        expected = -1e-4 * 1.0 / (np.sqrt(1.0) + 1e-8)
        np.testing.assert_array_equal(params.w_in, expected)

    def test_two_steps_match_straight_line_trace(self):
        # Oracle: the update rule transcribed independently, scalar by scalar.
        rng = np.random.default_rng(5)
        params = tiny_params(seed=2)
        state = OptimizerState.for_params(params)
        mirror = {n: a.copy() for n, a in params.items()}
        m = {n: np.zeros_like(a) for n, a in mirror.items()}
        v = {n: np.zeros_like(a) for n, a in mirror.items()}
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        for t in (1, 2):
            grads = {n: rng.normal(size=a.shape) for n, a in params.items()}
            adam_update(params, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            for n in mirror:
                m[n] = b1 * m[n] + (1 - b1) * grads[n]
                v[n] = b2 * v[n] + (1 - b2) * grads[n] ** 2
                mhat = m[n] / (1 - b1 ** t)
                vhat = v[n] / (1 - b2 ** t)
                mirror[n] = mirror[n] - lr * mhat / (np.sqrt(vhat) + eps)
        for n, arr in params.items():
            np.testing.assert_allclose(arr, mirror[n], rtol=0, atol=1e-15)

    def test_nan_gradient_aborts_with_name(self):
        params = tiny_params()
        grads = zero_grads(params)
        grads["w_rec"][0, 0] = np.nan
        with pytest.raises(NumericError, match="w_rec"):
            adam_update(params, grads, OptimizerState.for_params(params), lr=1e-4)

    def test_failed_step_leaves_no_partial_update(self):
        # b_halt is updated last; its NaN must stop the step before any
        # parameter, moment or the step count changes.
        rng = np.random.default_rng(1)
        params = tiny_params()
        state = OptimizerState.for_params(params)
        adam_update(params, {n: rng.normal(size=a.shape) for n, a in params.items()},
                    state, lr=1e-3)
        grads = {n: rng.normal(size=a.shape) for n, a in params.items()}
        grads["b_halt"][0, 0] = np.nan

        def snapshot():
            return ({n: a.tobytes() for n, a in params.items()},
                    {n: a.tobytes() for n, a in state.m.items()},
                    {n: a.tobytes() for n, a in state.v.items()}, state.step)

        before = snapshot()
        with pytest.raises(NumericError, match="b_halt"):
            adam_update(params, grads, state, lr=1e-3)
        assert snapshot() == before

    def test_misshaped_gradient_leaves_no_partial_update(self):
        # b_halt is updated last; its wrong shape must stop the step before
        # w_in, any moment or the step count changes.
        rng = np.random.default_rng(2)
        params = tiny_params()
        state = OptimizerState.for_params(params)
        grads = {n: rng.normal(size=a.shape) for n, a in params.items()}
        grads["b_halt"] = rng.normal(size=(2, 2))
        before = [{n: a.tobytes() for n, a in d.items()}
                  for d in (params, state.m, state.v)]
        with pytest.raises(DimensionError, match="b_halt"):
            adam_update(params, grads, state, lr=1e-3)
        assert [{n: a.tobytes() for n, a in d.items()}
                for d in (params, state.m, state.v)] == before
        assert state.step == 0

    @pytest.mark.parametrize("where", ["param", "m", "v"])
    def test_non_contiguous_array_leaves_no_partial_update(self, where):
        # w_halt comes after five other parameters; a strided view there must
        # stop the step before any parameter, moment or the step count changes.
        rng = np.random.default_rng(3)
        params = tiny_params()
        state = OptimizerState.for_params(params)
        adam_update(params, {n: rng.normal(size=a.shape) for n, a in params.items()},
                    state, lr=1e-3)
        # Every other column of a (3, 2) copy: a (3, 1) view, not C-contiguous.
        old = params.w_halt if where == "param" else getattr(state, where)["w_halt"]
        strided = np.repeat(old, 2, axis=1)[:, ::2]
        assert not strided.flags.c_contiguous
        if where == "param":
            params.w_halt = strided
        else:
            getattr(state, where)["w_halt"] = strided
        grads = {n: rng.normal(size=a.shape) for n, a in params.items()}

        def snapshot():
            return ([{n: a.tobytes() for n, a in d.items()}
                     for d in (params, state.m, state.v)], state.step)

        before = snapshot()
        with pytest.raises(ContractError, match=re.escape(
                "'w_halt', its m and its v must be C-contiguous to be updated in place")):
            adam_update(params, grads, state, lr=1e-3)
        assert snapshot() == before

    def test_blocked_update_is_the_textbook_form_in_place(self):
        # W_rec spans two blocks and part of a third. The result must be
        # the textbook expression exactly, with each array updated in place.
        params = init_params("lstm", 5, 130, 3, seed=4)
        assert params.w_rec.size > 2 * ADAM_BLOCK and params.w_rec.size % ADAM_BLOCK
        state = OptimizerState.for_params(params)
        arrays = [(n, a, state.m[n], state.v[n]) for n, a in params.items()]
        mirror = {n: a.copy() for n, a in params.items()}
        m = {n: np.zeros_like(a) for n, a in mirror.items()}
        v = {n: np.zeros_like(a) for n, a in mirror.items()}
        rng = np.random.default_rng(9)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        for t in (1, 2, 3):
            grads = {n: rng.normal(size=a.shape) for n, a in params.items()}
            adam_update(params, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            for n, g in grads.items():
                m[n] = m[n] * b1 + (1 - b1) * g
                v[n] = v[n] * b2 + (1 - b2) * (g * g)
                mirror[n] = mirror[n] - lr * (m[n] / (1 - b1 ** t)) / (
                    np.sqrt(v[n] / (1 - b2 ** t)) + eps)
        for n, arr, m_arr, v_arr in arrays:
            assert getattr(params, n) is arr
            assert state.m[n] is m_arr and state.v[n] is v_arr
            assert np.all(arr == mirror[n])
            assert np.all(m_arr == m[n]) and np.all(v_arr == v[n])
        assert state.step == 3

    def test_deterministic_across_runs(self):
        def run():
            params = tiny_params(seed=3)
            state = OptimizerState.for_params(params)
            rng = np.random.default_rng(7)
            for _ in range(5):
                grads = {n: rng.normal(size=a.shape) for n, a in params.items()}
                adam_update(params, grads, state, lr=1e-3)
            return {n: a.copy() for n, a in params.items()}

        a, b = run(), run()
        for n in a:
            assert a[n].tobytes() == b[n].tobytes()


class TestClip:
    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, max_norm=10.0)
        assert norm == 5.0
        assert grads["a"][0] == 3.0

    def test_clips_to_threshold(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clip_global_norm(grads, max_norm=1.0)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert abs(total - 1.0) < 1e-12

    def test_zero_disables(self):
        grads = {"a": np.array([30.0])}
        clip_global_norm(grads, max_norm=0.0)
        assert grads["a"][0] == 30.0
