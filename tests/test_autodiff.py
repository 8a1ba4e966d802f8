import numpy as np
import pytest

from actlab import autodiff as ad
from actlab.autodiff import ContractError, DimensionError, NumericError, Tape

from oracles import fd_grad, rel_err


def leaf(tape, value):
    return tape.leaf(np.asarray(value, dtype=np.float64))


class TestForwardExamples:
    def test_matmul_identity(self):
        tape = Tape()
        out = ad.matmul(leaf(tape, np.eye(2)), leaf(tape, [[1, 2], [3, 4]]))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_matmul_hand_product(self):
        # [[1,2],[3,4]] @ [[5],[6]] by hand: rows dot column.
        tape = Tape()
        out = ad.matmul(leaf(tape, [[1, 2], [3, 4]]), leaf(tape, [[5], [6]]))
        np.testing.assert_array_equal(out.data, [[17], [39]])

    def test_matmul_zero_annihilates(self):
        tape = Tape()
        x = leaf(tape, np.random.default_rng(0).normal(size=(2, 3)))
        out = ad.matmul(leaf(tape, np.zeros((2, 2))), x)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_matmul_shape_error_names_both_shapes(self):
        tape = Tape()
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(leaf(tape, np.zeros((2, 3))), leaf(tape, np.zeros((2, 2))))

    def test_sigmoid_zero_is_half(self):
        tape = Tape()
        assert ad.sigmoid(leaf(tape, [0.0])).data[0] == 0.5

    def test_sigmoid_saturates_without_nan(self):
        tape = Tape()
        out = ad.sigmoid(leaf(tape, [1000.0, -1000.0]))
        assert abs(out.data[0] - 1.0) < 1e-15
        assert abs(out.data[1]) < 1e-15
        assert np.all(np.isfinite(out.data))

    def test_sigmoid_at_two(self):
        # Oracle: mpmath evaluation of 1/(1 + e^-2) to 30 digits.
        import mpmath
        expected = float(1 / (1 + mpmath.exp(-2)))
        assert expected == 0.8807970779778823
        tape = Tape()
        assert abs(ad.sigmoid(leaf(tape, [2.0])).data[0] - expected) < 1e-15

    def test_logistic_error_against_exact_values(self):
        # Oracle: mpmath 1/(1 + e^-x) to 30 digits. The tanh form keeps an
        # absolute error within 6e-17 below 1/2 and a relative one within
        # an ulp above it, out to where it saturates.
        import mpmath
        xs = np.concatenate([np.linspace(-36.0, 36.0, 145), [-1e-9, 1e-9]])
        for x, p in zip(xs, ad.logistic(xs)):
            with mpmath.workdps(30):
                exact = float(1 / (1 + mpmath.exp(-mpmath.mpf(float(x)))))
            assert abs(p - exact) <= (6e-17 if exact < 0.5 else 2.3e-16 * exact)
        np.testing.assert_array_equal(ad.logistic(np.array([-800.0, 0.0, 800.0])),
                                      [0.0, 0.5, 1.0])

    def test_tanh_zero(self):
        tape = Tape()
        assert ad.tanh(leaf(tape, [0.0])).data[0] == 0.0

    def test_softmax_symmetry(self):
        tape = Tape()
        out = ad.softmax(leaf(tape, [[0.0, 0.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=0, atol=1e-16)

    def test_softmax_values(self):
        # Oracle: direct e^x / sum(e^x) without the max shift.
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(
            expected, [0.09003057, 0.24472847, 0.66524096], atol=5e-9)
        tape = Tape()
        out = ad.softmax(leaf(tape, x[None, :]), axis=1)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-15)

    def test_softmax_axis_out_of_range(self):
        tape = Tape()
        with pytest.raises(DimensionError, match="axis"):
            ad.softmax(leaf(tape, [[1.0, 2.0]]), axis=2)

    def test_concat_extent_mismatch(self):
        tape = Tape()
        with pytest.raises(DimensionError, match="extent"):
            ad.concat([leaf(tape, np.zeros((2, 3))), leaf(tape, np.zeros((3, 3)))], axis=1)

    def test_narrow_out_of_range(self):
        tape = Tape()
        with pytest.raises(DimensionError):
            ad.narrow(leaf(tape, np.zeros((2, 3))), 1, 2, 2)


class TestStopGradient:
    def test_forward_is_bit_exact(self):
        tape = Tape()
        x = leaf(tape, [1.0, 2.0])
        out = ad.stop_gradient(x)
        assert out.data is x.data

    def test_frozen_factor_product_rule(self):
        # d/dx (sg(x) * x) at x=3 must be 3, not 6.
        tape = Tape()
        x = leaf(tape, [3.0])
        y = ad.reduce_sum(ad.mul(ad.stop_gradient(x), x))
        tape.backward(y)
        assert tape.grad(x)[0] == 3.0

    def test_alone_gives_zero(self):
        tape = Tape()
        x = leaf(tape, [3.0])
        tape.backward(ad.reduce_sum(ad.stop_gradient(x)))
        assert tape.grad(x)[0] == 0.0


class TestBackward:
    def test_sum_gives_ones(self):
        tape = Tape()
        x = leaf(tape, np.random.default_rng(0).normal(size=(3, 4)))
        tape.backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(tape.grad(x), np.ones((3, 4)))

    def test_sigmoid_linear_chain(self):
        # loss = sigmoid(w * x) at w=0, x=1: dloss/dw = sigma'(0) * x = 1/4.
        tape = Tape()
        w = leaf(tape, [[0.0]])
        x = leaf(tape, [[1.0]])
        loss = ad.reduce_sum(ad.sigmoid(ad.matmul(w, x)))
        tape.backward(loss)
        assert tape.grad(w)[0, 0] == 0.25

    def test_three_layer_composition_vs_fd(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 5))
        w2 = rng.normal(size=(5, 3))
        w3 = rng.normal(size=(3, 1))
        x = rng.normal(size=(2, 4))

        def forward(w1v, w2v, w3v):
            tape = Tape()
            vs = [tape.leaf(w) for w in (w1v, w2v, w3v)]
            h = ad.tanh(ad.matmul(tape.leaf(x), vs[0]))
            h = ad.sigmoid(ad.matmul(h, vs[1]))
            loss = ad.reduce_sum(ad.tanh(ad.matmul(h, vs[2])))
            return tape, vs, loss

        tape, vs, loss = forward(w1, w2, w3)
        tape.backward(loss)
        for i, w in enumerate((w1, w2, w3)):
            def f(wv, i=i):
                args = [w1, w2, w3]
                args[i] = wv
                return float(forward(*args)[2].data)
            assert rel_err(tape.grad(vs[i]), fd_grad(f, w)) < 1e-6

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = leaf(tape, [1.0, 2.0])
        with pytest.raises(ContractError, match="scalar"):
            tape.backward(x)

    def test_replaying_backward_gives_identical_gradients(self):
        tape = Tape()
        x = leaf(tape, [1.5])
        loss = ad.reduce_sum(ad.mul(x, x))
        tape.backward(loss)
        once = tape.grad(x).copy()
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), once)

    def test_backward_from_another_loss_replaces_gradients(self):
        # Sweeping one tape from several losses in turn gives each loss's
        # gradients alone, as a fresh tape would.
        x0 = np.random.default_rng(3).normal(size=(3, 3))

        def losses(tape):
            x = tape.leaf(x0)
            y = ad.sigmoid(ad.matmul(x, x))
            return x, y, ad.reduce_sum(y), ad.reduce_sum(ad.mul(y, y))

        tape = Tape()
        x, y, first, second = losses(tape)
        tape.backward(first)
        tape.backward(second)
        fresh = Tape()
        fx, _, _, fresh_second = losses(fresh)
        fresh.backward(fresh_second)
        np.testing.assert_array_equal(tape.grad(x), fresh.grad(fx))
        tape.backward(first)
        np.testing.assert_array_equal(tape.grad(second), np.zeros(()))
        np.testing.assert_array_equal(tape.grad(y), np.ones((3, 3)))

    def test_node_ids_topologically_ordered(self):
        tape = Tape()
        a = leaf(tape, [[1.0, 2.0]])
        b = leaf(tape, [[3.0], [4.0]])
        c = ad.matmul(a, b)
        d = ad.sigmoid(c)
        for child, parents in ((c, (a, b)), (d, (c,))):
            assert all(p.idx < child.idx for p in parents)

    def test_cross_tape_operands_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ContractError, match="tape"):
            ad.add(leaf(t1, [1.0]), leaf(t2, [1.0]))

    def test_backward_from_another_tapes_loss_rejected(self):
        t1, t2 = Tape(), Tape()
        loss = ad.reduce_sum(leaf(t1, [1.0, 2.0]))
        leaf(t2, [0.0])
        with pytest.raises(ContractError,
                           match="^loss was recorded on a different tape$"):
            t2.backward(loss)
        assert t2.gradients == []

    def test_grad_of_another_tapes_var_rejected(self):
        # The foreign var's index names a node of this tape that it is not.
        t1, t2 = Tape(), Tape()
        x = leaf(t1, [1.0, 2.0, 3.0])
        t1.backward(ad.reduce_sum(ad.scale(x, 5.0)))
        stray = leaf(t2, [0.0, 0.0, 0.0])
        with pytest.raises(ContractError, match="tape"):
            t1.grad(stray)


def _unary_cases(rng):
    x = rng.normal(size=(3, 4))
    return [
        ("sigmoid", lambda v: ad.sigmoid(v), x),
        ("tanh", lambda v: ad.tanh(v), x),
        ("softmax0", lambda v: ad.softmax(v, axis=0), x),
        ("softmax1", lambda v: ad.softmax(v, axis=1), x),
        ("scale", lambda v: ad.scale(v, -2.5), x),
        ("add_scalar", lambda v: ad.add_scalar(v, 1.25), x),
        ("const_mul", lambda v: ad.const_mul(v, np.arange(12.0).reshape(3, 4)), x),
        ("narrow", lambda v: ad.narrow(v, 1, 1, 2), x),
        ("reduce_sum", lambda v: ad.reduce_sum(v), x),
        ("log", lambda v: ad.log(v), np.abs(x) + 0.5),
        ("clamp_min", lambda v: ad.clamp_min(v, 0.1), np.abs(x) + 0.5),
    ]


def _binary_cases(rng):
    a = rng.normal(size=(3, 4))
    return [
        ("add", ad.add, a, rng.normal(size=(3, 4))),
        ("add_bias", ad.add, a, rng.normal(size=(1, 4))),
        ("sub", ad.sub, a, rng.normal(size=(3, 4))),
        ("mul", ad.mul, a, rng.normal(size=(3, 4))),
        ("matmul", ad.matmul, a, rng.normal(size=(4, 2))),
        ("rowscale", ad.rowscale, a, rng.normal(size=(3, 1))),
        ("where_mask",
         lambda x, y: ad.where_mask(np.arange(12).reshape(3, 4) % 2 == 0, x, y),
         a, rng.normal(size=(3, 4))),
    ]


class TestEveryOpAgainstFiniteDifferences:
    """The module-wide invariant: analytic == central differences < 1e-6."""

    @pytest.mark.parametrize("case", _unary_cases(np.random.default_rng(11)),
                             ids=lambda c: c[0])
    def test_unary(self, case):
        name, op, x = case

        def f(xv):
            tape = Tape()
            return float(ad.reduce_sum(op(tape.leaf(xv))).data)

        tape = Tape()
        v = tape.leaf(x)
        tape.backward(ad.reduce_sum(op(v)))
        assert rel_err(tape.grad(v), fd_grad(f, x)) < 1e-6

    @pytest.mark.parametrize("case", _binary_cases(np.random.default_rng(12)),
                             ids=lambda c: c[0])
    def test_binary(self, case):
        name, op, a, b = case

        def run(av, bv):
            tape = Tape()
            va, vb = tape.leaf(av), tape.leaf(bv)
            loss = ad.reduce_sum(op(va, vb))
            return tape, va, vb, loss

        tape, va, vb, loss = run(a, b)
        tape.backward(loss)
        assert rel_err(tape.grad(va),
                       fd_grad(lambda x: float(run(x, b)[3].data), a)) < 1e-6
        assert rel_err(tape.grad(vb),
                       fd_grad(lambda x: float(run(a, x)[3].data), b)) < 1e-6

    def test_concat_vs_fd(self):
        rng = np.random.default_rng(13)
        parts = [rng.normal(size=(2, k)) for k in (1, 3, 2)]

        def run(values):
            tape = Tape()
            vs = [tape.leaf(p) for p in values]
            out = ad.concat(vs, axis=1)
            return tape, vs, ad.reduce_sum(ad.sigmoid(out))

        tape, vs, loss = run(parts)
        tape.backward(loss)
        for i in range(3):
            def f(x, i=i):
                vals = list(parts)
                vals[i] = x
                return float(run(vals)[2].data)
            assert rel_err(tape.grad(vs[i]), fd_grad(f, parts[i])) < 1e-6


class TestWhereMaskIsolation:
    def test_nan_in_unselected_branch_cannot_leak(self):
        tape = Tape()
        a = leaf(tape, [[1.0, 2.0]])
        b = leaf(tape, [[np.nan, 5.0]])
        out = ad.where_mask(np.array([[True, True]]), a, b)
        assert np.all(np.isfinite(out.data))
        tape.backward(ad.reduce_sum(out))
        assert np.all(np.isfinite(tape.grad(a)))
        np.testing.assert_array_equal(tape.grad(b), [[0.0, 0.0]])
