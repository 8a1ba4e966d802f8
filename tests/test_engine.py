"""The batched runner must agree with the per-sequence reference exactly
(values and gradients), including variable-length padding and frozen rows."""

import weakref

import numpy as np
import pytest

from actlab import autodiff as ad
from actlab import engine
from actlab.act import ActConfig
from actlab.cells import CELLS, init_params
from actlab.engine import run_batch
from actlab.losses import joint_softmax_cross_entropy as block_softmax_loss
from actlab.tasks import gen_logic, task_spec
from actlab.trainer import batch_objective

from oracles import halting_distribution, joint_softmax_cross_entropy, run_sequence


def random_case(kind, seed, batch=5, t_max=4, input_size=3, hidden=6, out=4):
    rng = np.random.default_rng(seed)
    params = init_params(kind, input_size, hidden, out, seed=seed + 1)
    lengths = rng.integers(1, t_max + 1, size=batch)
    lengths[0] = t_max                      # keep at least one full-length row
    inputs = rng.normal(size=(batch, t_max, input_size))
    targets = rng.integers(0, out, size=(batch, t_max, 1))
    mask = rng.random((batch, t_max)) < 0.8
    mask &= np.arange(t_max)[None, :] < lengths[:, None]
    return params, inputs, lengths, targets, mask


def reference_objective(params, cfg, inputs, lengths, targets, mask, tau):
    """Per-example tapes, averaged by hand: the ground-truth objective."""
    batch = inputs.shape[0]
    total = 0.0
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    outputs = []
    ponders = []
    halt_grads = []                 # per example and step: d/dh^1 .. d/dh^N
    for e in range(batch):
        t_e = int(lengths[e])
        res = run_sequence(params.kind, params, cfg, inputs[e, :t_e])
        loss = None
        for t, y in enumerate(res.outputs):
            dist = ad.softmax(y, axis=1)
            term = joint_softmax_cross_entropy([dist], targets[e, t:t + 1, 0],
                                               mask[e, t:t + 1])
            loss = term if loss is None else ad.add(loss, term)
        if res.ponder_var is not None:
            loss = ad.add(loss, ad.scale(res.ponder_var, tau))
        total += float(loss.data) + tau * res.ponder_const
        res.tape.backward(loss)
        for name, var in res.param_vars.items():
            grads[name] += res.tape.grad(var)
        outputs.append(np.vstack([y.data for y in res.outputs]))
        ponders.append([tr.ponder for tr in res.traces])
        halt_grads.append([[res.tape.grad(h)[0, 0] / batch for h in tr.halt_vars]
                           for tr in res.traces])
    total /= batch
    for name in grads:
        grads[name] /= batch
    return total, grads, outputs, ponders, halt_grads


def position_sum(res, t, start, length):
    """Sum of columns start .. start + length of the batch node at input
    step t, as a node: a loss seeded on one step's readouts or R."""
    step = ad.narrow(res.node, 1, t, 1)
    return ad.reduce_sum(ad.narrow(step, 2, start, length))


def batched_objective(params, cfg, inputs, lengths, targets, mask, tau):
    """The engine's batch node under the package's task-loss node, which
    `test_losses` pins to the composed chain the reference uses."""
    batch = inputs.shape[0]
    res = run_batch(params, cfg, inputs, lengths)
    spec = task_spec("addition", output_size=params.output_size, groups=1,
                     classes=params.output_size)
    loss = ad.add(block_softmax_loss(spec, res.node, targets, mask),
                  ad.scale(res.ponder_var, tau))
    loss = ad.scale(loss, 1.0 / batch)
    total = float(loss.data)
    res.tape.backward(loss)
    grads = {name: res.tape.grad(var) for name, var in res.param_vars.items()}
    return total, grads, res


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_per_sequence(kind, seed):
    check_against_reference(kind, seed, t_max=4)


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_long_batch_matches_per_sequence(kind):
    check_against_reference(kind, 3, t_max=64)


def check_against_reference(kind, seed, t_max):
    params, inputs, lengths, targets, mask = random_case(kind, seed, t_max=t_max)
    cfg = ActConfig(max_steps=7, time_penalty=1e-2)
    tau = cfg.time_penalty

    ref_total, ref_grads, ref_outputs, ref_ponders, ref_halt_grads = reference_objective(
        params, cfg, inputs, lengths, targets, mask, tau)
    got_total, got_grads, res = batched_objective(
        params, cfg, inputs, lengths, targets, mask, tau)

    # Values: outputs on live steps, ponder diagnostics, loss.
    for e in range(inputs.shape[0]):
        t_e = int(lengths[e])
        np.testing.assert_allclose(res.outputs[e, :t_e], ref_outputs[e],
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(res.ponders[e, :t_e], ref_ponders[e],
                                   atol=1e-12, rtol=0)
        assert not res.active[e, t_e:].any()
        assert np.all(res.ponders[e, t_e:] == 0.0)
    assert abs(got_total - ref_total) < 1e-12
    assert abs(res.ponder_var.data - sum(sum(p) for p in ref_ponders)) < 1e-12

    # Gradients, the part the masks could silently break.
    for name in ref_grads:
        scale = max(1.0, np.abs(ref_grads[name]).max())
        np.testing.assert_allclose(got_grads[name] / scale,
                                   ref_grads[name] / scale, atol=1e-12, rtol=0)
    # The halting adjoints the batch node keeps, position by position.
    for e, per_step in enumerate(ref_halt_grads):
        for t, want in enumerate(per_step):
            np.testing.assert_allclose(res.halt_grads[e, t, :len(want)], want,
                                       atol=1e-12, rtol=0)


@pytest.mark.parametrize("kind,halt_bias,halt_scale",
                         [("rnn", -1.0, 4.0), ("lstm", -1.0, 4.0), ("rnn", 2.0, 10.0)])
def test_closed_forms_exact_under_padding(kind, halt_bias, halt_scale):
    """The two gradcheck closed forms, on padded rows halting at different N:
    d(R)/d(h^n) is exactly -1 before a row's halt and 0 from it on, and the
    full objective gives each row's halting activation exactly 0."""
    params, inputs, lengths, targets, mask = random_case(kind, 0)
    params.b_halt[:] = halt_bias
    params.w_halt *= halt_scale
    cfg = ActConfig(max_steps=7, time_penalty=1e-2)
    _, _, res = batched_objective(params, cfg, inputs, lengths, targets, mask,
                                  cfg.time_penalty)
    assert not res.active.all()
    assert len(np.unique(res.steps[res.active])) > 1
    e, t = np.nonzero(res.active)
    assert np.all(res.halt_grads[e, t, res.steps[e, t] - 1] == 0.0)

    # Each sweep replaces the adjoints: later steps, which R at t does not
    # depend on, read exact zeros.
    n = np.arange(1, res.halts.shape[2] + 1)
    for t in range(inputs.shape[1]):
        res.tape.backward(position_sum(res, t, params.output_size, 1))
        want = np.where(n < res.steps[:, t, None], -1.0, 0.0)
        assert np.all(res.halt_grads[:, t] == want)
        assert not res.halt_grads[:, t + 1:].any()


def test_forced_cap_one_batch():
    params, inputs, lengths, targets, mask = random_case("lstm", 9)
    res = run_batch(params, ActConfig(max_steps=1), inputs, lengths)
    assert np.all(res.steps[res.active] == 1)
    assert np.all(res.remainders[res.active] == 1.0)
    assert np.all(res.halted_by_cap[res.active])
    # The ponder is constant: no parameter or halting activation gets any
    # of its gradient.
    res.tape.backward(res.ponder_var)
    for _, var in res.param_vars.items():
        assert not res.tape.grad(var).any()
    assert not res.halt_grads.any()
    assert res.ponder_var.data == 2.0 * lengths.sum()


def test_remainders_match_halting_law_bit_for_bit():
    """R is 1 - h^1 - h^2 - ... in the halting law's order, on every padded
    row, and the dense halting record holds exactly h^1 .. h^N there."""
    seen = set()
    for kind, halt_bias, halt_scale in [("rnn", -1.0, 4.0), ("rnn", 2.0, 10.0),
                                        ("lstm", -1.0, 4.0), ("lstm", -2.0, 1.0)]:
        params, inputs, lengths, _, _ = random_case(kind, 0, batch=12, t_max=6)
        params.b_halt[:] = halt_bias
        params.w_halt *= halt_scale
        cfg = ActConfig(max_steps=7)
        res = run_batch(params, cfg, inputs, lengths)
        assert not res.active.all()
        assert res.halts.shape == res.steps.shape + (res.steps.max(),)
        assert res.halt_grads.shape == res.halts.shape
        assert not res.halt_grads.any()         # no backward yet
        # Past each position's N, inactive positions included: exact zeros.
        past = np.arange(res.halts.shape[2]) >= res.steps[..., None]
        assert np.all(res.halts[~past] > 0.0) and not res.halts[past].any()
        for e, t in zip(*np.nonzero(res.active)):
            # The law stops at N on the record alone, zeros past N and all.
            n, _, remainder = halting_distribution(res.halts[e, t], cfg.epsilon,
                                                   cfg.max_steps)
            assert n == res.steps[e, t]
            assert res.remainders[e, t] == remainder
        res.tape.backward(ad.reduce_sum(res.node))
        assert res.halt_grads[~past].any() and not res.halt_grads[past].any()
        seen.update(res.steps[res.active].tolist())
    assert seen == set(range(1, 8))


def test_one_readout_per_batch(monkeypatch):
    # One product over every position, however many updates ran.
    params, inputs, lengths, _, _ = random_case("lstm", 3)
    params.b_halt[:] = -2.0
    calls = []
    original = engine.readout

    def counted(hidden, w_out, b_out):
        calls.append(hidden.shape)
        return original(hidden, w_out, b_out)

    monkeypatch.setattr(engine, "readout", counted)
    res = run_batch(params, ActConfig(max_steps=7), inputs, lengths)
    assert res.steps.max() > 1
    assert calls == [(inputs.shape[0] * inputs.shape[1], params.hidden_size)]


@pytest.mark.parametrize("pad", [np.nan, np.inf, 1e300])
@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_padding_cannot_poison_values_or_gradients(kind, pad):
    """Whatever padded positions hold, the outputs at active positions and
    every parameter gradient equal those of the zero-padded batch, bit for
    bit: padded inputs are never stepped, so they reach no packet. A row
    of length 0, and a batch with no active position at all, backpropagate
    finite adjoints that are 0 wherever no row ran."""
    rng = np.random.default_rng(6)
    params = init_params(kind, 3, 6, 4, seed=7, halt_bias=-1.0)
    values = rng.normal(size=(3, 4, 3))
    cfg = ActConfig(max_steps=7)

    def run(inputs, lengths):
        res = run_batch(params, cfg, inputs, lengths)
        keep = np.zeros(res.node.shape)
        keep[..., :-1] = res.active[..., None]      # active readouts, no R
        loss = ad.add(ad.scale(res.ponder_var, 1e-2),
                      ad.reduce_sum(ad.const_mul(res.node, keep)))
        res.tape.backward(loss)
        outputs = res.outputs[res.active]
        return res, loss, outputs, {name: res.tape.grad(var)
                                    for name, var in res.param_vars.items()}

    for lengths in ([4, 2, 3], [4, 0, 3], [0, 0, 0]):
        lengths = np.array(lengths)
        padded = np.arange(4)[None, :] >= lengths[:, None]
        zero = np.where(padded[..., None], 0.0, values)
        base, base_loss, base_outputs, base_grads = run(zero, lengths)
        assert (len(np.unique(base.steps[base.active])) > 1) == lengths.any()
        assert not base.halt_grads[padded].any()
        if not lengths.any():
            assert not any(g.any() for g in base_grads.values())
        with np.errstate(all="ignore"):
            res, loss, outputs, grads = run(np.where(padded[..., None], pad,
                                                     zero), lengths)
        np.testing.assert_array_equal(res.steps, base.steps)
        np.testing.assert_array_equal(res.remainders, base.remainders)
        assert loss.data == base_loss.data
        np.testing.assert_array_equal(outputs, base_outputs)
        for name, g in base_grads.items():
            assert np.all(np.isfinite(g))
            np.testing.assert_array_equal(grads[name], g)
        np.testing.assert_array_equal(res.halt_grads, base.halt_grads)


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_only_running_rows_are_stepped(kind, monkeypatch):
    """The cell sees each active row exactly N times per input step, and
    no row is frozen with a select."""
    params, inputs, lengths, _, _ = random_case(kind, 0, batch=12, t_max=6)
    params.b_halt[:] = -1.0
    params.w_halt *= 4.0
    stepped = []
    original = CELLS[kind].step

    def counted(z, s):
        stepped.append(z.shape[0])
        return original(z, s)

    def no_select(*args):
        raise AssertionError("run_batch recorded a where_mask node")

    monkeypatch.setattr(CELLS[kind], "step", staticmethod(counted))
    monkeypatch.setattr(ad, "where_mask", no_select)
    res = run_batch(params, ActConfig(max_steps=7), inputs, lengths)
    assert not res.active.all()
    assert len(np.unique(res.steps[res.active])) > 2
    assert sum(stepped) == res.steps[res.active].sum()
    assert sum(stepped) < res.steps.max(axis=0).sum() * inputs.shape[0]


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
@pytest.mark.parametrize("t_max, max_steps", [(1, 7), (4, 1), (4, 7)])
def test_zero_initial_state_skips_recurrent_products(kind, t_max, max_steps,
                                                     monkeypatch):
    """Every batch starts from the zero state, so the engine forms no
    s W_rec on the first update of input step 0, and nowhere else skips
    it; the backward returns no adjoint of the initial state, and only
    there. Values and gradients keep their 1e-12 pin to the reference, at
    T = 1 and with the cap at one update."""
    params, inputs, lengths, targets, mask = random_case(kind, 4, t_max=t_max)
    params.b_halt[:] = -1.0
    cfg = ActConfig(max_steps=max_steps, time_penalty=1e-2)
    calls, carries = [], []
    original, original_back = CELLS[kind].step, engine._backward_step

    def recorded(z, s):
        # Under a NaN W_rec, z is NaN-free only where no s W_rec was formed.
        nan = np.isnan(z)
        calls.append((not nan.any(), z.shape[0]))
        z[nan] = 0.0
        return original(z, s)

    def replayed(updates, t, *args):
        carry, dh = original_back(updates, t, *args)
        carries.append((t, carry is None))
        return carry, dh

    monkeypatch.setattr(CELLS[kind], "step", staticmethod(recorded))
    poisoned = params.copy()
    poisoned.w_rec[...] = np.nan
    for grad in (False, True):
        calls.clear()
        run_batch(poisoned, cfg, inputs, lengths, grad=grad)
        assert len(calls) > 1 and calls[0] == (True, inputs.shape[0])
        assert [free for free, _ in calls[1:]] == [False] * (len(calls) - 1)

    monkeypatch.setattr(engine, "_backward_step", replayed)
    calls.clear()
    got_total, got_grads, res = batched_objective(
        params, cfg, inputs, lengths, targets, mask, cfg.time_penalty)
    assert [t for t, _ in carries] == list(range(t_max - 1, -1, -1))
    assert [t for t, none in carries if none] == [0]
    assert len(calls) == res.steps.max(axis=0).sum()
    assert sum(rows for _, rows in calls) == res.steps[res.active].sum()
    if max_steps > 1:
        assert res.steps.max() > 1

    monkeypatch.undo()
    ref_total, ref_grads, ref_outputs, _, _ = reference_objective(
        params, cfg, inputs, lengths, targets, mask, cfg.time_penalty)
    assert abs(got_total - ref_total) < 1e-12
    for e in range(inputs.shape[0]):
        np.testing.assert_allclose(res.outputs[e, :lengths[e]], ref_outputs[e],
                                   atol=1e-12, rtol=0)
    for name, want in ref_grads.items():
        scale = max(1.0, np.abs(want).max())
        np.testing.assert_allclose(got_grads[name] / scale, want / scale,
                                   atol=1e-12, rtol=0)


@pytest.mark.parametrize("n_steps", [1, 10, 64])
@pytest.mark.parametrize("halt_bias, mean_n", [(-2.0, 9.0), (8.0, 1.0)])
def test_node_budget_per_batch(halt_bias, mean_n, n_steps):
    # The seven parameters, the batch node, the ponder sum, the loss, and
    # the objective's scale and add: the same 12 nodes whatever T and N.
    spec = task_spec("logic")
    batch = gen_logic(5, batch=6, min_len=n_steps, max_len=n_steps)
    params = init_params("lstm", spec.input_size, 16, spec.output_size, seed=1,
                         halt_bias=halt_bias)
    _, res, _, _ = batch_objective(spec, params, ActConfig(time_penalty=1e-2),
                                   batch)
    assert res.active.shape[1] == n_steps
    assert abs(res.steps[res.active].mean() - mean_n) < 1.0
    assert len(res.tape) == 12


def test_input_step_with_no_active_row():
    # The last input step is past both rows' lengths: it keeps the state,
    # reads it out, and R reads 0. The active steps match the same batch
    # trimmed to T = 2.
    rng = np.random.default_rng(4)
    params = init_params("lstm", 3, 6, 4, seed=5, halt_bias=-1.0)
    inputs = rng.normal(size=(2, 3, 3))
    lengths = np.array([2, 1])
    cfg = ActConfig(max_steps=7)
    res = run_batch(params, cfg, inputs, lengths)
    trimmed = run_batch(params, cfg, inputs[:, :2], lengths)
    np.testing.assert_array_equal(res.outputs[:, :2], trimmed.outputs)
    np.testing.assert_array_equal(res.outputs[:, 2], res.outputs[:, 1])
    np.testing.assert_array_equal(res.steps[:, :2], trimmed.steps)
    assert not res.steps[:, 2].any() and not res.remainders[:, 2].any()
    assert not res.halts[:, 2].any()
    assert res.ponder_var.data == trimmed.ponder_var.data
    res.tape.backward(position_sum(res, 2, 0, params.output_size))
    assert res.tape.grad(res.param_vars["w_rec"]).any()


def test_weight_adjoints_formed_once_per_flush_chunk(monkeypatch):
    # Each input step pushes one block of its rows onto each of the three
    # affine maps' stacks: [x | 1] once per active row, [h_in | flag] and
    # [h_out | 1] once per update. The backward must stack exactly those
    # rows and form each stack's product once per chunk, flushing as soon
    # as a stack holds min(OUTER_FLUSH_ROWS, 2 a width) rows, the a width
    # being its adjoint's row count, never once per update, in buffers as
    # long as the largest chunk can be.
    spec = task_spec("logic")
    batch = gen_logic(3, batch=8, min_len=3, max_len=4)
    n_hidden = 16
    params = init_params("lstm", spec.input_size, n_hidden, spec.output_size,
                         seed=2, halt_bias=-2.0)
    proj = params.w_rec.shape[1]
    cfg = ActConfig(max_steps=10)
    formed, buffers = [], {}
    original = engine._RowStack.flush

    def counted(stack):
        rows, pending = stack.rows, stack.rows > 0
        out = original(stack)
        if pending:
            formed.append((out.shape, rows))
        buffers[out.shape] = (len(stack.b), len(stack.a))
        return out

    def chunks(packet_rows, limit):
        # Blocks arrive in reverse input-step order, one per step.
        want, stacked = [], 0
        for rows in reversed(packet_rows):
            stacked += rows
            if stacked >= limit:
                want.append(stacked)
                stacked = 0
        return want + ([stacked] if stacked else [])

    def weight_grads(flush_rows):
        formed.clear()
        monkeypatch.setattr(engine, "OUTER_FLUSH_ROWS", flush_rows)
        loss, res, _, _ = batch_objective(spec, params, cfg, batch)
        res.tape.backward(loss)
        updates = int(res.steps.max(axis=0).sum())
        assert updates > 2 * batch.inputs.shape[1]
        # Rows stepped per input step, and its active rows.
        live = np.count_nonzero(res.halts, axis=(0, 2)).tolist()
        assert sum(live) == res.steps[res.active].sum() < updates * 8
        active = res.active.sum(axis=0).tolist()
        packet_rows = {(spec.input_size + 1, proj): active,
                       (n_hidden + 1, proj): live, (n_hidden + 1, 1): live}
        limits = {}
        for shape, rows in packet_rows.items():
            limits[shape] = min(flush_rows, 2 * shape[0])
            got = [n for formed_shape, n in formed if formed_shape == shape]
            assert got == chunks(rows, limits[shape])
            bound = min(sum(rows), limits[shape] - 1 + max(rows))
            assert buffers[shape] == (bound, bound)
        assert len(formed) == sum(len(chunks(rows, limits[shape]))
                                  for shape, rows in packet_rows.items())
        return limits, {name: res.tape.grad(var)
                        for name, var in res.param_vars.items()}

    monkeypatch.setattr(engine._RowStack, "flush", counted)
    # At the default cap every stack flushes at twice its a width: the
    # input stack's 28 rows stay below its 206 and form one product, while
    # the recurrent and halting stacks flush once they hold 34 rows.
    limits, by_width = weight_grads(engine.OUTER_FLUSH_ROWS)
    assert limits == {shape: 2 * shape[0] for shape in limits}
    assert len(formed) > 3
    # A cap of 40 sits between the limits: it binds the input stack and
    # leaves the other two at 34. Caps of 24 and 8 bind all three, and
    # 24 splits the input stack's 28 rows.
    for flush_rows, want in ((40, [40, 34, 34]), (24, [24, 24, 24]),
                             (8, [8, 8, 8])):
        limits, chunked = weight_grads(flush_rows)
        assert list(limits.values()) == want
        for name, g in by_width.items():
            np.testing.assert_allclose(chunked[name], g, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(g).max()))


def test_inputs_shape_contract():
    params = init_params("rnn", 3, 4, 2, seed=0)
    with pytest.raises(Exception, match="batch, T, input_size"):
        run_batch(params, ActConfig(), np.zeros((3, 3)), [3, 3, 3])
    with pytest.raises(ad.DimensionError, match="4 features"):
        run_batch(params, ActConfig(), np.zeros((2, 3, 4)), [3, 3])
    # One length per row, or some rows would run unmasked or never step.
    for lengths in ([2], [2, 3], [[2, 3, 1]], [2, 3, 1, 1]):
        with pytest.raises(ad.ContractError, match=r"lengths must be \(3,\)"):
            run_batch(params, ActConfig(), np.zeros((3, 4, 3)), lengths)
    # A length past T ran the row as T long, a negative one as 0.
    for lengths in ([5, 9], [-1, 2]):
        with pytest.raises(ad.ContractError, match=r"lengths must be in \[0, 3\]"):
            run_batch(params, ActConfig(), np.zeros((2, 3, 3)), lengths)


def forward_only_cases(kind):
    """(params, cfg, inputs, lengths) cases: NaN-padded inputs with an
    input step that no row reaches, the step cap at one update, and a
    batch whose rows halt at many different updates."""
    rng = np.random.default_rng(11)
    params = init_params(kind, 3, 6, 4, seed=12, halt_bias=-1.0)
    lengths = np.array([5, 2, 4, 1])
    padded = np.arange(6)[None, :] >= lengths[:, None]
    inputs = np.where(padded[..., None], np.nan, rng.normal(size=(4, 6, 3)))
    yield params, ActConfig(max_steps=7), inputs, lengths
    yield params, ActConfig(max_steps=1), inputs, lengths
    params, inputs, lengths, _, _ = random_case(kind, 3, batch=7, t_max=5)
    yield params, ActConfig(max_steps=20), inputs, lengths


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_forward_only_matches_recording_pass(kind):
    for params, cfg, inputs, lengths in forward_only_cases(kind):
        with np.errstate(invalid="ignore"):
            rec = run_batch(params, cfg, inputs, lengths)
            fwd = run_batch(params, cfg, inputs, lengths, grad=False)
        for name in ("outputs", "remainders", "steps", "active",
                     "halted_by_cap", "halts"):
            got, want = getattr(fwd, name), getattr(rec, name)
            assert got.shape == want.shape and np.all(got == want), name
        assert np.all(fwd.ponders == rec.ponders)
        assert (fwd.tape, fwd.param_vars, fwd.node, fwd.ponder_var,
                fwd.halt_grads) == (None,) * 5


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_forward_only_keeps_no_update_arrays(kind, grad, monkeypatch):
    """Forward-only, each update's cell backward and every array it holds
    are gone by the next update, and its new state (the next update's
    input) by the one after; nothing outlives the pass. The recording
    pass keeps them all for its backward. An LSTM backward holds only
    tanh(scale z) in z's buffer, the new state and a view of the old c;
    an RNN backward only its new state."""
    params, inputs, lengths, _, _ = random_case(kind, 5, batch=6, t_max=4)
    params.b_halt[:] = -2.0
    original = CELLS[kind].step
    outs, held = [], []      # weakrefs per update: its state; its backward's

    def alive(refs):
        return [r for r in refs if r() is not None]

    def watched(z, s):
        if not grad:
            assert not alive(held) and not alive(outs[:-1])
        out, back = original(z, s)
        arrays = {name: c.cell_contents for name, c
                  in zip(back.__code__.co_freevars, back.__closure__)
                  if isinstance(c.cell_contents, np.ndarray)}
        if kind == "lstm":
            assert arrays.keys() == {"t", "out", "cd"}
            assert arrays["t"] is z and arrays["cd"].base is s
        else:
            assert arrays.keys() == {"out"}
        assert arrays["out"] is out
        outs.append(weakref.ref(out))
        held.append(weakref.ref(back))
        held.extend(weakref.ref(a) for name, a in arrays.items() if name != "out")
        return out, back

    monkeypatch.setattr(CELLS[kind], "step", staticmethod(watched))
    res = run_batch(params, ActConfig(max_steps=9), inputs, lengths, grad=grad)
    assert len(outs) > 2 * inputs.shape[1] and (res.tape is None) != grad
    if grad:
        assert len(alive(held)) == len(held) and len(alive(outs)) == len(outs)
    else:
        assert not alive(held) and not alive(outs)
